"""Analytical device simulator: specs, memory pool, and launch ledger.

This package is the reproduction's stand-in for real GPU hardware (see
DESIGN.md, "Hardware substitution").  Kernels report their workload to an
:class:`ExecutionContext`; the context prices each launch under a
:class:`DeviceSpec` and accumulates simulated time, memory, and occupancy
statistics that the benchmarks report in place of the paper's V100/T4
measurements.
"""

from repro.device.context import (
    NULL_CONTEXT,
    ExecutionContext,
    KernelLaunch,
    NullContext,
    QueueTimeline,
)
from repro.device.interconnect import (
    LINKS,
    NVLINK,
    PCIE,
    LinkSpec,
    default_link_for,
    get_link,
    p2p_cheaper_than_host,
)
from repro.device.memory import Allocation, MemoryPool
from repro.device.spec import CPU, DEVICES, GB, T4, V100, DeviceSpec, get_device

__all__ = [
    "CPU",
    "DEVICES",
    "GB",
    "LINKS",
    "NULL_CONTEXT",
    "NVLINK",
    "PCIE",
    "T4",
    "V100",
    "Allocation",
    "DeviceSpec",
    "ExecutionContext",
    "KernelLaunch",
    "LinkSpec",
    "MemoryPool",
    "NullContext",
    "QueueTimeline",
    "default_link_for",
    "get_device",
    "get_link",
    "p2p_cheaper_than_host",
]
