"""Device specifications for the analytical performance simulator.

The paper evaluates gSampler on NVIDIA V100 and T4 GPUs (Section 5.1), with
graphs either resident in GPU memory or kept in CPU memory and accessed via
Unified Virtual Addressing (UVA) over PCIe.  This module captures the
hardware quantities the evaluation depends on:

* memory bandwidth (the paper notes T4 has 30.0% of V100's bandwidth),
* peak FLOPs (T4 has 51.6% of V100's),
* kernel launch overhead (what super-batching amortizes),
* the task count needed to saturate the device (what Figure 6 sweeps),
* PCIe bandwidth and a hot-node cache rate for UVA access.

Absolute constants are an approximation of the real parts; the benchmarks
only rely on the *ratios*, which follow the paper's stated numbers.
"""

from __future__ import annotations

import dataclasses

from repro.errors import DeviceError

#: Bytes per gigabyte, used by the specs below.
GB = 1024**3


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """An analytical model of one execution device.

    The simulated execution time of a kernel launch is::

        overhead + max(bytes / eff_bandwidth, flops / eff_flops) * divergence

    where the effective rates scale with occupancy: a launch with fewer
    tasks than ``saturation_tasks`` only reaches a proportional fraction of
    peak, floored at ``min_occupancy`` (small kernels still make progress).
    """

    name: str
    #: Peak memory bandwidth in bytes/second.
    bandwidth: float
    #: Peak arithmetic throughput in FLOP/second.
    flops: float
    #: Fixed cost of launching one kernel, in seconds.
    launch_overhead: float
    #: Number of parallel tasks needed to fully occupy the device.
    saturation_tasks: int
    #: Occupancy floor for tiny launches.
    min_occupancy: float
    #: Device memory capacity in bytes (graphs larger than this spill to
    #: host memory and are accessed via UVA).
    memory_capacity: int
    #: Host-to-device bandwidth for UVA access, bytes/second. ``None``
    #: means the device *is* the host (CPU) and UVA does not apply.
    pcie_bandwidth: float | None = None
    #: Fraction of UVA traffic served by on-device caching of hot nodes.
    #: The paper observes skewed access lets popular adjacency lists stay
    #: cached, reducing PCIe traffic.
    uva_cache_hit_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.flops <= 0:
            raise DeviceError(f"{self.name}: bandwidth and flops must be positive")
        if not 0.0 < self.min_occupancy <= 1.0:
            raise DeviceError(f"{self.name}: min_occupancy must be in (0, 1]")
        if not 0.0 <= self.uva_cache_hit_rate < 1.0:
            raise DeviceError(f"{self.name}: uva_cache_hit_rate must be in [0, 1)")

    def occupancy(self, tasks: int) -> float:
        """Fraction of peak throughput reached by a launch of ``tasks``."""
        if tasks <= 0:
            return self.min_occupancy
        return min(1.0, max(self.min_occupancy, tasks / self.saturation_tasks))

    def kernel_time(
        self,
        *,
        bytes_moved: float,
        flops: float,
        tasks: int,
        divergence: float = 1.0,
        uva_bytes: float = 0.0,
    ) -> float:
        """Simulated wall time in seconds for one kernel launch.

        ``uva_bytes`` is the subset of traffic that crosses PCIe (graph data
        resident in host memory); it is charged at PCIe bandwidth after
        applying the hot-node cache hit rate.
        """
        occ = self.occupancy(tasks)
        mem_time = bytes_moved / (self.bandwidth * occ)
        compute_time = flops / (self.flops * occ)
        uva_time = 0.0
        if uva_bytes > 0.0:
            if self.pcie_bandwidth is None:
                # Host-resident device: "UVA" bytes are ordinary memory
                # traffic.
                mem_time += uva_bytes / (self.bandwidth * occ)
            else:
                effective = uva_bytes * (1.0 - self.uva_cache_hit_rate)
                uva_time = effective / self.pcie_bandwidth
        return self.launch_overhead + max(mem_time, compute_time) * divergence + uva_time


#: NVIDIA V100 (p3.16xlarge in the paper): 900 GB/s HBM2, ~14 TFLOPs FP32,
#: 16 GB memory.
V100 = DeviceSpec(
    name="v100",
    bandwidth=900e9,
    flops=14e12,
    launch_overhead=5e-6,
    saturation_tasks=160_000,
    min_occupancy=0.02,
    memory_capacity=16 * GB,
    pcie_bandwidth=12e9,
    uva_cache_hit_rate=0.55,
)

#: NVIDIA T4: the paper states 30.0% of V100's bandwidth and 51.6% of its
#: FLOPs, with the same 16 GB capacity.
T4 = DeviceSpec(
    name="t4",
    bandwidth=0.300 * 900e9,
    flops=0.516 * 14e12,
    launch_overhead=5e-6,
    saturation_tasks=65_000,
    min_occupancy=0.02,
    memory_capacity=16 * GB,
    pcie_bandwidth=12e9,
    uva_cache_hit_rate=0.55,
)

#: Host CPU (64 vCPU Xeon in the paper). Graph sampling on CPU is bound
#: by random-access memory latency (pointer chasing through adjacency
#: lists), not peak STREAM bandwidth, so the effective bandwidth here is
#: the random-access figure (~2 GB/s) and the FLOP rate reflects the
#: per-element branching of sampling loops. This is what makes GPU
#: sampling 1-2 orders of magnitude faster, as the paper observes.
CPU = DeviceSpec(
    name="cpu",
    bandwidth=0.5e9,
    flops=0.02e12,
    launch_overhead=2e-6,
    saturation_tasks=64,
    min_occupancy=0.25,
    memory_capacity=488 * GB,
    pcie_bandwidth=None,
)

_REGISTRY = {spec.name: spec for spec in (V100, T4, CPU)}

#: Names :func:`get_device` accepts.
DEVICES = tuple(_REGISTRY)


def get_device(name: str) -> DeviceSpec:
    """Look up a built-in device spec by name (``v100``, ``t4``, ``cpu``).

    Each device is registered alongside a default interconnect for
    multi-device deployments (`repro.device.interconnect`): V100s pair
    over NVLink, T4 and CPU over PCIe.  Use
    :func:`~repro.device.interconnect.default_link_for` (same name
    lookup) for the matching :class:`~repro.device.interconnect.LinkSpec`.
    """
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise DeviceError(
            f"unknown device {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
