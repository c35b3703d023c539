"""Interconnect link specs: the wires between simulated devices.

Multi-replica serving (``repro.serve.cluster``) places one replica per
simulated device.  When the graph is partitioned across replicas, a
batch routed to its seed shard still samples frontier nodes owned by
*other* shards; those rows must cross a device-to-device link before the
feature fetch can complete.  This module prices that hop the same way
:class:`~repro.device.spec.DeviceSpec` prices a kernel launch — an
analytical model with a per-transfer latency plus a bandwidth term:

    transfer_time(n bytes) = latency + n / bandwidth

Two built-in links mirror the hardware of the paper's testbed
(registered alongside the device specs, with the same ``get_*`` lookup
contract as :func:`~repro.device.spec.get_device`):

* **nvlink** — NVLink 2.0 between V100s (DGX-style): ~150 GB/s per
  direction, sub-microsecond-ish latency;
* **pcie** — PCIe 3.0 x16, the T4/host fallback: ~12 GB/s effective
  (matching ``DeviceSpec.pcie_bandwidth``), higher per-transfer setup
  cost.

The point the cluster benchmark makes is the *ratio*: a partitioned
deployment on PCIe pays ~12x more per cross-shard byte than on NVLink,
so the routing policy that minimizes cross-shard frontier traffic wins
by a wider margin on the slower link.
"""

from __future__ import annotations

import dataclasses

from repro.errors import DeviceError


@dataclasses.dataclass(frozen=True)
class LinkSpec:
    """An analytical model of one device-to-device interconnect."""

    name: str
    #: Sustained bandwidth in bytes/second (per direction).
    bandwidth: float
    #: Fixed per-transfer cost in seconds (handshake, doorbell, DMA setup).
    latency: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0.0:
            raise DeviceError(
                f"{self.name}: link bandwidth must be positive, "
                f"got {self.bandwidth}"
            )
        if self.latency < 0.0:
            raise DeviceError(
                f"{self.name}: link latency must be non-negative, "
                f"got {self.latency}"
            )

    def transfer_time(self, nbytes: float) -> float:
        """Simulated seconds to move ``nbytes`` over this link.

        Zero-byte transfers cost nothing — callers skip the hop entirely
        rather than paying latency for an empty message.
        """
        if nbytes < 0.0:
            raise DeviceError(
                f"{self.name}: cannot transfer {nbytes} bytes"
            )
        if nbytes == 0.0:
            return 0.0
        return self.latency + nbytes / self.bandwidth

    def bulk_transfer_time(
        self, nbytes: float, *, chunk_bytes: float = 64 * 2**20
    ) -> float:
        """Simulated seconds to *stream* ``nbytes`` in bounded chunks.

        Re-replication (a revived or newly activated replica pulling its
        shard, or its warm cache rows, from a peer) does not move one
        giant message: real stacks pipeline bounded DMA chunks, paying
        the per-transfer setup once per chunk.  Modeled as

            ceil(nbytes / chunk_bytes) * latency + nbytes / bandwidth

        which degrades to :meth:`transfer_time` for ``nbytes`` at or
        under one chunk.
        """
        if nbytes < 0.0:
            raise DeviceError(
                f"{self.name}: cannot transfer {nbytes} bytes"
            )
        if chunk_bytes <= 0.0:
            raise DeviceError(
                f"{self.name}: chunk size must be positive, got {chunk_bytes}"
            )
        if nbytes == 0.0:
            return 0.0
        chunks = int(-(-nbytes // chunk_bytes))
        return chunks * self.latency + nbytes / self.bandwidth


#: NVLink 2.0 (V100 generation): 150 GB/s per direction, ~2 us effective
#: per-transfer overhead once the software stack is counted.
NVLINK = LinkSpec(name="nvlink", bandwidth=150e9, latency=2e-6)

#: PCIe 3.0 x16: ~12 GB/s effective (the same figure the device specs use
#: for UVA traffic), ~5 us per-transfer setup.
PCIE = LinkSpec(name="pcie", bandwidth=12e9, latency=5e-6)

_REGISTRY = {spec.name: spec for spec in (NVLINK, PCIE)}

#: Names :func:`get_link` accepts.
LINKS = tuple(_REGISTRY)

#: Which link a multi-device deployment of each device spec would use:
#: V100s ship on NVLink-connected boards (DGX/p3.16xlarge, the paper's
#: testbed); T4s and the host CPU talk over PCIe.
DEFAULT_DEVICE_LINKS = {"v100": "nvlink", "t4": "pcie", "cpu": "pcie"}


def get_link(name: str) -> LinkSpec:
    """Look up a built-in link spec by name (``nvlink``, ``pcie``)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise DeviceError(
            f"unknown link {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def p2p_cheaper_than_host(link: LinkSpec, device) -> bool:
    """Is a peer-HBM fetch over ``link`` cheaper than host DRAM?

    The tiered feature store's p2p decision rule.  The host path is not
    raw PCIe: UVA reads of hot rows hit the device-side access cache, so
    the *effective* per-byte cost of a host-tier row is
    ``(1 - uva_cache_hit_rate) / pcie_bandwidth`` (on a V100, 12 GB/s
    raw becomes ~26.7 GB/s effective).  Peer HBM over the link wins only
    when the link's per-byte cost beats that — true for NVLink
    (150 GB/s), false for a PCIe-switched peer (12 GB/s), which is why
    ``--p2p`` is a no-op on PCIe-wired clusters rather than a slowdown.
    """
    discount = 1.0 - device.uva_cache_hit_rate
    if discount <= 0.0:
        return False  # host reads are effectively free; peer can't win
    host_per_byte = discount / device.pcie_bandwidth
    return 1.0 / link.bandwidth < host_per_byte


def default_link_for(device_name: str) -> LinkSpec:
    """The link a cluster of ``device_name`` devices is wired with."""
    try:
        return get_link(DEFAULT_DEVICE_LINKS[device_name.lower()])
    except KeyError:
        raise DeviceError(
            f"no default interconnect for device {device_name!r}; "
            f"known devices: {sorted(DEFAULT_DEVICE_LINKS)}"
        ) from None
