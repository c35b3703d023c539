"""Multi-tier feature store: device HBM -> pinned host -> remote/disk.

The flat :class:`~repro.cache.FeatureCache` models exactly two prices
per gathered row: device bandwidth (hit) or UVA-over-PCIe (miss).  Past
HBM scale that is too coarse — the DGL ``unified_tensor`` /
``multi_gpu_datastore`` designs this module mirrors distinguish *where*
a missed row actually lives:

* **device** — rows pinned in this replica's HBM, charged to its
  :class:`~repro.device.MemoryPool` exactly like the flat cache (the
  admission is the same binary-search largest-fitting-prefix,
  :func:`~repro.cache.feature_cache.admit_rows`);
* **p2p** — rows pinned in a *sibling* replica's HBM, fetched over the
  cluster :class:`~repro.device.LinkSpec` when
  :func:`~repro.device.p2p_cheaper_than_host` says the link beats host
  DRAM (NVLink yes, PCIe no).  With p2p on, the fleet's HBM is pooled:
  the top ``num_replicas * plan`` rows are round-robin-striped across
  replicas, so k replicas pin k distinct row sets instead of k copies
  of the same hot band — the aggregate device tier is k times larger;
* **pinned host** — the next-hottest band, resident in pinned host
  DRAM and read zero-copy over PCIe.  Priced through the *same* UVA
  mechanism as the flat cache's misses (the executor charges these
  rows as ``graph_bytes``), so flat-vs-tiered comparisons differ in
  structure, never in the per-byte host price;
* **remote** — the cold tail, behind its own
  :class:`~repro.device.LinkSpec` (a tier fetch *is* a bulk transfer
  over some wire: a disaggregated store, NVMe), charged as a
  ``fixed_seconds`` launch on its own queue so it overlaps the PCIe
  read instead of serializing behind it.

The store only *classifies and counts*; :mod:`repro.cache.store` charges
what it planned, on the queues of the context its consumer hands over.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cache.feature_cache import (
    DEFAULT_CACHE_RATIO,
    CacheStats,
    admit_rows,
)
from repro.cache.ranking import degree_order
from repro.device.interconnect import LinkSpec, p2p_cheaper_than_host
from repro.device.memory import Allocation, MemoryPool
from repro.errors import ShapeError

#: Tier codes in the per-node classification array.
TIER_DEVICE, TIER_P2P, TIER_HOST, TIER_REMOTE = range(4)

#: Fraction of nodes resident in the pinned-host tier by default: the
#: whole non-device remainder, which makes the default tiered store
#: charge-for-charge identical to the flat cache (no remote tail).
DEFAULT_HOST_TIER_RATIO = 1.0

#: Remote/disk tier default: a disaggregated feature service or local
#: NVMe — ~2.5 GB/s sustained reads, ~100 us per fetch (queue + network
#: round trip).  Roughly the paper's "features don't fit" deployments.
REMOTE_TIER = LinkSpec(name="remote", bandwidth=2.5e9, latency=100e-6)


@dataclasses.dataclass(frozen=True)
class GatherSplit:
    """One gather's row counts by serving tier."""

    device_rows: int
    p2p_rows: int
    host_rows: int
    remote_rows: int

    @property
    def total(self) -> int:
        return (
            self.device_rows + self.p2p_rows + self.host_rows + self.remote_rows
        )


class TieredFeatureStore:
    """Degree-ordered feature residency across HBM/p2p/host/remote tiers.

    Parameters
    ----------
    features, scores, pool, tag:
        As for :class:`~repro.cache.FeatureCache`: the ``(N, F)`` host
        feature matrix, a per-node hotness ranking (ties break toward
        lower ids), and the device pool the HBM tier is charged to.
    device_ratio:
        Fraction of nodes *planned* for this replica's HBM tier; the
        binary-search admission pins the largest fitting prefix.
    host_ratio:
        Fraction of nodes in the pinned-host tier (taken from the
        hottest rows not already device/p2p resident).  The default 1.0
        leaves no remote tail.
    remote_tier:
        Price of the cold tail (:data:`REMOTE_TIER` by default).
    link, device, replica_id, num_replicas, p2p:
        The peer-to-peer band.  With ``p2p=True``, more than one
        replica, a link, and a device whose
        :func:`~repro.device.p2p_cheaper_than_host` verdict favors the
        link, the top ``num_replicas * plan`` rows are striped
        round-robin: stride ``replica_id`` is pinned locally, the other
        strides are fetched from their owners over ``link``.  Sibling
        admission is assumed symmetric (every replica runs the same
        pool budget), which is exact for the homogeneous clusters the
        simulator builds.
    """

    def __init__(
        self,
        features: np.ndarray,
        scores: np.ndarray,
        *,
        pool: MemoryPool,
        device_ratio: float = DEFAULT_CACHE_RATIO,
        host_ratio: float = DEFAULT_HOST_TIER_RATIO,
        remote_tier: LinkSpec = REMOTE_TIER,
        link: LinkSpec | None = None,
        device=None,
        replica_id: int = 0,
        num_replicas: int = 1,
        p2p: bool = False,
        tag: str = "feature_store",
    ) -> None:
        if not 0.0 <= device_ratio <= 1.0:
            raise ShapeError(
                f"device tier ratio must be in [0, 1], got {device_ratio}"
            )
        if not 0.0 <= host_ratio <= 1.0:
            raise ShapeError(
                f"host tier ratio must be in [0, 1], got {host_ratio}"
            )
        scores = np.asarray(scores)
        num_nodes = int(features.shape[0])
        if scores.shape != (num_nodes,):
            raise ShapeError(
                f"scores shape {scores.shape} != nodes ({num_nodes},)"
            )
        if not 0 <= replica_id < max(num_replicas, 1):
            raise ShapeError(
                f"replica {replica_id} outside fleet of {num_replicas}"
            )
        self.pool = pool
        self.remote_tier = remote_tier
        self.link = link
        self.row_bytes = int(features.shape[1]) * features.dtype.itemsize
        self.requested_rows = int(round(device_ratio * num_nodes))
        #: Whether the p2p band is actually engaged: asked for, possible
        #: (siblings + link), and cheaper than the host path.
        self.p2p_enabled = bool(
            p2p
            and num_replicas > 1
            and link is not None
            and device is not None
            and p2p_cheaper_than_host(link, device)
        )
        order = degree_order(scores)

        # --- device (+ p2p) band -------------------------------------
        stride = num_replicas if self.p2p_enabled else 1
        band = order[: min(self.requested_rows * stride, num_nodes)]
        local_plan = band[replica_id::stride] if self.p2p_enabled else band
        rows, allocation = admit_rows(
            pool, self.row_bytes, len(local_plan), tag
        )
        self.allocation: Allocation | None = allocation
        self.cached_ids = np.sort(local_plan[:rows])
        self._tier = np.full(num_nodes, TIER_REMOTE, dtype=np.int8)
        self._tier[self.cached_ids] = TIER_DEVICE
        if self.p2p_enabled:
            # Symmetric-admission assumption: each sibling pins the same
            # prefix length of its own stride.
            for peer in range(num_replicas):
                if peer == replica_id:
                    continue
                self._tier[band[peer::stride][:rows]] = TIER_P2P

        # --- pinned-host band, then the remote tail ------------------
        host_budget = int(round(host_ratio * num_nodes))
        unassigned = order[self._tier[order] == TIER_REMOTE]
        self.host_ids = np.sort(unassigned[:host_budget])
        self._tier[self.host_ids] = TIER_HOST

        self._device_hits = 0
        self._p2p_hits = 0
        self._host_hits = 0
        self._remote_hits = 0
        self._invalidated = 0

    # ------------------------------------------------------------------
    @property
    def cached_rows(self) -> int:
        """Locally device-resident rows (the re-replication payload)."""
        return len(self.cached_ids)

    @property
    def cached_bytes(self) -> int:
        return self.allocation.nbytes if self.allocation is not None else 0

    @property
    def host_rows(self) -> int:
        return len(self.host_ids)

    def split(self, nodes: np.ndarray) -> GatherSplit:
        """Per-tier row counts for one gather, without recording them.

        Duplicates count once per occurrence, and an empty gather is a
        legal no-op — same contract as the flat cache's ``split``.
        """
        nodes = np.asarray(nodes)
        if nodes.size == 0:
            return GatherSplit(0, 0, 0, 0)
        counts = np.bincount(self._tier[nodes], minlength=4)
        return GatherSplit(
            device_rows=int(counts[TIER_DEVICE]),
            p2p_rows=int(counts[TIER_P2P]),
            host_rows=int(counts[TIER_HOST]),
            remote_rows=int(counts[TIER_REMOTE]),
        )

    def record_gather(self, nodes: np.ndarray) -> GatherSplit:
        """Split one gather by tier and add it to the epoch tally."""
        split = self.split(nodes)
        self._device_hits += split.device_rows
        self._p2p_hits += split.p2p_rows
        self._host_hits += split.host_rows
        self._remote_hits += split.remote_rows
        return split

    def invalidate(self, rows: np.ndarray) -> int:
        """Demote the device/p2p-resident subset of ``rows`` to host.

        The delta path, mirrored from :meth:`FeatureCache.invalidate`:
        mutated rows fall out of the HBM band (their bytes are still in
        host DRAM, so they land in the pinned-host tier, same fallback
        as :meth:`release`).  The p2p stripe is fleet-symmetric, so a
        sibling's entry for the same row is demoted here too — every
        replica applies the same deltas and reaches the same verdict.
        Returns the count of *locally* pinned rows demoted, which is
        what accumulates in :attr:`CacheStats.invalidated_rows`; the
        device allocation itself is left pinned (tombstoned slots, no
        pool traffic).
        """
        rows = np.asarray(rows)
        if rows.size == 0:
            return 0
        rows = rows.astype(np.int64, copy=False)
        tiers = self._tier[rows]
        local = np.unique(rows[tiers == TIER_DEVICE])
        peer = np.unique(rows[tiers == TIER_P2P])
        if local.size == 0 and peer.size == 0:
            return 0
        self._tier[local] = TIER_HOST
        self._tier[peer] = TIER_HOST
        if local.size:
            keep = self._tier[self.cached_ids] == TIER_DEVICE
            self.cached_ids = self.cached_ids[keep]
        self.host_ids = np.sort(
            np.concatenate([self.host_ids, local, peer])
        )
        self._invalidated += int(local.size)
        return int(local.size)

    def epoch_stats(self) -> CacheStats:
        """Snapshot with the flat-compatible hit/miss semantics.

        ``hits`` counts device-resident lookups only (served at device
        bandwidth, same meaning as the flat cache); everything else is a
        ``miss``, broken down by the tier that answered it.
        """
        return CacheStats(
            cached_rows=self.cached_rows,
            requested_rows=self.requested_rows,
            cached_bytes=self.cached_bytes,
            hits=self._device_hits,
            misses=self._p2p_hits + self._host_hits + self._remote_hits,
            p2p_hits=self._p2p_hits,
            host_hits=self._host_hits,
            remote_hits=self._remote_hits,
            host_rows=self.host_rows,
            invalidated_rows=self._invalidated,
        )

    def reset_epoch(self) -> None:
        """Clear the tally (tier residency is static per session)."""
        self._device_hits = 0
        self._p2p_hits = 0
        self._host_hits = 0
        self._remote_hits = 0

    def release(self) -> None:
        """Return the HBM tier to the pool (idempotent).

        Former device rows fall back to the host tier (they are still in
        host DRAM — releasing the pin does not tier them out to remote),
        and ``requested_rows`` clears so ``evicted_rows`` reads 0, same
        as the flat cache.
        """
        if self.allocation is not None:
            self.pool.free(self.allocation)
            self.allocation = None
            self._tier[self.cached_ids] = TIER_HOST
            self.host_ids = np.sort(
                np.concatenate([self.host_ids, self.cached_ids])
            )
            self.cached_ids = self.cached_ids[:0]
            self.requested_rows = 0
