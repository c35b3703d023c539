"""The feature store: degree-ordered residency across HBM, p2p, host, remote.

The policy is the one the GNN-systems literature converged on for skewed
graphs (FastGL, NextDoor-adjacent systems): rank nodes by degree once,
pin the feature rows of the top fraction in device memory, and serve
gathers for those rows at device bandwidth instead of over PCIe.  Past
HBM scale two prices per row (hit or miss) are too coarse, so — as the
DGL ``unified_tensor`` / ``multi_gpu_datastore`` designs do — the store
also says *where* a missed row lives:

* **device** — rows pinned in this replica's HBM, charged to its
  :class:`~repro.device.MemoryPool`.  If the plan does not fit it is
  evicted down from the cold tail (:func:`admit_rows` finds the largest
  fitting prefix); if not one granule fits the store *refuses* — zero
  rows pinned, pool left exactly as it was;
* **p2p** — rows pinned in a *sibling* replica's HBM, fetched over the
  cluster :class:`~repro.device.LinkSpec` when
  :func:`~repro.device.p2p_cheaper_than_host` says the link beats host
  DRAM (NVLink yes, PCIe no).  With p2p on, the fleet's HBM is pooled:
  the top ``num_replicas * plan`` rows are round-robin-striped across
  replicas, so k replicas pin k distinct row sets instead of k copies
  of the same hot band — the aggregate device tier is k times larger;
* **pinned host** — the next-hottest band, resident in pinned host
  DRAM and read zero-copy over PCIe (the executor charges these rows
  as UVA ``graph_bytes``);
* **remote** — the cold tail, behind :data:`REMOTE_TIER` (a tier fetch
  *is* a bulk transfer over some wire: a disaggregated store, NVMe),
  charged as a ``fixed_seconds`` launch on its own queue so it
  overlaps the PCIe read instead of serializing behind it.

A flat cache is the ``host_ratio=1.0``, p2p-off case: every row is a
device hit or a host miss.  Residency is static per session apart from
the delta path (:meth:`TieredFeatureStore.invalidate` /
:meth:`~TieredFeatureStore.rerank`), but the tally is kept per epoch so
reports show the hit rate the consumer actually saw.  The store only
*classifies and counts*; :mod:`repro.cache.store` charges what it
planned, on the queues of the context its consumer hands over.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cache.gather import GatherPlan
from repro.cache.ranking import degree_order
from repro.device.interconnect import LinkSpec, p2p_cheaper_than_host
from repro.device.memory import Allocation, MemoryPool
from repro.errors import MemoryBudgetError, ShapeError, check_real

#: Fraction of nodes planned for HBM when the caller does not choose
#: one.  At the catalog's skew, 10% of nodes by degree covers well over
#: half of all gathered rows.
DEFAULT_CACHE_RATIO = 0.10

#: Fraction of nodes resident in the pinned-host tier by default: the
#: whole non-device remainder, i.e. no remote tail — the flat cache.
DEFAULT_HOST_TIER_RATIO = 1.0

#: Remote/disk tier: a disaggregated feature service or local NVMe —
#: ~2.5 GB/s sustained reads, ~100 us per fetch (queue + network round
#: trip).  Roughly the paper's "features don't fit" deployments.
REMOTE_TIER = LinkSpec(name="remote", bandwidth=2.5e9, latency=100e-6)

#: Tier codes in the per-node classification array.
TIER_DEVICE, TIER_P2P, TIER_HOST, TIER_REMOTE = range(4)


def admit_rows(
    pool: MemoryPool, row_bytes: int, want: int, tag: str
) -> tuple[int, Allocation | None]:
    """Pin the largest row count ``<= want`` whose bytes fit in ``pool``.

    The common case — the full plan fits — is a single allocation.  Under
    a tight budget the boundary is found by binary search between the
    last failing and first fitting size, so the result is the *largest*
    fitting count, not an up-to-2x-smaller halving artifact.  Probe
    allocations are freed (and the probe's cached block trimmed) before
    the next probe, so a failure leaves the pool exactly as it was and
    success leaves exactly one live allocation.
    """
    rows = want
    if rows <= 0:
        return 0, None
    try:
        return rows, pool.alloc(rows * row_bytes, tag=tag)
    except MemoryBudgetError:
        pass
    # Invariant: lo fits (zero rows fit vacuously), hi does not.
    lo, hi = 0, rows
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            probe = pool.alloc(mid * row_bytes, tag=tag)
        except MemoryBudgetError:
            hi = mid
            continue
        pool.free(probe)
        pool.trim()
        lo = mid
    if lo == 0:
        return 0, None
    return lo, pool.alloc(lo * row_bytes, tag=tag)


def _check_scores(scores: np.ndarray, num_nodes: int) -> None:
    shape = np.shape(scores)
    if shape != (num_nodes,):
        raise ShapeError(f"scores shape {shape} != nodes ({num_nodes},)")


@dataclasses.dataclass
class CacheStats:
    """Per-epoch lookup accounting snapshot.

    ``hits`` counts device-resident lookups (served at device
    bandwidth); ``misses`` is every other lookup, broken down by the
    tier that answered it, so the four :meth:`tier_rate` values sum to 1.
    """

    cached_rows: int
    requested_rows: int
    cached_bytes: int
    hits: int
    misses: int
    #: Rows served from a sibling replica's HBM over the interconnect.
    p2p_hits: int = 0
    #: Rows served from the pinned-host tier (PCIe zero-copy reads).
    host_hits: int = 0
    #: Rows served from the remote/disk tier.
    remote_hits: int = 0
    #: Size of the pinned-host tier, in rows.
    host_rows: int = 0
    #: Rows evicted through :meth:`TieredFeatureStore.invalidate` because
    #: a graph delta changed their degree band.  Cumulative over the
    #: store's lifetime (residency-level, like ``cached_rows``), so it
    #: survives :meth:`TieredFeatureStore.reset_epoch`.
    invalidated_rows: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def tier_rate(self, tier: str) -> float:
        """Fraction of lookups answered by ``tier``, one of
        ``device``/``p2p``/``host``/``remote``."""
        total = self.lookups
        if not total:
            return 0.0
        counts = {
            "device": self.hits,
            "p2p": self.p2p_hits,
            "host": self.host_hits,
            "remote": self.remote_hits,
        }
        return counts[tier] / total

    @property
    def evicted_rows(self) -> int:
        """Rows the requested ratio wanted but the budget refused.

        A released store reports zero here: :meth:`~TieredFeatureStore.release`
        clears ``requested_rows`` along with the pinned rows, so a
        voluntary teardown is never mistaken for budget pressure.
        """
        return self.requested_rows - self.cached_rows

    @classmethod
    def merged(cls, stats: "list[CacheStats | None]") -> "CacheStats | None":
        """Sum per-replica snapshots into one cluster-level snapshot.

        Each serving replica owns its own store; the cluster report's
        hit rate is the traffic-weighted aggregate, which summing hits
        and misses computes exactly.  ``None`` entries (cache-disabled
        replicas) are skipped; all-``None`` input merges to ``None``.
        """
        present = [s for s in stats if s is not None]
        if not present:
            return None
        return cls(
            cached_rows=sum(s.cached_rows for s in present),
            requested_rows=sum(s.requested_rows for s in present),
            cached_bytes=sum(s.cached_bytes for s in present),
            hits=sum(s.hits for s in present),
            misses=sum(s.misses for s in present),
            p2p_hits=sum(s.p2p_hits for s in present),
            host_hits=sum(s.host_hits for s in present),
            remote_hits=sum(s.remote_hits for s in present),
            host_rows=sum(s.host_rows for s in present),
            invalidated_rows=sum(s.invalidated_rows for s in present),
        )


class TieredFeatureStore:
    """Degree-ordered feature residency across HBM/p2p/host/remote tiers.

    Parameters
    ----------
    features, scores:
        The ``(N, F)`` host feature matrix (the store only models
        residency, it never duplicates the array) and a per-node hotness
        ranking — degrees in the standard policy; ties break toward
        lower ids.
    pool:
        Device memory pool the HBM tier is charged to.
    device_ratio:
        Fraction of nodes *planned* for this replica's HBM tier, in
        ``[0, 1]``; the admission pins the largest fitting prefix.
    host_ratio:
        Fraction of nodes in the pinned-host tier (taken from the
        hottest rows not already device/p2p resident).  The default 1.0
        leaves no remote tail.
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
    owned_mask:
        A sharded replica's owned rows, ranked above every other row
        (:func:`~repro.cache.ranking.degree_order`).  Refused with an
        engaged p2p stripe, which needs one fleet-wide ranking.
    """

    def __init__(
        self,
        features: np.ndarray,
        scores: np.ndarray,
        *,
        pool: MemoryPool,
        device_ratio: float = DEFAULT_CACHE_RATIO,
        host_ratio: float = DEFAULT_HOST_TIER_RATIO,
        link: LinkSpec | None = None,
        device=None,
        replica_id: int = 0,
        num_replicas: int = 1,
        p2p: bool = False,
        owned_mask: np.ndarray | None = None,
    ) -> None:
        check_real("device tier ratio", device_ratio, "[0, 1]")
        check_real("host tier ratio", host_ratio, "[0, 1]")
        num_nodes = int(features.shape[0])
        _check_scores(scores, num_nodes)
        if not 0 <= replica_id < max(num_replicas, 1):
            raise ShapeError(
                f"replica {replica_id} outside fleet of {num_replicas}"
            )
        self.pool = pool
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
        if owned_mask is not None:
            self._refuse_if_striped("an owned-rows ranking")
            owned_mask = np.asarray(owned_mask, dtype=bool)
        self._owned_mask = owned_mask
        self._host_budget = int(round(host_ratio * num_nodes))
        order = degree_order(scores, owned_mask=owned_mask)

        stride = num_replicas if self.p2p_enabled else 1
        band = order[: min(self.requested_rows * stride, num_nodes)]
        local_plan = band[replica_id::stride] if self.p2p_enabled else band
        rows, self.allocation = admit_rows(
            pool, self.row_bytes, len(local_plan), "feature_store"
        )
        #: Rows the admission actually pinned — the refill ceiling for
        #: :meth:`rerank` (the allocation's byte size over-counts by up
        #: to one pool granule of rounding).
        self._admitted_rows = rows
        # Symmetric-admission assumption: each sibling pins the same
        # prefix length of its own stride.
        peers = [
            band[peer::stride][:rows]
            for peer in range(num_replicas)
            if self.p2p_enabled and peer != replica_id
        ]
        self._place(order, local_plan[:rows], peers)

        self._device_hits = 0
        self._p2p_hits = 0
        self._host_hits = 0
        self._remote_hits = 0
        self._invalidated = 0

    # ------------------------------------------------------------------
    def _refuse_if_striped(self, what: str) -> None:
        if self.p2p_enabled:
            raise ShapeError(
                f"{what} cannot apply to the p2p stripe, which needs one "
                "fleet-wide ranking"
            )

    def _place(
        self, order: np.ndarray, local: np.ndarray, peers: list[np.ndarray]
    ) -> None:
        """Classify every node: ``local`` on device, ``peers`` over p2p,
        the hottest ``host_ratio`` of the rest in host, the tail remote."""
        tier = np.full(len(order), TIER_REMOTE, dtype=np.int8)
        tier[local] = TIER_DEVICE
        for rows in peers:
            tier[rows] = TIER_P2P
        host = order[tier[order] == TIER_REMOTE][: self._host_budget]
        tier[host] = TIER_HOST
        self._tier = tier
        self.cached_ids = np.sort(local)
        self.host_ids = np.sort(host)

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

    def split(self, nodes: np.ndarray) -> GatherPlan:
        """One gather's rows by serving tier, without recording them.

        Duplicate node ids count once per occurrence — a gather that
        reads the same row twice moves its bytes twice.  An empty node
        array is a legal no-op gather (and never indexes the tier array,
        so the float64 dtype NumPy gives ``[]`` cannot poison the fancy
        index).
        """
        nodes = np.asarray(nodes)
        if nodes.size == 0:
            return GatherPlan(gathered=0, host_rows=0)
        device, p2p, host, remote = np.bincount(
            self._tier[nodes], minlength=4
        ).tolist()
        return GatherPlan(
            gathered=device + host,
            host_rows=host,
            remote_rows=remote,
            p2p_rows=p2p,
        )

    def record_gather(self, nodes: np.ndarray) -> GatherPlan:
        """Split one gather by tier and add it to the epoch tally."""
        plan = self.split(nodes)
        self._device_hits += plan.device_rows
        self._p2p_hits += plan.p2p_rows
        self._host_hits += plan.host_rows
        self._remote_hits += plan.remote_rows
        return plan

    def invalidate(self, rows: np.ndarray) -> int:
        """Demote the device/p2p-resident subset of ``rows`` to host.

        The delta path: when streamed edges change a node's degree, its
        seed-time band is wrong, so the row falls out of the HBM band
        (its bytes are still in host DRAM, so it lands in the pinned-host
        tier, same fallback as :meth:`release`) until :meth:`rerank`
        refills the slot.  The p2p stripe is fleet-symmetric, so a
        sibling's entry for the same row is demoted here too — every
        replica applies the same deltas and reaches the same verdict.
        Returns the count of *locally* pinned rows demoted, which is
        what accumulates in :attr:`CacheStats.invalidated_rows`; the
        device allocation itself is left pinned (tombstoned slots, no
        pool traffic), so the :class:`~repro.device.MemoryPool` ledger
        never moves mid-session.
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

    def rerank(self, scores: np.ndarray) -> int:
        """Re-rank residency against fresh ``scores`` (live degrees).

        Refills the pinned slots — including any tombstoned by
        :meth:`invalidate` — with the hottest rows under the new
        ranking, up to the capacity of the existing allocation (no pool
        traffic; the budget decision from admission time stands), and
        re-draws the host band behind them.  The construction-time
        ``owned_mask`` keeps applying, so sharded replicas keep
        preferring owned rows.  A striped store cannot re-rank alone.
        Returns the number of resident rows after the refill.
        """
        self._refuse_if_striped("a re-rank")
        _check_scores(scores, len(self._tier))
        capacity = self._admitted_rows if self.allocation is not None else 0
        order = degree_order(scores, owned_mask=self._owned_mask)
        self._place(order, order[:capacity], [])
        return self.cached_rows

    def epoch_stats(self) -> CacheStats:
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
        """Clear the tally (residency is untouched)."""
        self._device_hits = 0
        self._p2p_hits = 0
        self._host_hits = 0
        self._remote_hits = 0

    def release(self) -> None:
        """Return the HBM tier to the pool (idempotent).

        Former device rows fall back to the host tier (they are still in
        host DRAM — releasing the pin does not tier them out to remote),
        and ``requested_rows`` clears so ``evicted_rows`` reads 0.
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
