"""Degree-ordered static feature cache with budgeted device residency.

The cache policy is the one the GNN-systems literature converged on for
skewed graphs (FastGL, NextDoor-adjacent systems): rank nodes by degree
once, pin the feature rows of the top fraction in device memory, and
serve gathers for those rows at device bandwidth instead of over PCIe.
The pinned bytes are charged against the simulated device
:class:`~repro.device.MemoryPool`, so the cache competes with sampling
buffers for the same budget and degrades cleanly when it loses:

* if the requested ratio does not fit, the plan is *evicted* down
  (coldest planned rows dropped first — they are the tail of the degree
  order) until it fits;
* if not even one allocation granule fits, the cache *refuses* — zero
  rows cached, pool left exactly as it was, every gather a miss.

The cache is static per training run (the paper-adjacent systems
pre-compute it from degrees; no per-batch churn), but hit/miss
accounting is kept per epoch so epoch reports can show the hit rate the
executor actually saw.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cache.ranking import degree_order
from repro.device.memory import Allocation, MemoryPool
from repro.errors import MemoryBudgetError, ShapeError

#: Fraction of nodes cached when the caller does not choose one.  At the
#: catalog's skew, 10% of nodes by degree covers well over half of all
#: gathered rows.
DEFAULT_CACHE_RATIO = 0.10


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


@dataclasses.dataclass
class CacheStats:
    """Per-epoch hit/miss accounting snapshot.

    The tier fields default to zero so a flat single-tier
    :class:`FeatureCache` produces exactly the pre-tier snapshot; a
    :class:`~repro.cache.tiered.TieredFeatureStore` breaks its misses
    down by where the row actually lived (``misses`` stays the total of
    all non-device-resident lookups, so ``hit_rate`` keeps meaning
    "served at device bandwidth" across both store kinds).
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
    #: Size of the pinned-host tier, in rows (0 for flat caches).
    host_rows: int = 0
    #: Rows evicted through :meth:`FeatureCache.invalidate` because a
    #: graph delta changed their degree band.  Cumulative over the
    #: cache's lifetime (residency-level, like ``cached_rows``), so it
    #: survives :meth:`FeatureCache.reset_epoch`.
    invalidated_rows: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def tier_rate(self, tier: str) -> float:
        """Fraction of lookups answered by ``tier``.

        ``tier`` is one of ``device``/``p2p``/``host``/``remote``; the
        four rates sum to 1 for a tiered store (a flat cache has
        everything outside ``device`` folded into ``host``-free
        ``misses``, so only ``device`` is meaningful there).
        """
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

        A released cache reports zero here: :meth:`FeatureCache.release`
        clears ``requested_rows`` along with the pinned rows, so a
        voluntary teardown is never mistaken for budget pressure.
        """
        return self.requested_rows - self.cached_rows

    @classmethod
    def merged(cls, stats: "list[CacheStats | None]") -> "CacheStats | None":
        """Sum per-replica snapshots into one cluster-level snapshot.

        Each serving replica owns its own cache; the cluster report's
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


class FeatureCache:
    """Static device-resident cache over a feature matrix's hot rows.

    Parameters
    ----------
    features:
        The ``(N, F)`` feature matrix being cached (host copy; the cache
        only models device residency, it never duplicates the array).
    scores:
        Per-node hotness, length ``N`` — degrees in the standard policy.
        Ties break toward lower node ids for determinism.
    ratio:
        Fraction of nodes to pin, in ``[0, 1]``.
    pool:
        Device memory pool the pinned bytes are charged to.
    """

    def __init__(
        self,
        features: np.ndarray,
        scores: np.ndarray,
        *,
        ratio: float = DEFAULT_CACHE_RATIO,
        pool: MemoryPool,
        owned_mask: np.ndarray | None = None,
        tag: str = "feature_cache",
    ) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise ShapeError(f"cache ratio must be in [0, 1], got {ratio}")
        scores = np.asarray(scores)
        if scores.shape != (features.shape[0],):
            raise ShapeError(
                f"scores shape {scores.shape} != nodes ({features.shape[0]},)"
            )
        self.ratio = ratio
        self.pool = pool
        self.row_bytes = int(features.shape[1]) * features.dtype.itemsize
        self.requested_rows = int(round(ratio * features.shape[0]))
        self._owned_mask = (
            None if owned_mask is None else np.asarray(owned_mask, dtype=bool)
        )
        order = degree_order(scores, owned_mask=self._owned_mask)
        rows, allocation = self._admit(order, self.requested_rows, tag)
        self.allocation: Allocation | None = allocation
        #: Rows the admission actually pinned — the refill ceiling for
        #: :meth:`rerank` (the allocation's byte size over-counts by up
        #: to one pool granule of rounding).
        self._admitted_rows = rows
        self.cached_ids = np.sort(order[:rows])
        self._is_cached = np.zeros(features.shape[0], dtype=bool)
        self._is_cached[self.cached_ids] = True
        self._hits = 0
        self._misses = 0
        self._invalidated = 0

    # ------------------------------------------------------------------
    def _admit(
        self, order: np.ndarray, want: int, tag: str
    ) -> tuple[int, Allocation | None]:
        """Pin the largest degree-ordered prefix of ``want`` that fits.

        Eviction is from the cold tail, boundary found by binary search
        (:func:`admit_rows`); a pool that cannot take a single granule
        leaves the cache empty and the pool untouched.
        """
        return admit_rows(self.pool, self.row_bytes, min(want, len(order)), tag)

    # ------------------------------------------------------------------
    @property
    def cached_rows(self) -> int:
        return len(self.cached_ids)

    @property
    def cached_bytes(self) -> int:
        return self.allocation.nbytes if self.allocation is not None else 0

    def split(self, nodes: np.ndarray) -> tuple[int, int]:
        """``(hits, misses)`` for one gather, without recording them.

        Duplicate node ids count once per occurrence — a gather that
        reads the same row twice moves its bytes twice.  An empty node
        array is a legal no-op gather: ``(0, 0)`` (and never indexes the
        residency mask, so the float64 dtype NumPy gives ``[]`` by
        default cannot poison the fancy index).
        """
        nodes = np.asarray(nodes)
        if nodes.size == 0:
            return 0, 0
        hits = int(np.count_nonzero(self._is_cached[nodes]))
        return hits, int(nodes.size) - hits

    def record_gather(self, nodes: np.ndarray) -> tuple[int, int]:
        """Split one gather into hits/misses and add to the epoch tally."""
        hits, misses = self.split(nodes)
        self._hits += hits
        self._misses += misses
        return hits, misses

    def invalidate(self, rows: np.ndarray) -> int:
        """Evict the cached subset of ``rows``; returns the count.

        The delta path: when streamed edges change a node's degree, its
        seed-time band is wrong, so the row is dropped from residency
        (subsequent gathers miss) until :meth:`rerank` refills the
        slots.  The device allocation is *not* shrunk — the slots are
        tombstoned, exactly like a real pinned-buffer cache — so
        invalidation never perturbs the :class:`~repro.device.MemoryPool`
        ledger mid-session.  Evictions accumulate in
        :attr:`CacheStats.invalidated_rows`.
        """
        rows = np.asarray(rows)
        if rows.size == 0:
            return 0
        rows = rows.astype(np.int64, copy=False)
        victims = np.unique(rows[self._is_cached[rows]])
        if victims.size == 0:
            return 0
        self._is_cached[victims] = False
        self.cached_ids = self.cached_ids[self._is_cached[self.cached_ids]]
        self._invalidated += int(victims.size)
        return int(victims.size)

    def rerank(self, scores: np.ndarray) -> int:
        """Re-rank residency against fresh ``scores`` (live degrees).

        Refills the pinned slots — including any tombstoned by
        :meth:`invalidate` — with the hottest rows under the new
        ranking, up to the capacity of the existing allocation (no pool
        traffic; the budget decision from admission time stands).  The
        construction-time ``owned_mask`` keeps applying, so sharded
        replicas keep preferring owned rows.  Returns the number of
        resident rows after the refill.
        """
        scores = np.asarray(scores)
        if scores.shape != self._is_cached.shape:
            raise ShapeError(
                f"scores shape {scores.shape} != nodes "
                f"{self._is_cached.shape}"
            )
        capacity = self._admitted_rows if self.allocation is not None else 0
        order = degree_order(scores, owned_mask=self._owned_mask)
        self.cached_ids = np.sort(order[:capacity])
        self._is_cached[:] = False
        self._is_cached[self.cached_ids] = True
        return int(self.cached_ids.size)

    def epoch_stats(self) -> CacheStats:
        return CacheStats(
            cached_rows=self.cached_rows,
            requested_rows=self.requested_rows,
            cached_bytes=self.cached_bytes,
            hits=self._hits,
            misses=self._misses,
            invalidated_rows=self._invalidated,
        )

    def reset_epoch(self) -> None:
        """Clear the hit/miss tally (cache contents are static)."""
        self._hits = 0
        self._misses = 0

    def release(self) -> None:
        """Return the pinned bytes to the pool (idempotent).

        Also clears ``requested_rows``: a released cache wants nothing,
        so :attr:`CacheStats.evicted_rows` reads 0 afterwards instead of
        reporting the whole plan as if the budget had refused it.
        """
        if self.allocation is not None:
            self.pool.free(self.allocation)
            self.allocation = None
            self.cached_ids = self.cached_ids[:0]
            self._is_cached[:] = False
            self.requested_rows = 0
