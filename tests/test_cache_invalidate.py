"""Shared ranking helper + delta-driven cache invalidation.

Covers the two residency-policy pieces the dynamic-graph path leans on:

* :mod:`repro.cache.ranking` — the degree-order ranking the feature
  store pins along, including the ``owned_mask`` demotion;
* :meth:`TieredFeatureStore.invalidate` / :meth:`TieredFeatureStore.rerank`,
  flat and tiered — the hooks the cluster simulator calls when a graph
  snapshot installs, with the :attr:`CacheStats.invalidated_rows`
  accounting that surfaces in serve reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import CacheStats, TieredFeatureStore
from repro.cache.ranking import degree_order, graph_degrees
from repro.cache.tiered import TIER_DEVICE, TIER_HOST, TIER_P2P
from repro.core.matrix import from_edges
from repro.device import NVLINK, V100, MemoryPool
from repro.errors import ShapeError


def _features(n=100, f=16):
    return np.ones((n, f), dtype=np.float32)


def _cache(scores=None, *, ratio=0.2, owned_mask=None, pool=None):
    scores = np.arange(100.0) if scores is None else scores
    return TieredFeatureStore(
        _features(),
        scores,
        device_ratio=ratio,
        pool=MemoryPool() if pool is None else pool,
        owned_mask=owned_mask,
    )


# ----------------------------------------------------------------------
# repro.cache.ranking
# ----------------------------------------------------------------------
class TestDegreeOrder:
    def test_descending_with_stable_ties(self):
        order = degree_order(np.array([3.0, 1.0, 3.0, 5.0]))
        # Hottest first; equal scores break toward the lower node id.
        np.testing.assert_array_equal(order, [3, 0, 2, 1])

    def test_owned_mask_demotes_non_owned_below_every_owned(self):
        scores = np.array([9.0, 0.0, 5.0, 7.0])
        owned = np.array([False, True, True, False])
        order = degree_order(scores, owned_mask=owned)
        # Owned rows (2 then 1, by score) precede all non-owned rows
        # (0 then 3, stable among the demoted ties).
        np.testing.assert_array_equal(order, [2, 1, 0, 3])

    def test_owned_mask_shape_mismatch(self):
        with pytest.raises(ShapeError, match="owned mask shape"):
            degree_order(np.arange(4.0), owned_mask=np.ones(3, dtype=bool))

    def test_input_never_mutated(self):
        scores = np.arange(5.0)
        owned = np.array([True, False, True, False, True])
        degree_order(scores, owned_mask=owned)
        np.testing.assert_array_equal(scores, np.arange(5.0))

    def test_graph_degrees_are_csc_column_degrees(self):
        src = np.array([0, 1, 2, 3, 0, 1])
        dst = np.array([1, 1, 2, 0, 3, 3])
        graph = from_edges(src, dst, 4, layout="csc")
        np.testing.assert_array_equal(
            graph_degrees(graph), np.diff(graph.get("csc").indptr)
        )


# ----------------------------------------------------------------------
# invalidate / rerank on the flat store (host_ratio=1.0, p2p off)
# ----------------------------------------------------------------------
class TestFlatStoreInvalidate:
    def test_invalidated_rows_miss_afterwards(self):
        cache = _cache()  # scores = arange -> cached ids 80..99
        np.testing.assert_array_equal(cache.cached_ids, np.arange(80, 100))
        assert cache.invalidate(np.array([85, 90])) == 2
        assert 85 not in cache.cached_ids and 90 not in cache.cached_ids
        plan = cache.split(np.array([85, 90, 99]))
        assert (plan.device_rows, plan.host_rows) == (1, 2)
        assert cache.epoch_stats().invalidated_rows == 2

    def test_uncached_rows_are_free(self):
        cache = _cache()
        assert cache.invalidate(np.array([0, 1, 2])) == 0
        assert cache.invalidate(np.array([], dtype=np.int64)) == 0
        assert cache.epoch_stats().invalidated_rows == 0

    def test_duplicates_count_once_and_repeats_are_idempotent(self):
        cache = _cache()
        assert cache.invalidate(np.array([85, 85, 85, 3])) == 1
        assert cache.invalidate(np.array([85])) == 0
        assert cache.epoch_stats().invalidated_rows == 1

    def test_accounting_survives_reset_epoch(self):
        cache = _cache()
        cache.record_gather(np.array([85, 3]))
        cache.invalidate(np.array([85]))
        cache.reset_epoch()
        stats = cache.epoch_stats()
        assert stats.hits == 0 and stats.misses == 0
        assert stats.invalidated_rows == 1

    def test_allocation_stays_pinned(self):
        # Tombstoned slots: the pool ledger must not move.
        pool = MemoryPool()
        cache = _cache(pool=pool)
        before = (pool.live_bytes, cache.cached_bytes)
        cache.invalidate(np.array([80, 81, 82]))
        assert (pool.live_bytes, cache.cached_bytes) == before

    def test_rerank_refills_tombstoned_slots(self):
        cache = _cache()
        cache.invalidate(np.array([80, 81, 82]))
        assert cache.cached_rows == 17
        assert cache.rerank(np.arange(100.0)) == 20
        np.testing.assert_array_equal(cache.cached_ids, np.arange(80, 100))
        assert cache.record_gather(np.array([80, 81, 82])).device_rows == 3

    def test_rerank_follows_fresh_scores(self):
        cache = _cache()
        # Live degrees now favor the low-id band.
        cache.rerank(np.arange(100.0, 0.0, -1.0))
        np.testing.assert_array_equal(cache.cached_ids, np.arange(20))

    def test_rerank_keeps_owned_mask(self):
        owned = np.zeros(100, dtype=bool)
        owned[:30] = True
        cache = _cache(owned_mask=owned)
        np.testing.assert_array_equal(cache.cached_ids, np.arange(10, 30))
        cache.invalidate(np.array([15]))
        cache.rerank(np.arange(100.0))
        # The budget still goes to the hottest *owned* rows.
        np.testing.assert_array_equal(cache.cached_ids, np.arange(10, 30))

    def test_rerank_shape_mismatch(self):
        with pytest.raises(ShapeError):
            _cache().rerank(np.arange(50.0))

    def test_merged_sums_invalidations(self):
        a, b = _cache(), _cache()
        a.invalidate(np.array([85]))
        b.invalidate(np.array([90, 91]))
        merged = CacheStats.merged([a.epoch_stats(), None, b.epoch_stats()])
        assert merged.invalidated_rows == 3


# ----------------------------------------------------------------------
# invalidate on a tiered store (host band, p2p stripe)
# ----------------------------------------------------------------------
class TestTieredInvalidate:
    def _store(self, **kwargs):
        # Descending hotness: node 0 hottest, device band = 0..15, host
        # band = 16..47, remote tail = 48..63.
        scores = np.arange(64.0, 0.0, -1.0)
        features = np.zeros((64, 4), dtype=np.float32)
        return TieredFeatureStore(
            features,
            scores,
            pool=MemoryPool(),
            device_ratio=0.25,
            host_ratio=0.5,
            **kwargs,
        )

    def test_device_rows_demote_to_host(self):
        store = self._store()
        np.testing.assert_array_equal(store.cached_ids, np.arange(16))
        assert store.invalidate(np.array([3, 7])) == 2
        split = store.split(np.array([3, 7]))
        assert split.device_rows == 0 and split.host_rows == 2
        assert 3 in store.host_ids and 7 in store.host_ids
        np.testing.assert_array_equal(store.host_ids, np.sort(store.host_ids))
        assert store.epoch_stats().invalidated_rows == 2

    def test_rerank_redraws_the_host_band(self):
        store = self._store()
        store.invalidate(np.array([3]))
        assert store.rerank(np.arange(64.0)) == 16  # node 63 now hottest
        np.testing.assert_array_equal(store.cached_ids, np.arange(48, 64))
        np.testing.assert_array_equal(store.host_ids, np.arange(16, 48))
        assert store.split(np.arange(16)).remote_rows == 16

    def test_host_and_remote_rows_are_free(self):
        store = self._store()
        assert store.invalidate(np.array([40, 63])) == 0
        assert store.invalidate(np.array([], dtype=np.int64)) == 0
        assert store.epoch_stats().invalidated_rows == 0

    def test_demoted_rows_count_as_host_hits(self):
        store = self._store()
        store.invalidate(np.array([3]))
        store.record_gather(np.array([3, 0]))
        stats = store.epoch_stats()
        assert stats.hits == 1 and stats.host_hits == 1

    def test_allocation_stays_pinned(self):
        store = self._store()
        before = store.cached_bytes
        store.invalidate(np.arange(16))
        assert store.cached_rows == 0
        assert store.cached_bytes == before

    def test_p2p_entries_demote_without_local_accounting(self):
        store = self._store(
            link=NVLINK,
            device=V100,
            replica_id=0,
            num_replicas=2,
            p2p=True,
        )
        assert store.p2p_enabled
        # Stride striping: replica 0 pins the even positions of the top
        # band, its sibling the odd ones.
        peer_row = int(
            np.flatnonzero(store._tier == TIER_P2P)[0]
        )
        local_row = int(store.cached_ids[0])
        assert store.invalidate(np.array([peer_row, local_row])) == 1
        assert store._tier[peer_row] == TIER_HOST
        assert store._tier[local_row] == TIER_HOST
        # Only the locally pinned demotion accumulates in the stats.
        assert store.epoch_stats().invalidated_rows == 1

    def test_duplicates_and_repeats(self):
        store = self._store()
        assert store.invalidate(np.array([5, 5, 5])) == 1
        assert store.invalidate(np.array([5])) == 0
        assert store.epoch_stats().invalidated_rows == 1
