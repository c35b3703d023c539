"""Multi-tier feature store: tiers, p2p striping, and the cache fixes.

The contracts under test:

* :func:`~repro.cache.tiered.admit_rows` pins the *largest*
  fitting row count under a tight budget (binary search), not the
  up-to-2x-smaller halving artifact the old loop produced;
* sharded replicas rank cache admission by owned-shard degree
  (``owned_mask``), so the budget goes to rows the router will send;
* :class:`~repro.cache.tiered.TieredFeatureStore` partitions every node
  into exactly one tier, engages p2p only when the link beats host DRAM
  (NVLink yes, PCIe no), and stripes the pooled device band disjointly
  across replicas;
* ``CacheStats.merged`` skips ``None`` entries and sums the tier
  breakdown;
* sessions start clean: ``begin_session`` resets the epoch tally, so a
  polluted cache cannot leak counts into the next report;
* acceptance: the full-HBM-budget tiered session is *bit-identical* to
  the flat cache (fingerprint equality); under a capped budget the
  2-replica NVLink tiered+p2p session beats flat on p99 and mean; the
  async-prefetch tiered pipeline beats the synchronous loader at equal
  loss.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import (
    CacheStats,
    FeatureSource,
    GatherPlan,
    TieredFeatureStore,
    admit_rows,
)
from repro.cache.tiered import REMOTE_TIER, TIER_DEVICE, TIER_P2P
from repro.datasets import load_dataset
from repro.device import (
    NVLINK,
    PCIE,
    V100,
    LinkSpec,
    MemoryPool,
    p2p_cheaper_than_host,
)
from repro.errors import DeviceError, ServeError, ShapeError
from repro.pipeline import run_pipeline_cell
from repro.serve import WorkloadSpec, run_cluster_session

#: HBM budget (bytes) that fits ~512 of PD-0.25's 3000 feature rows —
#: well under the working set, so the capped cells exercise every tier.
CAPPED_BUDGET = 64 * 1024


@pytest.fixture(scope="module")
def pd():
    return load_dataset("pd", scale=0.25)


def make_store(num_nodes=64, feat=4, budget=None, **kwargs):
    """A small store over descending-hotness features (node 0 hottest)."""
    features = np.zeros((num_nodes, feat), dtype=np.float32)
    scores = np.arange(num_nodes, 0, -1, dtype=np.float64)
    pool = MemoryPool(budget)
    return TieredFeatureStore(features, scores, pool=pool, **kwargs)


#: ``host_ratio`` of the flat configuration (no remote tail) and of a
#: tiered one with a remote tail, for cases both must keep.
FLAT_AND_TIERED = pytest.mark.parametrize(
    "host_ratio", [1.0, 0.25], ids=["flat", "tiered"]
)


def total_rows(plan: GatherPlan) -> int:
    return plan.gathered + plan.p2p_rows + plan.remote_rows


# ----------------------------------------------------------------------
# admit_rows: the halving-loop bugfix
# ----------------------------------------------------------------------
class TestAdmitRows:
    def test_full_plan_single_allocation(self):
        pool = MemoryPool(100 * 512)
        rows, alloc = admit_rows(pool, 512, 100, "t")
        assert rows == 100
        assert alloc is not None and alloc.nbytes == 100 * 512

    def test_largest_fitting_not_halving_artifact(self):
        # 73 rows fit.  The old halving loop would have probed
        # 100 -> 50 and pinned 50; binary search must find 73 exactly.
        pool = MemoryPool(73 * 512)
        rows, alloc = admit_rows(pool, 512, 100, "t")
        assert rows == 73
        assert alloc is not None
        assert pool.live_bytes == 73 * 512

    @pytest.mark.parametrize("capacity_rows", [1, 37, 63, 64, 99])
    def test_boundary_is_exact(self, capacity_rows):
        pool = MemoryPool(capacity_rows * 512)
        rows, _ = admit_rows(pool, 512, 100, "t")
        assert rows == capacity_rows

    def test_refusal_leaves_pool_untouched(self):
        pool = MemoryPool(256)  # under one 512-byte row
        rows, alloc = admit_rows(pool, 512, 10, "t")
        assert rows == 0 and alloc is None
        assert pool.live_bytes == 0 and pool.live_allocations == 0

    def test_zero_want(self):
        assert admit_rows(MemoryPool(), 512, 0, "t") == (0, None)


# ----------------------------------------------------------------------
# Sharded-replica cache scoring (owned_mask)
# ----------------------------------------------------------------------
class TestOwnedMaskScoring:
    def test_budget_goes_to_owned_rows(self, pd):
        n = pd.features.shape[0]
        owned = np.zeros(n, dtype=bool)
        owned[n // 2 :] = True  # this replica owns the top-id half
        cache = FeatureSource(pd, cache_ratio=0.1, owned_mask=owned).store
        # Plan (10% of nodes) is far smaller than the owned half, so
        # every pinned row must be owned.
        assert cache.cached_rows > 0
        assert owned[cache.cached_ids].all()

    def test_global_ranking_without_mask(self, pd):
        a = FeatureSource(pd, cache_ratio=0.1).store
        b = FeatureSource(pd, cache_ratio=0.1, owned_mask=None).store
        assert np.array_equal(a.cached_ids, b.cached_ids)

    def test_mask_shape_checked(self, pd):
        with pytest.raises(ShapeError):
            FeatureSource(pd, owned_mask=np.ones(3, dtype=bool))


# ----------------------------------------------------------------------
# CacheStats: merged with None entries, release semantics
# ----------------------------------------------------------------------
class TestCacheStats:
    def test_merged_skips_none(self):
        s = CacheStats(
            cached_rows=4,
            requested_rows=8,
            cached_bytes=64,
            hits=10,
            misses=6,
            p2p_hits=1,
            host_hits=2,
            remote_hits=3,
            host_rows=5,
        )
        merged = CacheStats.merged([None, s, None])
        assert merged == s

    def test_merged_all_none(self):
        assert CacheStats.merged([None, None]) is None
        assert CacheStats.merged([]) is None

    def test_merged_sums_tier_breakdown(self):
        a = CacheStats(2, 4, 32, hits=3, misses=3, p2p_hits=1, host_hits=2)
        b = CacheStats(1, 4, 16, hits=1, misses=5, remote_hits=4, host_rows=7)
        m = CacheStats.merged([a, None, b])
        assert (m.hits, m.misses) == (4, 8)
        assert (m.p2p_hits, m.host_hits, m.remote_hits) == (1, 2, 4)
        assert m.host_rows == 7
        assert m.lookups == 12

    def test_tier_rate_partitions_lookups(self):
        s = CacheStats(0, 0, 0, hits=5, misses=5, p2p_hits=2, host_hits=2,
                       remote_hits=1)
        total = sum(
            s.tier_rate(t) for t in ("device", "p2p", "host", "remote")
        )
        assert total == pytest.approx(1.0)
        assert s.tier_rate("device") == pytest.approx(0.5)


# ----------------------------------------------------------------------
# A tier's price (a LinkSpec)
# ----------------------------------------------------------------------
class TestTierSpec:
    def test_fetch_time_latency_plus_bandwidth(self):
        tier = LinkSpec(name="t", bandwidth=1e9, latency=1e-4)
        assert tier.transfer_time(0) == 0.0
        assert tier.transfer_time(1e9) == pytest.approx(1e-4 + 1.0)
        # The default remote tier kept its name and numbers.
        assert REMOTE_TIER == LinkSpec("remote", bandwidth=2.5e9, latency=100e-6)

    def test_validation(self):
        with pytest.raises(DeviceError):
            LinkSpec(name="bad", bandwidth=0.0, latency=0.0)
        with pytest.raises(DeviceError):
            LinkSpec(name="bad", bandwidth=1e9, latency=-1.0)


# ----------------------------------------------------------------------
# TieredFeatureStore: tier assignment
# ----------------------------------------------------------------------
class TestTierAssignment:
    def test_every_node_in_exactly_one_tier(self):
        store = make_store(device_ratio=0.25, host_ratio=0.5)
        split = store.split(np.arange(64))
        assert total_rows(split) == 64
        assert split.device_rows == 16  # hottest quarter
        assert split.host_rows == 32  # next half
        assert split.remote_rows == 16  # cold tail

    def test_default_host_ratio_leaves_no_remote_tail(self):
        store = make_store(device_ratio=0.25)
        assert store.split(np.arange(64)).remote_rows == 0

    def test_hottest_rows_go_device(self):
        store = make_store(device_ratio=0.25, host_ratio=0.5)
        assert np.array_equal(store.cached_ids, np.arange(16))

    def test_budget_evicts_device_band_to_host(self):
        # Plan 32 rows of 16 bytes; budget fits one 512-byte granule =
        # exactly 32 rows' bytes... so cap below: 8 rows want 512B each.
        store = make_store(
            num_nodes=64, feat=128, budget=4 * 512, device_ratio=0.5
        )
        assert store.cached_rows == 4
        stats = store.epoch_stats()
        assert stats.requested_rows - stats.cached_rows == 32 - 4
        # Evicted rows are still hot: they land in the host tier.
        assert store.split(np.arange(4, 32)).host_rows == 28

    @pytest.mark.parametrize(
        "host_ratio, rows", [(1.0, (2, 4, 0)), (0.25, (2, 1, 3))],
        ids=["flat", "tiered"],
    )
    def test_duplicates_count_per_occurrence(self, host_ratio, rows):
        store = make_store(device_ratio=0.25, host_ratio=host_ratio)
        split = store.split(np.array([0, 0, 20, 63, 63, 63]))
        assert (split.device_rows, split.host_rows, split.remote_rows) == rows

    @FLAT_AND_TIERED
    def test_empty_gather_is_noop(self, host_ratio):
        store = make_store(device_ratio=0.25, host_ratio=host_ratio)
        # The bare [] literal is float64 — split must not fancy-index
        # the tier array with it.
        assert store.split(np.asarray([])) == GatherPlan(0, 0)
        assert store.record_gather(np.array([], dtype=np.int64)) == (
            GatherPlan(0, 0)
        )
        assert store.epoch_stats().lookups == 0

    @FLAT_AND_TIERED
    def test_budget_refusal_leaves_pool_untouched(self, host_ratio):
        # The 32-row plan is one 512-byte granule; the pool holds half.
        store = make_store(budget=256, device_ratio=0.5, host_ratio=host_ratio)
        assert store.cached_rows == 0
        assert store.pool.live_bytes == 0
        # Every gather misses, the would-be hottest rows included.
        assert store.record_gather(np.arange(32)).device_rows == 0
        assert store.epoch_stats().hit_rate == 0.0

    def test_record_and_reset_epoch(self):
        store = make_store(device_ratio=0.25, host_ratio=0.5)
        store.record_gather(np.arange(64))
        stats = store.epoch_stats()
        assert (stats.hits, stats.misses) == (16, 48)
        assert (stats.host_hits, stats.remote_hits) == (32, 16)
        store.reset_epoch()
        assert store.epoch_stats().lookups == 0

    def test_ratio_validation(self):
        with pytest.raises(ShapeError):
            make_store(device_ratio=1.5)
        with pytest.raises(ShapeError):
            make_store(host_ratio=-0.1)
        with pytest.raises(ShapeError):
            make_store(replica_id=2, num_replicas=2)


# ----------------------------------------------------------------------
# p2p: decision rule and striping
# ----------------------------------------------------------------------
class TestP2P:
    def test_nvlink_beats_host_pcie_does_not(self):
        assert p2p_cheaper_than_host(NVLINK, V100)
        assert not p2p_cheaper_than_host(PCIE, V100)

    def test_pcie_link_disables_p2p(self):
        store = make_store(
            device_ratio=0.25, link=PCIE, device=V100,
            replica_id=0, num_replicas=2, p2p=True,
        )
        assert not store.p2p_enabled
        assert store.split(np.arange(64)).p2p_rows == 0

    def test_single_replica_disables_p2p(self):
        store = make_store(
            device_ratio=0.25, link=NVLINK, device=V100, p2p=True
        )
        assert not store.p2p_enabled

    def test_stripes_are_disjoint_and_cover_band(self):
        kwargs = dict(
            device_ratio=0.25, host_ratio=0.0, link=NVLINK, device=V100,
            num_replicas=2, p2p=True,
        )
        r0 = make_store(replica_id=0, **kwargs)
        r1 = make_store(replica_id=1, **kwargs)
        assert r0.p2p_enabled and r1.p2p_enabled
        # Pooled band = top 2 * 16 rows, striped round-robin.
        assert np.array_equal(r0.cached_ids, np.arange(0, 32, 2))
        assert np.array_equal(r1.cached_ids, np.arange(1, 32, 2))
        # What r0 serves locally, r1 reaches over the link — and vice
        # versa (the symmetric-admission contract).
        band = np.arange(32)
        s0, s1 = r0.split(band), r1.split(band)
        assert (s0.device_rows, s0.p2p_rows) == (16, 16)
        assert (s1.device_rows, s1.p2p_rows) == (16, 16)
        assert np.array_equal(
            r0._tier[band] == TIER_P2P, r1._tier[band] == TIER_DEVICE
        )

    def test_p2p_band_counts_in_stats(self):
        store = make_store(
            device_ratio=0.25, host_ratio=0.0, link=NVLINK, device=V100,
            replica_id=0, num_replicas=2, p2p=True,
        )
        store.record_gather(np.arange(32))
        stats = store.epoch_stats()
        assert stats.p2p_hits == 16
        assert stats.misses == 16  # p2p rows are not device hits

    def test_p2p_without_tiers_is_a_config_error(self, pd):
        with pytest.raises(ServeError):
            run_cluster_session(
                pd, device=V100, num_replicas=2, link="nvlink", p2p=True
            )


# ----------------------------------------------------------------------
# Session integration: bit-identity, reset, and the capped-budget wins
# ----------------------------------------------------------------------
class TestTieredSessions:
    def test_full_budget_tiered_is_bit_identical_to_flat(self, pd):
        spec = WorkloadSpec(num_requests=96, seed=0)
        _, flat = run_cluster_session(pd, device=V100, spec=spec, seed=0)
        _, tier = run_cluster_session(
            pd, device=V100, spec=spec, seed=0, feature_tiers=True
        )
        assert tier.fingerprint() == flat.fingerprint()
        assert tier.feature_tiers and not flat.feature_tiers

    def test_begin_session_resets_polluted_cache(self, pd):
        spec = WorkloadSpec(num_requests=64, seed=0)
        kwargs = dict(device=V100, spec=spec, seed=0, feature_tiers=True)
        clean_cluster, clean = run_cluster_session(pd, **kwargs)
        from repro.serve.cluster import ClusterSimulator

        dirty_cluster = ClusterSimulator(
            pd, device=V100, seed=0, feature_tiers=True
        )
        for replica in dirty_cluster.replicas:
            replica.cache.record_gather(np.arange(200))
        report = dirty_cluster.run(dirty_cluster.build_workload(spec))
        assert report.cache.lookups == clean.cache.lookups
        assert report.fingerprint() == clean.fingerprint()

    def test_capped_tiered_p2p_beats_flat(self, pd):
        spec = WorkloadSpec(seed=0)
        kwargs = dict(
            device=V100, spec=spec, seed=0, num_replicas=2,
            link="nvlink", hbm_budget=CAPPED_BUDGET,
        )
        _, flat = run_cluster_session(pd, **kwargs)
        _, tier = run_cluster_session(
            pd, feature_tiers=True, p2p=True, **kwargs
        )
        assert tier.p99_ms < flat.p99_ms
        assert tier.mean_ms < flat.mean_ms
        # The win comes from the pooled device band: p2p traffic flowed.
        assert tier.p2p_rows > 0
        assert tier.p2p_bytes == tier.p2p_rows * pd.features.shape[1] * 4
        assert tier.cache.tier_rate("p2p") > 0.0

    def test_tiered_metrics_and_trace(self, pd):
        from repro.profile.spans import Profiler

        profiler = Profiler()
        spec = WorkloadSpec(num_requests=64, seed=0)
        _, report = run_cluster_session(
            pd, device=V100, spec=spec, seed=0, num_replicas=2,
            link="nvlink", feature_tiers=True, p2p=True,
            hbm_budget=CAPPED_BUDGET, profiler=profiler,
        )
        metrics = report.to_metrics()
        rates = [
            metrics[f"tier_{t}_rate"]
            for t in ("device", "p2p", "host", "remote")
        ]
        assert sum(rates) == pytest.approx(1.0)
        assert metrics["p2p_rows"] == float(report.p2p_rows)
        cache_spans = [
            s for s in profiler.spans if s.name.startswith("tiered_cache[")
        ]
        assert len(cache_spans) == 2
        assert all("p2p_hits" in s.attrs for s in cache_spans)

    def test_pipeline_prefetch_beats_synchronous_loader(self, pd):
        kwargs = dict(
            device=V100, seed=0, hbm_budget=CAPPED_BUDGET,
            feature_tiers=True, host_tier_ratio=0.6,
        )
        _, pre = run_pipeline_cell("graphsage", pd, prefetch=True, **kwargs)
        serial, sync = run_pipeline_cell(
            "graphsage", pd, prefetch=False, **kwargs
        )
        # Async prefetch overlaps the tier fetch with compute; the
        # synchronous loader serializes behind it.
        assert pre.total_seconds < sync.total_seconds
        # The clock is the only difference: losses are bit-identical
        # across serial / sync / prefetched runs.
        assert pre.final_loss == sync.final_loss == serial.final_loss
        stats = pre.cache_stats
        assert stats.remote_hits > 0 and stats.host_hits > 0

    def test_pipeline_tiered_loss_matches_flat(self, pd):
        _, flat = run_pipeline_cell("graphsage", pd, device=V100, seed=0)
        _, tier = run_pipeline_cell(
            "graphsage", pd, device=V100, seed=0, feature_tiers=True
        )
        assert tier.final_loss == flat.final_loss
        assert tier.final_accuracy == flat.final_accuracy
