"""Cluster serving: replicas, routers, interconnect, compat guarantees.

The contracts under test:

* **Fingerprint compatibility** — the refactor of the monolithic
  simulator into replica/router/cluster layers left the single-replica
  path bit-identical: a 1-replica round-robin ``run_cluster_session``
  reproduces the fingerprint committed before the refactor, pinned here
  as a sha256 so any behavioural drift fails loudly.
* **Router determinism** — every policy is a pure function of (seed,
  workload, topology): same inputs, same ``fingerprint()``.  po2 draws
  from its own generator stream, so poisoning the ``numpy.random``
  global state cannot change its routes.
* **Router correctness** — JSQ never routes to a replica strictly more
  loaded than the best alternative; round-robin cycles; shard-affinity
  follows the partition's majority shard.
* **Interconnect** — ``LinkSpec.transfer_time`` is the affine
  latency + size/bandwidth model; sharded clusters report nonzero
  cross-shard traffic charged over it, unsharded clusters report none.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.device import (
    NVLINK,
    PCIE,
    V100,
    LinkSpec,
    default_link_for,
    get_link,
)
from repro.errors import DeviceError, ServeError
from repro.partition import make_partition
from repro.serve import (
    ClusterSimulator,
    JoinShortestQueueRouter,
    Replica,
    RoundRobinRouter,
    ServePolicy,
    WorkloadSpec,
    make_router,
    replica_rng,
    run_cluster_session,
)
from repro.tasks import make_task

#: The session task direct ``generate_workload`` callers pass.
NODE = make_task("node")

#: sha256 of ``repr(report.fingerprint())`` for the reference session
#: below, captured from the pre-refactor monolithic simulator
#: (commit f476f21).  The refactored layers must reproduce it exactly.
PRE_REFACTOR_FINGERPRINT = (
    "a026a063925fbfbc035081d78798ab5fe441e64d7426000801a66ad8d9cc6c85"
)

REFERENCE_SPEC = WorkloadSpec(num_requests=192, arrival_rate=100_000.0, seed=11)
REFERENCE_POLICY = ServePolicy(
    max_batch=8, max_wait=5e-4, queue_capacity=32, slo=2e-3
)


@pytest.fixture(scope="module")
def pd():
    return load_dataset("pd", scale=0.25)


def _cluster_fingerprint(pd, **kwargs):
    defaults = dict(
        device=V100,
        spec=WorkloadSpec(num_requests=160, arrival_rate=200_000.0, seed=5),
        policy=ServePolicy(max_batch=8, max_wait=5e-4, queue_capacity=32),
        num_replicas=4,
        seed=5,
    )
    defaults.update(kwargs)
    _, report = run_cluster_session(pd, **defaults)
    return report.fingerprint()


# ----------------------------------------------------------------------
# Backward compatibility of the refactor
# ----------------------------------------------------------------------
class TestFingerprintCompat:
    def test_one_replica_session_matches_pre_refactor_fingerprint(self, pd):
        _, report = run_cluster_session(
            pd,
            device=V100,
            spec=REFERENCE_SPEC,
            policy=REFERENCE_POLICY,
            seed=11,
        )
        digest = hashlib.sha256(
            repr(report.fingerprint()).encode()
        ).hexdigest()
        assert digest == PRE_REFACTOR_FINGERPRINT

    def test_single_replica_report_shape_unchanged(self, pd):
        _, report = run_cluster_session(
            pd, device=V100, spec=REFERENCE_SPEC, seed=11
        )
        assert report.replicas == 1
        assert report.cross_shard_rows == 0
        # Cluster-only keys stay out of the single-replica trajectory.
        assert "replicas" not in report.to_metrics()
        assert "cross_shard_bytes" not in report.to_metrics()

    def test_replica_zero_rng_matches_session_stream(self):
        a = replica_rng(123, 0).random(8)
        b = np.random.default_rng(123).random(8)
        np.testing.assert_array_equal(a, b)

    def test_replica_streams_are_distinct(self):
        draws = [replica_rng(123, i).random(4) for i in range(3)]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])


# ----------------------------------------------------------------------
# Router determinism and correctness
# ----------------------------------------------------------------------
class TestRouterDeterminism:
    @pytest.mark.parametrize("router", ["round_robin", "jsq", "po2"])
    def test_same_seed_same_fingerprint(self, pd, router):
        a = _cluster_fingerprint(pd, router=router)
        b = _cluster_fingerprint(pd, router=router)
        assert a == b

    def test_shard_router_deterministic(self, pd):
        a = _cluster_fingerprint(pd, router="shard", partition="hash")
        b = _cluster_fingerprint(pd, router="shard", partition="hash")
        assert a == b

    def test_po2_ignores_numpy_global_state(self, pd):
        np.random.seed(0)
        a = _cluster_fingerprint(pd, router="po2")
        np.random.seed(4242)
        np.random.random(1000)
        b = _cluster_fingerprint(pd, router="po2")
        assert a == b

    def test_po2_routes_follow_its_seed(self, pd):
        # Different session seeds give different po2 draw streams (and
        # different workloads) — the route sequence is seed-derived, not
        # global-state-derived.
        router_a = make_router("po2", seed=1)
        router_b = make_router("po2", seed=2)
        replicas = [_StubReplica(0), _StubReplica(0), _StubReplica(0)]
        req = _stub_request()
        picks_a = [router_a.route(req, replicas, 0.0) for _ in range(32)]
        picks_b = [router_b.route(req, replicas, 0.0) for _ in range(32)]
        assert picks_a != picks_b


class _StubReplica:
    """Minimal stand-in exposing the router-facing load signal."""

    def __init__(
        self,
        load: int,
        *,
        active: bool = True,
        alive: bool = True,
        available_from: float = 0.0,
    ) -> None:
        self._load = load
        self.active = active
        self.alive = alive
        self.available_from = available_from

    def outstanding(self, now: float) -> int:
        return self._load


def _stub_request():
    from repro.serve import Request

    return Request(rid=0, arrival=0.0, seeds=np.array([0], dtype=np.int64))


class _SpyJSQ(JoinShortestQueueRouter):
    """JSQ that records (chosen load, minimum load) at every decision."""

    def __init__(self) -> None:
        self.observations: list[tuple[int, int]] = []

    def route(self, request, replicas: list[Replica], now: float) -> int:
        loads = [replica.outstanding(now) for replica in replicas]
        target = super().route(request, replicas, now)
        self.observations.append((loads[target], min(loads)))
        return target


class TestRouterCorrectness:
    def test_round_robin_cycles(self, pd):
        _, report = run_cluster_session(
            pd,
            device=V100,
            spec=WorkloadSpec(num_requests=12, arrival_rate=1000.0, seed=1),
            num_replicas=3,
            router="round_robin",
            seed=1,
        )
        order = [
            log.replica
            for log in sorted(report.logs, key=lambda l: (l.arrival, l.rid))
        ]
        assert order == [0, 1, 2] * 4

    def test_jsq_never_picks_a_strictly_more_loaded_replica(self, pd):
        spy = _SpyJSQ()
        run_cluster_session(
            pd,
            device=V100,
            spec=WorkloadSpec(
                num_requests=300,
                arrival_rate=300_000.0,
                seeds_per_request=2,
                max_seeds_per_request=64,
                seed=3,
            ),
            policy=ServePolicy(max_batch=8, max_wait=5e-4, queue_capacity=32),
            num_replicas=4,
            router=spy,
            seed=3,
        )
        assert spy.observations  # the spy actually routed
        assert all(chosen == best for chosen, best in spy.observations)

    def test_jsq_prefers_idle_replica(self):
        router = JoinShortestQueueRouter()
        replicas = [_StubReplica(5), _StubReplica(0), _StubReplica(3)]
        assert router.route(_stub_request(), replicas, 0.0) == 1

    def test_jsq_tie_breaks_to_lowest_id(self):
        router = JoinShortestQueueRouter()
        replicas = [_StubReplica(2), _StubReplica(2), _StubReplica(2)]
        assert router.route(_stub_request(), replicas, 0.0) == 0

    def test_shard_router_follows_majority_shard(self, pd):
        partition = make_partition("hash", pd.graph, 2, seed=0)
        router = make_router("shard", partition=partition)
        replicas = [_StubReplica(0), _StubReplica(0)]
        for shard_id in (0, 1):
            seeds = partition.view(shard_id).nodes[:5]
            from repro.serve import Request

            req = Request(rid=0, arrival=0.0, seeds=seeds)
            assert router.route(req, replicas, 0.0) == shard_id

    def test_unknown_router_rejected(self):
        with pytest.raises(ServeError):
            make_router("random")

    def test_shard_router_requires_partition(self):
        with pytest.raises(ServeError):
            make_router("shard")


class TestRouterEdgeCases:
    def test_outstanding_excludes_completion_exactly_at_now(self, pd):
        """An in-flight entry whose batch completes exactly at ``now`` is
        answered, not outstanding: the prune keeps strictly-later
        completions only."""
        replica = ClusterSimulator(
            pd, device=V100, policy=REFERENCE_POLICY
        ).replicas[0]
        sentinel = object()
        replica._in_flight = [(1.0, sentinel), (2.0, sentinel)]
        assert replica.outstanding(0.5) == 2
        assert replica.outstanding(1.0) == 1  # t == now is done
        assert replica.outstanding(2.0) == 0
        # The prune is destructive: earlier entries stay gone.
        assert replica._in_flight == []

    def test_shard_router_empty_seeds_degenerates_to_shard_zero(self, pd):
        partition = make_partition("hash", pd.graph, 2, seed=0)
        router = make_router("shard", partition=partition)
        replicas = [_StubReplica(0), _StubReplica(0)]
        from repro.serve import Request

        req = Request(rid=0, arrival=0.0, seeds=np.array([], dtype=np.int64))
        assert router.route(req, replicas, 0.0) == 0

    def test_po2_equal_loads_uses_its_draw_not_index_bias(self):
        """With all loads equal, po2 must return the lower index of its
        two drawn candidates — and identical seeds give identical pick
        sequences regardless of fleet-wide ties."""
        picks_a = []
        picks_b = []
        for picks, seed in ((picks_a, 9), (picks_b, 9)):
            router = make_router("po2", seed=seed)
            replicas = [_StubReplica(3) for _ in range(4)]
            picks.extend(
                router.route(_stub_request(), replicas, 0.0)
                for _ in range(64)
            )
        assert picks_a == picks_b
        # Ties break to the lower index of the drawn pair, so the top
        # index can never win a fleet-wide tie — but the rest spread.
        assert 3 not in picks_a
        assert set(picks_a) == {0, 1, 2}

    def test_po2_single_eligible_short_circuits(self):
        router = make_router("po2", seed=0)
        replicas = [
            _StubReplica(0, alive=False),
            _StubReplica(7),
            _StubReplica(0, active=False),
        ]
        picks = {router.route(_stub_request(), replicas, 0.0) for _ in range(8)}
        assert picks == {1}

    def test_routers_mask_dead_replicas(self):
        dead_mid = [_StubReplica(0), _StubReplica(0, alive=False), _StubReplica(0)]
        rr = make_router("round_robin")
        assert {rr.route(_stub_request(), dead_mid, 0.0) for _ in range(6)} == {0, 2}
        jsq = JoinShortestQueueRouter()
        loaded = [_StubReplica(9), _StubReplica(0, alive=False), _StubReplica(3)]
        assert jsq.route(_stub_request(), loaded, 0.0) == 2

    def test_blind_router_still_targets_the_corpse(self):
        rr = RoundRobinRouter()
        rr.mask_dead = False
        dead_mid = [_StubReplica(0), _StubReplica(0, alive=False), _StubReplica(0)]
        picks = [rr.route(_stub_request(), dead_mid, 0.0) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_not_yet_available_replica_is_not_routable(self):
        warming = [_StubReplica(0), _StubReplica(0, available_from=5.0)]
        jsq = JoinShortestQueueRouter()
        assert jsq.route(_stub_request(), warming, 0.0) == 0
        # Once the warm-up elapses it competes again (tie -> lowest id,
        # but with equal loads replica 1 is now eligible).
        rr = make_router("round_robin")
        picks = {rr.route(_stub_request(), warming, 6.0) for _ in range(4)}
        assert picks == {0, 1}


# ----------------------------------------------------------------------
# Interconnect model
# ----------------------------------------------------------------------
class TestInterconnect:
    def test_transfer_time_affine(self):
        link = LinkSpec("test", bandwidth=1e9, latency=1e-6)
        assert link.transfer_time(0) == 0.0
        assert link.transfer_time(1_000_000) == pytest.approx(1e-6 + 1e-3)

    def test_registry_and_defaults(self):
        assert get_link("nvlink") is NVLINK
        assert get_link("pcie") is PCIE
        assert default_link_for("v100") is NVLINK
        assert default_link_for("t4") is PCIE
        assert NVLINK.bandwidth > PCIE.bandwidth

    def test_validation(self):
        with pytest.raises(DeviceError):
            LinkSpec("bad", bandwidth=0.0, latency=1e-6)
        with pytest.raises(DeviceError):
            LinkSpec("bad", bandwidth=1e9, latency=-1.0)
        with pytest.raises(DeviceError):
            NVLINK.transfer_time(-1)
        with pytest.raises(DeviceError):
            get_link("infiniband")

    def test_nvlink_faster_than_pcie(self):
        nbytes = 64 * 2**20
        assert NVLINK.transfer_time(nbytes) < PCIE.transfer_time(nbytes)


# ----------------------------------------------------------------------
# Sharded clusters and cross-shard traffic
# ----------------------------------------------------------------------
class TestShardedCluster:
    def test_partitioned_cluster_reports_cross_shard_traffic(self, pd):
        _, report = run_cluster_session(
            pd,
            device=V100,
            spec=WorkloadSpec(num_requests=96, arrival_rate=50_000.0, seed=2),
            num_replicas=3,
            router="shard",
            partition="hash",
            seed=2,
        )
        assert report.cross_shard_rows > 0
        assert report.link_seconds > 0.0
        row_bytes = pd.features.shape[1] * pd.features.dtype.itemsize
        assert report.cross_shard_bytes == report.cross_shard_rows * row_bytes
        # Per-replica counters sum to the cluster totals.
        assert report.cross_shard_rows == sum(
            s.cross_shard_rows for s in report.per_replica
        )

    def test_unpartitioned_cluster_has_no_link_traffic(self, pd):
        _, report = run_cluster_session(
            pd,
            device=V100,
            spec=WorkloadSpec(num_requests=64, arrival_rate=50_000.0, seed=2),
            num_replicas=3,
            router="jsq",
            seed=2,
        )
        assert report.cross_shard_rows == 0
        assert report.link_seconds == 0.0

    def test_slower_link_slower_cluster(self, pd):
        kwargs = dict(
            device=V100,
            spec=WorkloadSpec(num_requests=96, arrival_rate=400_000.0, seed=2),
            policy=ServePolicy(max_batch=8, max_wait=5e-4, queue_capacity=64),
            num_replicas=3,
            router="shard",
            partition="hash",
            seed=2,
        )
        _, on_nvlink = run_cluster_session(pd, link="nvlink", **kwargs)
        _, on_pcie = run_cluster_session(pd, link="pcie", **kwargs)
        assert on_pcie.link_seconds > on_nvlink.link_seconds

    def test_cluster_queue_names_are_replica_prefixed(self, pd):
        cluster = ClusterSimulator(pd, device=V100, num_replicas=2)
        assert "r0:sample" in cluster.replicas[0].sample_ctx.queue_stats()
        assert "r1:transfer" in cluster.replicas[1].io_ctx.queue_stats()
        solo = ClusterSimulator(pd, device=V100, num_replicas=1)
        assert "sample" in solo.replicas[0].sample_ctx.queue_stats()

    def test_per_replica_breakdown_covers_all_requests(self, pd):
        _, report = run_cluster_session(
            pd,
            device=V100,
            spec=WorkloadSpec(num_requests=90, arrival_rate=50_000.0, seed=4),
            num_replicas=3,
            router="round_robin",
            seed=4,
        )
        assert len(report.per_replica) == 3
        assert sum(s.requests for s in report.per_replica) == 90
        assert sum(s.completed for s in report.per_replica) == report.completed


# ----------------------------------------------------------------------
# Heterogeneous request sizes
# ----------------------------------------------------------------------
class TestHeterogeneousWorkload:
    def test_sizes_within_bounds(self, pd):
        from repro.serve import generate_workload

        spec = WorkloadSpec(
            num_requests=100,
            arrival_rate=1000.0,
            seeds_per_request=2,
            max_seeds_per_request=32,
            seed=1,
        )
        sizes = {
            len(r.seeds)
            for r in generate_workload(spec, task=NODE, num_nodes=1000)
        }
        assert min(sizes) >= 2 and max(sizes) <= 32
        assert len(sizes) > 1  # actually heterogeneous

    def test_default_stream_unchanged_by_new_field(self):
        from repro.serve import generate_workload

        spec = WorkloadSpec(num_requests=32, arrival_rate=1000.0, seed=9)
        a = generate_workload(spec, task=NODE, num_nodes=500)
        b = generate_workload(spec, task=NODE, num_nodes=500)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.seeds, y.seeds)
            assert len(x.seeds) == spec.seeds_per_request

    def test_validation(self):
        with pytest.raises(ServeError):
            WorkloadSpec(seeds_per_request=8, max_seeds_per_request=4)


# ----------------------------------------------------------------------
# Construction validation
# ----------------------------------------------------------------------
class TestClusterValidation:
    def test_needs_a_replica(self, pd):
        with pytest.raises(ServeError):
            ClusterSimulator(pd, device=V100, num_replicas=0)

    def test_shard_router_needs_partition(self, pd):
        with pytest.raises(ServeError):
            ClusterSimulator(pd, device=V100, num_replicas=2, router="shard")

    def test_prebuilt_router_accepted(self, pd):
        cluster = ClusterSimulator(
            pd, device=V100, num_replicas=2, router=RoundRobinRouter()
        )
        assert cluster.router.name == "round_robin"
