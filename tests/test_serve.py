"""Online serving subsystem: workload, batcher, admission, determinism.

The contracts under test:

* workloads are bit-identical under equal specs, arrival processes are
  ordered and rate-plausible, seed sets are skewed toward hot nodes;
* the dynamic batcher respects ``max_batch``, fires at ``max_wait``, and
  never starts a request's service before it arrived (causality);
* admission control sheds only above capacity; the SLO ladder engages
  under overload and degraded service is cheaper;
* two full serve sessions with one seed produce identical request logs
  and latency percentiles (the determinism guard);
* acceptance: batched throughput >= 2x the batch-size-1 configuration,
  and admission control meets a p99 SLO at an arrival rate where the
  uncontrolled configuration breaches it.
"""

from __future__ import annotations

import hashlib
import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import graph_degrees
from repro.datasets import load_dataset
from repro.device import V100
from repro.errors import ServeError
from repro.serve import (
    ClusterSimulator,
    Request,
    ServePolicy,
    WorkloadSpec,
    arrival_times,
    degraded_kwargs,
    generate_workload,
    rank_probabilities,
    run_cluster_session,
    summarize,
)
from repro.serve.metrics import RequestLog
from repro.serve.workload import _first_occurrences, _RankSampler
from repro.sparse.formats import sorted_unique
from repro.tasks import edge_endpoints_of, make_task


#: The session tasks direct ``generate_workload`` callers pass.
NODE, LINKPRED = make_task("node"), make_task("linkpred")


@pytest.fixture(scope="module")
def pd():
    return load_dataset("pd", scale=0.25)


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
def _argsort_first_occurrences(values):
    """The argsort dedup ``_first_occurrences`` replaced, as its oracle."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    repeat = ranked[1:] == ranked[:-1]
    if not repeat.any():
        return values
    keep = np.ones(len(values), dtype=bool)
    keep[order[1:][repeat]] = False
    return values[keep]


class TestWorkload:
    @pytest.mark.parametrize("span", [1, 2, 5, 40, 10_000])
    def test_first_occurrences_equal_the_argsort_dedup(self, span):
        rng = np.random.default_rng(span)
        for size in (0, 1, 7, 300):
            values = rng.integers(0, span, size)
            got = _first_occurrences(values)
            want = _argsort_first_occurrences(values)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype

    def test_same_spec_same_stream(self):
        spec = WorkloadSpec(num_requests=64, arrival_rate=1000.0, seed=7)
        a = generate_workload(spec, task=NODE, num_nodes=500)
        b = generate_workload(spec, task=NODE, num_nodes=500)
        assert [r.arrival for r in a] == [r.arrival for r in b]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.seeds, y.seeds)

    def test_arrivals_sorted_and_rate_plausible(self):
        from repro.core import new_rng

        spec = WorkloadSpec(num_requests=2000, arrival_rate=1000.0)
        times = arrival_times(spec, new_rng(0))
        assert np.all(np.diff(times) > 0)
        # Mean inter-arrival within 10% of 1/rate at n=2000.
        mean = float(np.diff(times).mean())
        assert 0.9e-3 < mean < 1.1e-3

    @pytest.mark.parametrize("process", ["bursty", "diurnal"])
    def test_modulated_processes_generate(self, process):
        from repro.core import new_rng

        spec = WorkloadSpec(
            num_requests=500, arrival_rate=1000.0, process=process
        )
        times = arrival_times(spec, new_rng(1))
        assert len(times) == 500
        assert np.all(np.diff(times) > 0)

    def test_bursty_is_burstier_than_poisson(self):
        from repro.core import new_rng

        base = WorkloadSpec(num_requests=2000, arrival_rate=1000.0)
        bursty = WorkloadSpec(
            num_requests=2000,
            arrival_rate=1000.0,
            process="bursty",
            burst_factor=8.0,
        )
        cv = lambda t: np.diff(t).std() / np.diff(t).mean()  # noqa: E731
        assert cv(arrival_times(bursty, new_rng(0))) > cv(
            arrival_times(base, new_rng(0))
        )

    def test_skew_prefers_hot_nodes(self):
        hotness = np.arange(100, dtype=np.float64)  # node 99 hottest
        spec = WorkloadSpec(
            num_requests=200, arrival_rate=1000.0, seeds_per_request=4,
            skew=1.5, seed=3,
        )
        requests = generate_workload(
            spec, task=NODE, num_nodes=100, hotness=hotness
        )
        seeds = np.concatenate([r.seeds for r in requests])
        hot_share = np.mean(seeds >= 80)  # top-20% nodes by hotness
        assert hot_share > 0.5

    def test_rank_probabilities_normalized_and_monotone(self):
        p = rank_probabilities(50, 1.1)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(np.diff(p) < 0)
        uniform = rank_probabilities(50, 0.0)
        np.testing.assert_allclose(uniform, 1.0 / 50)

    @given(
        st.sampled_from([1, 2, 50, 12_000]),
        # 400 underflows past rank 6: a probability vector with a zero tail.
        st.sampled_from([0.0, 1.1, 3.0, 400.0]),
        st.lists(st.integers(1, 64), min_size=1, max_size=6),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_rank_sampler_replays_generator_choice(self, n, skew, sizes, seed):
        """Same ranks, same generator state afterwards — on whichever
        NumPy is installed, which is what licenses replaying ``choice``'s
        collision loop instead of calling it."""
        probs = rank_probabilities(n, skew)
        positive = int(np.count_nonzero(probs > 0))
        sizes = [min(size, positive) for size in sizes]
        sampler = _RankSampler(n, skew, max(sizes))
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in sizes:
            got = sampler.draw(size, ours)
            want = numpys.choice(n, size=size, replace=False, p=probs)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
            assert sampler.draw_one(ours) == numpys.choice(n, p=probs)
        assert ours.random() == numpys.random()

    def test_collision_round_refuses_a_draw_on_a_cdf_entry(self, monkeypatch):
        """A draw equal to an entry of NumPy's renormalised CDF is where
        the estimate cannot tell the two neighbours apart: the
        certificate refuses it and NumPy's own round answers."""
        n, found = 12_000, [0, 3, 17, 400]
        sampler = _RankSampler(n, 1.1)
        probs = rank_probabilities(n, 1.1)
        probs[found] = 0.0
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        x = cdf[[5, 401]]
        replays = []
        replay = _RankSampler._replay_round

        def counted(self, *args):
            replays.append(args)
            return replay(self, *args)

        monkeypatch.setattr(_RankSampler, "_replay_round", counted)
        got = sampler._collision_round(found, x)
        assert got == _first_occurrences(cdf.searchsorted(x, "right")).tolist()
        assert len(replays) == 1

    def test_collision_search_carries_the_traffic(self, monkeypatch):
        """The serve benchmarks' shape — 8…32 seeds at skew 1.1 over
        12 000 ranks — never needs NumPy's round."""

        def refuse(self, found, x):
            raise AssertionError(f"fell back with {len(found)} found")

        monkeypatch.setattr(_RankSampler, "_replay_round", refuse)
        n = 12_000
        probs = rank_probabilities(n, 1.1)
        sampler = _RankSampler(n, 1.1, 32)
        sizes = np.random.default_rng(1).integers(8, 33, size=2000).tolist()
        ours, numpys = np.random.default_rng(2), np.random.default_rng(2)
        for size in sizes:
            np.testing.assert_array_equal(
                sampler.draw(size, ours),
                numpys.choice(n, size=size, replace=False, p=probs),
            )
        assert ours.random() == numpys.random()

    @pytest.mark.parametrize(
        "spec, task, digest",
        [
            (
                WorkloadSpec(num_requests=256, seed=5),
                NODE,
                "d2b43e9c9a5284363e98365209fe8ea9bb4dac76a79013e8579809f2f9bc2bc8",
            ),
            (
                WorkloadSpec(
                    num_requests=256,
                    seed=6,
                    process="bursty",
                    max_seeds_per_request=32,
                ),
                NODE,
                "91274c76c147ea890475f64ce2ba62cf058887e2b3ba176fb5d91bb3a0e53290",
            ),
            (
                WorkloadSpec(num_requests=64, seed=7),
                LINKPRED,
                "9fc7b062b7b12420de6f10b89dde6f0a067d4556ee1be5b93a733dac3429ac6b",
            ),
        ],
        ids=["node", "node-8..32-seeds", "linkpred"],
    )
    def test_stream_equals_the_one_recorded_before_the_cdf_was_hoisted(
        self, pd, spec, task, digest
    ):
        """Digests recorded with ``rng.choice(..., p=...)`` per request."""
        requests = generate_workload(
            spec,
            task=task,
            num_nodes=pd.num_nodes,
            hotness=graph_degrees(pd.graph),
            edges=edge_endpoints_of(pd.graph),
        )
        stream = hashlib.sha256()
        for request in requests:
            stream.update(repr((request.rid, request.arrival)).encode())
            stream.update(request.seeds.tobytes())
        assert stream.hexdigest() == digest

    @pytest.mark.parametrize("task", ["node", "linkpred"])
    def test_underflowing_skew_is_refused_before_any_draw(self, task):
        """``rank ** -400`` is 0 past rank 6; NumPy's own complaint came
        from inside ``choice``, as a ``ValueError``."""
        spec = WorkloadSpec(num_requests=4, skew=400.0)
        ring = np.arange(1000, dtype=np.int64)
        with pytest.raises(ServeError, match=r"skew 400\.0 leaves 6 of 1000 .* 8"):
            generate_workload(
                spec,
                task=make_task(task),
                num_nodes=1000,
                edges=(ring, (ring + 1) % 1000),
            )

    def test_one_rank_sampler(self):
        """Request seeds, link-prediction edges and streamed update
        edges all draw ranks through ``_RankSampler``; no call site
        hands ``Generator.choice`` a probability vector again."""
        from repro.dynamic import stream
        from repro.serve import workload

        for module in (workload, stream):
            assert not re.search(r"choice\(.*p=", inspect.getsource(module))

    def test_spec_validation(self):
        with pytest.raises(ServeError):
            WorkloadSpec(num_requests=0)
        with pytest.raises(ServeError):
            WorkloadSpec(arrival_rate=-1.0)
        with pytest.raises(ServeError):
            WorkloadSpec(process="lunar")
        with pytest.raises(ServeError):
            WorkloadSpec(burst_factor=0.5)
        with pytest.raises(ServeError):
            generate_workload(
                WorkloadSpec(seeds_per_request=64), task=NODE, num_nodes=32
            )

    def test_seed_payload_validation(self):
        from repro.serve.workload import as_seed_units

        good = np.array([3, 1, 4], dtype=np.int64)
        assert as_seed_units(good) is good
        with pytest.raises(ServeError):
            as_seed_units(np.array([], dtype=np.int64))  # empty
        with pytest.raises(ServeError):
            as_seed_units(np.array([[1, 2]], dtype=np.int64))  # 2-D
        with pytest.raises(ServeError):
            as_seed_units(np.array([1, 2], dtype=np.int32))  # wrong dtype

    def test_single_node_graph(self):
        spec = WorkloadSpec(
            num_requests=8, arrival_rate=1000.0, seeds_per_request=1
        )
        requests = generate_workload(spec, task=NODE, num_nodes=1)
        for r in requests:
            np.testing.assert_array_equal(r.seeds, [0])

    def test_max_seeds_equal_to_min_is_valid_and_homogeneous(self):
        spec = WorkloadSpec(
            num_requests=32, arrival_rate=1000.0, seeds_per_request=4,
            max_seeds_per_request=4,
        )
        requests = generate_workload(spec, task=NODE, num_nodes=100)
        assert {len(r.seeds) for r in requests} == {4}

    def test_zero_skew_workload_is_uniformish(self):
        spec = WorkloadSpec(
            num_requests=400, arrival_rate=1000.0, seeds_per_request=4,
            skew=0.0, seed=5,
        )
        requests = generate_workload(spec, task=NODE, num_nodes=100)
        seeds = np.concatenate([r.seeds for r in requests])
        # Uniform draws put ~20% of mass in any 20-id band.
        hot_share = np.mean(seeds >= 80)
        assert 0.1 < hot_share < 0.3


# ----------------------------------------------------------------------
# Link-prediction workloads
# ----------------------------------------------------------------------
class TestLinkpredWorkload:
    def _edges(self, pd):
        from repro.tasks import edge_endpoints_of

        return edge_endpoints_of(pd.graph)

    def test_requires_edges(self):
        spec = WorkloadSpec(num_requests=4)
        with pytest.raises(ServeError):
            generate_workload(spec, task=LINKPRED, num_nodes=100)

    def test_pair_payload_contract(self, pd):
        from repro.tasks import edge_keys

        src, dst = self._edges(pd)
        live = np.sort(edge_keys(src, dst, pd.num_nodes))
        spec = WorkloadSpec(
            num_requests=32, arrival_rate=1000.0, seeds_per_request=4,
            seed=11,
        )
        requests = generate_workload(
            spec, task=LINKPRED, num_nodes=pd.num_nodes, edges=(src, dst)
        )
        for r in requests:
            assert r.seeds.dtype == np.int64
            assert len(r.seeds) == 16  # 4 pos + 4 neg pairs, flattened
            pairs = r.seeds.reshape(-1, 2)
            assert pairs.shape == (8, 2)
            keys = edge_keys(pairs[:, 0], pairs[:, 1], pd.num_nodes)
            idx = np.minimum(np.searchsorted(live, keys), len(live) - 1)
            is_live = live[idx] == keys
            # First half positive (live edges), second half forged
            # non-edges — the replica-side compaction relies on this.
            assert is_live[:4].all()
            assert not is_live[4:].any()

    def test_same_spec_same_pair_stream(self, pd):
        src, dst = self._edges(pd)
        spec = WorkloadSpec(num_requests=16, arrival_rate=1000.0, seed=2)
        kwargs = dict(task=LINKPRED, num_nodes=pd.num_nodes, edges=(src, dst))
        a = generate_workload(spec, **kwargs)
        b = generate_workload(spec, **kwargs)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.seeds, y.seeds)

    def test_cluster_session_deterministic_and_reports_pairs(self, pd):
        def run():
            _, report = run_cluster_session(
                pd,
                device=V100,
                spec=WorkloadSpec(
                    num_requests=48, arrival_rate=20000.0, seed=3
                ),
                task="linkpred",
                seed=3,
            )
            return report

        a, b = run(), run()
        assert a.fingerprint() == b.fingerprint()
        assert a.task == "linkpred"
        assert a.pairs_served == 48 * 8 * 2
        assert a.compaction_saved_rows > 0
        metrics = a.to_metrics()
        assert metrics["pairs_served"] == float(a.pairs_served)

    def test_node_task_metrics_schema_unchanged(self, pd):
        _, report = run_cluster_session(
            pd,
            device=V100,
            spec=WorkloadSpec(num_requests=32, arrival_rate=20000.0),
            seed=0,
        )
        assert report.task == "node"
        metrics = report.to_metrics()
        # Pair-task keys must never leak into the committed node lanes.
        assert "pairs_served" not in metrics
        assert "compaction_saved_rows" not in metrics


# ----------------------------------------------------------------------
# Dynamic batcher + admission (stubbed latencies via tiny real sessions)
# ----------------------------------------------------------------------
def _manual_requests(arrivals, seeds_per=4, num_nodes=100):
    rng = np.random.default_rng(0)
    return [
        Request(
            rid=i,
            arrival=float(t),
            seeds=np.sort(rng.choice(num_nodes, seeds_per, replace=False)),
        )
        for i, t in enumerate(arrivals)
    ]


class TestBatcher:
    def _simulator(self, pd, policy):
        return ClusterSimulator(
            pd, device=V100, policy=policy, cache_ratio=0.0, seed=0
        )

    def test_max_batch_respected(self, pd):
        sim = self._simulator(
            pd, ServePolicy(max_batch=3, max_wait=1.0, queue_capacity=None)
        )
        # All 7 requests arrive (almost) together: batches of 3, 3, 1.
        report = sim.run(_manual_requests([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        assert report.batch_histogram == {1: 1, 3: 2}
        assert all(log.batch_size <= 3 for log in report.logs)

    def test_max_wait_fires_partial_batch(self, pd):
        sim = self._simulator(
            pd, ServePolicy(max_batch=8, max_wait=1e-3, queue_capacity=None)
        )
        # A lone request: the batch can never fill, so it fires exactly
        # at arrival + max_wait.
        report = sim.run(_manual_requests([1e-3]))
        (log,) = [l for l in report.logs if l.completed]
        assert log.start == pytest.approx(2e-3)
        assert log.batch_size == 1

    def test_full_batch_fires_without_waiting(self, pd):
        sim = self._simulator(
            pd, ServePolicy(max_batch=2, max_wait=1.0, queue_capacity=None)
        )
        report = sim.run(_manual_requests([0.0, 1e-5]))
        first = min(
            (l for l in report.logs if l.completed), key=lambda l: l.rid
        )
        # Fires when the second member lands, not after the 1s timeout.
        assert first.start == pytest.approx(1e-5)

    def test_causality_no_negative_queue_time(self, pd):
        sim = self._simulator(
            pd, ServePolicy(max_batch=4, max_wait=5e-3, queue_capacity=None)
        )
        arrivals = np.sort(np.random.default_rng(5).uniform(0, 3e-3, 64))
        report = sim.run(_manual_requests(list(arrivals)))
        for log in report.logs:
            if log.completed:
                assert log.start >= log.arrival - 1e-15
                assert log.completion > log.start

    def test_batches_serialize_on_sample_queue(self, pd):
        sim = self._simulator(
            pd, ServePolicy(max_batch=2, max_wait=1e-6, queue_capacity=None)
        )
        report = sim.run(_manual_requests([0.0] * 8))
        starts = sorted(
            {l.start for l in report.logs if l.completed}
        )
        # Four batches, each starting no earlier than the previous
        # batch's sampling finished: strictly increasing starts.
        assert len(starts) == 4
        assert all(b > a for a, b in zip(starts, starts[1:]))


class TestAdmission:
    def test_sheds_above_capacity(self, pd):
        policy = ServePolicy(max_batch=2, max_wait=1e-3, queue_capacity=2)
        sim = ClusterSimulator(
            pd, device=V100, policy=policy, cache_ratio=0.0, seed=0
        )
        # 32 simultaneous arrivals against a 2-deep queue: almost all shed.
        report = sim.run(_manual_requests([0.0] * 32))
        assert report.shed > 0
        assert report.completed + report.shed == 32
        shed_logs = [l for l in report.logs if not l.admitted]
        assert all(np.isnan(l.completion) for l in shed_logs)

    def test_unbounded_queue_never_sheds(self, pd):
        policy = ServePolicy(max_batch=2, max_wait=1e-3, queue_capacity=None)
        sim = ClusterSimulator(
            pd, device=V100, policy=policy, cache_ratio=0.0, seed=0
        )
        report = sim.run(_manual_requests([0.0] * 32))
        assert report.shed == 0
        assert report.completed == 32

    def test_policy_presets(self):
        none = ServePolicy.preset("none", slo=1e-3)
        assert none.queue_capacity is None and none.slo is None
        full = ServePolicy.preset("full", queue_capacity=16, slo=1e-3)
        assert full.queue_capacity == 16 and full.slo == 1e-3
        with pytest.raises(ServeError):
            ServePolicy.preset("degrade")  # needs an SLO
        with pytest.raises(ServeError):
            ServePolicy.preset("bogus", slo=1e-3)

    def test_policy_validation(self):
        with pytest.raises(ServeError):
            ServePolicy(max_batch=0)
        with pytest.raises(ServeError):
            ServePolicy(max_wait=-1.0)
        with pytest.raises(ServeError):
            ServePolicy(queue_capacity=0)
        with pytest.raises(ServeError):
            ServePolicy(slo=0.0)


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
class TestDegradation:
    def test_degraded_kwargs_halve_fidelity(self):
        assert degraded_kwargs({"fanouts": (5, 10)}) == {"fanouts": (2, 5)}
        assert degraded_kwargs({"fanouts": (1,)}) == {"fanouts": (1,)}
        assert degraded_kwargs({"layer_width": 256, "num_layers": 2}) == {
            "layer_width": 128,
            "num_layers": 2,
        }

    def test_ladder_engages_under_overload(self, pd):
        spec = WorkloadSpec(
            num_requests=512, arrival_rate=400_000.0, seed=0
        )
        policy = ServePolicy(
            max_batch=8,
            max_wait=5e-4,
            queue_capacity=None,
            slo=5e-4,
            min_samples=16,
        )
        _, report = run_cluster_session(
            pd, device=V100, spec=spec, policy=policy, seed=0
        )
        assert report.degraded > 0
        levels = {log.level for log in report.logs if log.completed}
        assert max(levels) >= 1

    def test_degraded_service_is_cheaper(self, pd):
        # Same stream served entirely at level 0 vs pinned at level 2:
        # the degraded run must finish sooner (smaller fanout, no PCIe).
        spec = WorkloadSpec(num_requests=128, arrival_rate=1e6, seed=0)
        policy = ServePolicy(max_batch=8, max_wait=1e-4, queue_capacity=None)
        sim_full = ClusterSimulator(
            pd, device=V100, policy=policy, cache_ratio=0.1, seed=0
        )
        requests = sim_full.build_workload(spec)
        full = sim_full.run(requests)

        sim_deg = ClusterSimulator(
            pd, device=V100, policy=policy, cache_ratio=0.1, seed=0
        )
        # Pin the ladder at its lowest fidelity; with no SLO in the
        # policy the level never moves.
        sim_deg.replicas[0]._level = 2
        degraded = sim_deg.run(requests)
        assert degraded.makespan < full.makespan
        assert all(
            log.level == 2 for log in degraded.logs if log.completed
        )

    def test_cached_only_fetch_skips_pcie(self, pd):
        policy = ServePolicy(max_batch=4, max_wait=1e-4, queue_capacity=None)
        sim = ClusterSimulator(
            pd, device=V100, policy=policy, cache_ratio=0.2, seed=0
        )
        sim.replicas[0]._level = 2
        sim.run(_manual_requests([0.0] * 4, num_nodes=pd.num_nodes))
        fetches = [
            l
            for l in sim.replicas[0].io_ctx.launches
            if l.name == "serve_feature_fetch"
        ]
        assert fetches and all(l.uva_bytes == 0.0 for l in fetches)

    def test_normal_fetch_charges_misses_over_pcie(self, pd):
        policy = ServePolicy(max_batch=4, max_wait=1e-4, queue_capacity=None)
        sim = ClusterSimulator(
            pd, device=V100, policy=policy, cache_ratio=0.2, seed=0
        )
        sim.run(_manual_requests([0.0] * 4, num_nodes=pd.num_nodes))
        fetches = [
            l
            for l in sim.replicas[0].io_ctx.launches
            if l.name == "serve_feature_fetch"
        ]
        assert fetches and all(l.uva_bytes > 0.0 for l in fetches)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_summarize_empty(self):
        report = summarize([])
        assert report.completed == 0
        assert report.p99_ms == 0.0
        assert report.throughput_rps == 0.0
        assert report.batch_histogram == {}

    def test_shed_requests_excluded_from_percentiles(self):
        logs = [
            RequestLog(rid=0, arrival=0.0, admitted=True, start=0.0,
                       completion=1.0, batch_id=0, batch_size=1),
            RequestLog(rid=1, arrival=0.0, admitted=False),
        ]
        report = summarize(logs)
        assert report.completed == 1
        assert report.shed == 1
        assert report.p50_ms == pytest.approx(1000.0)

    def test_histogram_counts_batches_not_requests(self):
        logs = [
            RequestLog(rid=i, arrival=0.0, admitted=True, start=0.0,
                       completion=1.0, batch_id=0, batch_size=3)
            for i in range(3)
        ] + [
            RequestLog(rid=3, arrival=0.0, admitted=True, start=1.0,
                       completion=2.0, batch_id=1, batch_size=1)
        ]
        report = summarize(logs)
        assert report.batch_histogram == {1: 1, 3: 1}
        assert report.mean_batch == pytest.approx(2.0)

    def test_unknown_algorithm_rejected(self, pd):
        with pytest.raises(ServeError):
            ClusterSimulator(pd, algorithm="deepwalk", device=V100)


# ----------------------------------------------------------------------
# Record schema golden: the six optional feature groups, no session run
# ----------------------------------------------------------------------
_BASE_KEYS = (
    "sim_seconds", "throughput_rps", "p50_ms", "p95_ms", "p99_ms",
    "mean_queue_ms", "mean_batch", "completed", "shed", "degraded",
    "cache_hit_rate",
)
#: ``group -> (report fields that switch it on, the keys it appends)``, in
#: record order.  Literal on purpose: this is the committed lanes' schema.
_GROUP_SCHEMA = {
    "cluster": (
        {"replicas": 2},
        ("replicas", "cross_shard_rows", "cross_shard_bytes", "link_ms"),
    ),
    "task": (
        {"task": "linkpred"},
        ("pairs_served", "compaction_saved_rows"),
    ),
    "composer": (
        {"composer": "superbatch"},
        ("padding_seeds", "dedup_rows", "superbatch_requests", "mean_fused"),
    ),
    "tiered": (
        {"feature_tiers": True},
        ("tier_device_rate", "tier_p2p_rate", "tier_host_rate",
         "tier_remote_rate", "p2p_rows", "p2p_bytes", "p2p_ms"),
    ),
    "elastic": (
        {"elastic": True},
        ("availability", "lost", "retried", "hedged", "failures",
         "scale_ups", "scale_downs", "gpu_seconds", "reprovision_bytes"),
    ),
    "dynamic": (
        {"dynamic": True},
        ("ingested_edges", "deleted_edges", "update_batches", "snapshots",
         "compactions", "mean_staleness_ms", "max_staleness_ms",
         "refresh_ms", "rebalances", "migrated_rows", "migrated_bytes",
         "invalidated_rows"),
    ),
}
#: Lane tag per on/off combination (bit ``i`` = group ``i`` of
#: ``_GROUP_SCHEMA``), recorded from the ``kind`` ladder ``_cmd_serve``
#: carried before ``ServeReport.lane`` replaced it.
_LANES = {
    "000000": "serve", "000001": "dynamic", "000010": "elastic",
    "000011": "dynamic", "000100": "tiered", "000101": "dynamic",
    "000110": "elastic", "000111": "dynamic", "001000": "serve_superbatch",
    "001001": "dynamic", "001010": "elastic", "001011": "dynamic",
    "001100": "tiered", "001101": "dynamic", "001110": "elastic",
    "001111": "dynamic", "010000": "linkpred", "010001": "linkpred_dynamic",
    "010010": "linkpred_elastic", "010011": "linkpred_dynamic",
    "010100": "linkpred_tiered", "010101": "linkpred_dynamic",
    "010110": "linkpred_elastic", "010111": "linkpred_dynamic",
    "011000": "linkpred_serve_superbatch", "011001": "linkpred_dynamic",
    "011010": "linkpred_elastic", "011011": "linkpred_dynamic",
    "011100": "linkpred_tiered", "011101": "linkpred_dynamic",
    "011110": "linkpred_elastic", "011111": "linkpred_dynamic",
    "100000": "cluster", "100001": "dynamic", "100010": "elastic",
    "100011": "dynamic", "100100": "tiered", "100101": "dynamic",
    "100110": "elastic", "100111": "dynamic", "101000": "cluster_superbatch",
    "101001": "dynamic", "101010": "elastic", "101011": "dynamic",
    "101100": "tiered", "101101": "dynamic", "101110": "elastic",
    "101111": "dynamic", "110000": "linkpred_cluster",
    "110001": "linkpred_dynamic", "110010": "linkpred_elastic",
    "110011": "linkpred_dynamic", "110100": "linkpred_tiered",
    "110101": "linkpred_dynamic", "110110": "linkpred_elastic",
    "110111": "linkpred_dynamic", "111000": "linkpred_cluster_superbatch",
    "111001": "linkpred_dynamic", "111010": "linkpred_elastic",
    "111011": "linkpred_dynamic", "111100": "linkpred_tiered",
    "111101": "linkpred_dynamic", "111110": "linkpred_elastic",
    "111111": "linkpred_dynamic",
}


class TestRecordSchema:
    @pytest.mark.parametrize("bits", sorted(_LANES))
    def test_every_group_combination(self, bits):
        report = summarize([])
        keys = list(_BASE_KEYS)
        on = []
        for bit, (name, (switch, appended)) in zip(bits, _GROUP_SCHEMA.items()):
            if bit == "1":
                for field, value in switch.items():
                    setattr(report, field, value)
                keys += appended
                on.append(name)
        metrics = report.to_metrics()
        assert list(metrics) == keys
        assert all(type(value) is float for value in metrics.values())
        assert [group.name for group in report.groups()] == on
        assert report.lane == _LANES[bits]


# ----------------------------------------------------------------------
# Determinism guard (satellite): bit-identical logs and percentiles
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("process", ["poisson", "bursty"])
    def test_two_runs_bit_identical(self, pd, process):
        spec = WorkloadSpec(
            num_requests=192,
            arrival_rate=100_000.0,
            process=process,
            seed=11,
        )
        policy = ServePolicy(
            max_batch=8, max_wait=5e-4, queue_capacity=32, slo=2e-3
        )
        _, a = run_cluster_session(
            pd, device=V100, spec=spec, policy=policy, seed=11
        )
        _, b = run_cluster_session(
            pd, device=V100, spec=spec, policy=policy, seed=11
        )
        assert a.fingerprint() == b.fingerprint()
        assert a.to_metrics() == b.to_metrics()

    def test_different_seed_differs(self, pd):
        spec_a = WorkloadSpec(num_requests=96, arrival_rate=1e5, seed=1)
        spec_b = WorkloadSpec(num_requests=96, arrival_rate=1e5, seed=2)
        _, a = run_cluster_session(pd, device=V100, spec=spec_a, seed=1)
        _, b = run_cluster_session(pd, device=V100, spec=spec_b, seed=2)
        assert a.fingerprint() != b.fingerprint()


# ----------------------------------------------------------------------
# Acceptance criteria
# ----------------------------------------------------------------------
class TestAcceptance:
    def test_batching_doubles_throughput(self, pd):
        spec = WorkloadSpec(num_requests=256, arrival_rate=500_000.0, seed=0)
        results = {}
        for max_batch in (1, 8):
            policy = ServePolicy(
                max_batch=max_batch, max_wait=5e-4, queue_capacity=None
            )
            _, report = run_cluster_session(
                pd, device=V100, spec=spec, policy=policy, seed=0
            )
            results[max_batch] = report.throughput_rps
        assert results[8] >= 2.0 * results[1]

    def test_admission_control_meets_slo_where_none_breaches(self, pd):
        spec = WorkloadSpec(
            num_requests=1024, arrival_rate=400_000.0, seed=0
        )
        slo = 15e-4  # 1.5 simulated ms
        _, uncontrolled = run_cluster_session(
            pd,
            device=V100,
            spec=spec,
            policy=ServePolicy(
                max_batch=8, max_wait=5e-4, queue_capacity=None, slo=None
            ),
            seed=0,
        )
        _, controlled = run_cluster_session(
            pd,
            device=V100,
            spec=spec,
            policy=ServePolicy(
                max_batch=8, max_wait=5e-4, queue_capacity=24, slo=slo
            ),
            seed=0,
        )
        assert uncontrolled.p99_ms > slo * 1e3
        assert controlled.p99_ms <= slo * 1e3
        # Control trades availability for latency, visibly.
        assert controlled.shed > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_serve_command(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "serve",
                "--requests", "96",
                "--scale", "0.1",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p99_ms" in out
        assert "throughput" in out
        assert (tmp_path / "BENCH_serve_graphsage_pd_v100.json").exists()
        assert (tmp_path / "trace_serve_graphsage_pd_v100.json").exists()

    def test_serve_regression_exit_code(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.profile import bench_path

        args = [
            "serve",
            "--requests", "64",
            "--scale", "0.1",
            "--out-dir", str(tmp_path),
            "--fail-on-regression",
        ]
        assert main(args) == 0
        # Poison the recorded p99 so the next identical run "regresses".
        path = bench_path(tmp_path, "serve_graphsage_pd_v100")
        data = json.loads(path.read_text())
        data["metrics"]["p99_ms"] *= 0.5
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(args) == 3
        assert "metrics.p99_ms" in capsys.readouterr().out

    def test_serve_bad_policy_config(self, capsys):
        from repro.cli import main

        code = main(["serve", "--requests", "8", "--max-batch", "0"])
        assert code == 2
        assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Batch-composition fingerprint pins (PR 6)
# ----------------------------------------------------------------------
# The digests pin the exact request-log + percentile fingerprint of each
# composer on a fixed workload.  The FIFO digest predates the composer
# refactor (it is the PR 5 single-replica pin): the pluggable-composer
# batcher must reproduce the legacy batcher bit-for-bit.  The binned pin
# uses a heterogeneous seed-count stream — on a uniform stream every
# request lands in one bin and binned degenerates to FIFO.
PIN_SPEC = WorkloadSpec(num_requests=192, arrival_rate=100_000.0, seed=11)
PIN_HET_SPEC = WorkloadSpec(
    num_requests=192,
    arrival_rate=100_000.0,
    seeds_per_request=4,
    max_seeds_per_request=32,
    seed=11,
)
PIN_POLICY = ServePolicy(max_batch=8, max_wait=5e-4, queue_capacity=32, slo=2e-3)
FIFO_PIN = "a026a063925fbfbc035081d78798ab5fe441e64d7426000801a66ad8d9cc6c85"
FIFO_HET_PIN = "501ad9a23f340338e2e394c7f393ea68d2b73509d22edc447756a0d26dc8d129"
BINNED_PIN = "19dc9c7149fbed1b14e38e2cdc4e3a18edf99bef559e4e08f553688f05349092"
SUPERBATCH_PIN = "4ae6250e329cd61d90f8846a77e0d56052599c45204edcb6b1c95112487919cb"


def _digest(report):
    import hashlib

    return hashlib.sha256(repr(report.fingerprint()).encode()).hexdigest()


class TestComposerPins:
    def test_fifo_matches_pre_refactor_pin(self, pd):
        _, report = run_cluster_session(
            pd,
            device=V100,
            spec=PIN_SPEC,
            policy=PIN_POLICY,
            composer="fifo",
            seed=11,
        )
        assert report.composer == "fifo"
        assert _digest(report) == FIFO_PIN

    def test_default_composer_is_fifo_and_pinned(self, pd):
        # Callers that never heard of composers get the legacy behavior.
        _, report = run_cluster_session(
            pd, device=V100, spec=PIN_SPEC, policy=PIN_POLICY, seed=11
        )
        assert _digest(report) == FIFO_PIN

    def test_fifo_pin_on_heterogeneous_stream(self, pd):
        _, report = run_cluster_session(
            pd,
            device=V100,
            spec=PIN_HET_SPEC,
            policy=PIN_POLICY,
            composer="fifo",
            seed=11,
        )
        assert _digest(report) == FIFO_HET_PIN

    def test_binned_pin_on_heterogeneous_stream(self, pd):
        _, report = run_cluster_session(
            pd,
            device=V100,
            spec=PIN_HET_SPEC,
            policy=PIN_POLICY,
            composer="binned",
            seed=11,
        )
        assert report.composer == "binned"
        assert _digest(report) == BINNED_PIN

    def test_superbatch_pin(self, pd):
        _, report = run_cluster_session(
            pd,
            device=V100,
            spec=PIN_SPEC,
            policy=PIN_POLICY,
            composer="superbatch",
            seed=11,
        )
        assert report.composer == "superbatch"
        assert _digest(report) == SUPERBATCH_PIN


# ----------------------------------------------------------------------
# Composer-specific serving behavior
# ----------------------------------------------------------------------
class TestComposedServing:
    def test_binned_reduces_padding_vs_fifo(self, pd):
        """On a heterogeneous stream, grouping by seed-count bin pads
        fewer slots than FIFO's arbitrary arrival-order batches."""
        pads = {}
        for composer in ("fifo", "binned"):
            _, report = run_cluster_session(
                pd,
                device=V100,
                spec=PIN_HET_SPEC,
                policy=PIN_POLICY,
                composer=composer,
                seed=11,
            )
            assert report.completed + report.shed == PIN_HET_SPEC.num_requests
            pads[composer] = report.padding_seeds
        assert pads["binned"] < pads["fifo"]

    def test_superbatch_counters_and_metrics(self, pd):
        _, report = run_cluster_session(
            pd,
            device=V100,
            spec=PIN_SPEC,
            policy=PIN_POLICY,
            composer="superbatch",
            seed=11,
        )
        # Every completed request went through the fused path.
        assert report.superbatch_requests == report.completed
        assert report.superbatch_batches > 0
        assert report.superbatch_requests >= report.superbatch_batches
        # The fused fetch deduplicates overlapping frontiers.
        assert report.dedup_rows > 0
        metrics = report.to_metrics()
        assert metrics["superbatch_requests"] == report.superbatch_requests
        assert metrics["dedup_rows"] == report.dedup_rows
        assert metrics["mean_fused"] == pytest.approx(
            report.superbatch_requests / report.superbatch_batches
        )

    def test_fifo_metrics_unchanged_by_refactor(self, pd):
        """FIFO reports keep the exact pre-refactor metric keys — the
        trajectory lanes committed in earlier PRs must not churn."""
        _, report = run_cluster_session(
            pd, device=V100, spec=PIN_SPEC, policy=PIN_POLICY, seed=11
        )
        metrics = report.to_metrics()
        for key in ("padding_seeds", "dedup_rows", "superbatch_requests",
                    "mean_fused"):
            assert key not in metrics

    def test_superbatch_wins_under_overload(self, pd):
        """The amortization claim at the knee: one fused launch sequence
        per window beats per-batch launches once the queue saturates."""
        spec = WorkloadSpec(
            num_requests=256, arrival_rate=400_000.0, seed=0
        )
        policy = ServePolicy(
            max_batch=8, max_wait=5e-4, queue_capacity=64, slo=None
        )
        results = {}
        for composer in ("fifo", "superbatch"):
            _, report = run_cluster_session(
                pd,
                device=V100,
                spec=spec,
                policy=policy,
                composer=composer,
                seed=0,
            )
            results[composer] = report
        fifo, sb = results["fifo"], results["superbatch"]
        assert sb.throughput_rps >= 1.5 * fifo.throughput_rps
        assert sb.p99_ms <= fifo.p99_ms

    def test_superbatch_determinism(self, pd):
        runs = [
            run_cluster_session(
                pd,
                device=V100,
                spec=PIN_SPEC,
                policy=PIN_POLICY,
                composer="superbatch",
                seed=11,
            )[1]
            for _ in range(2)
        ]
        assert runs[0].fingerprint() == runs[1].fingerprint()
        assert runs[0].to_metrics() == runs[1].to_metrics()

    def test_request_log_seeds_outside_fingerprint(self):
        """The new per-request seed-count field is observability only:
        it must not perturb the fingerprint key."""
        log = RequestLog(rid=0, arrival=0.0, admitted=True, seeds=17)
        assert 17 not in log.key()


# ----------------------------------------------------------------------
# Serving-loop regressions (the PR 7 bugfix sweep)
# ----------------------------------------------------------------------
def _all_nodes_union(samples):
    """The fetch union as it was built before ``fetch_union``: each
    request's ``all_nodes``, then their union."""
    per_request = [sample.all_nodes for sample in samples]
    nodes = sorted_unique(np.concatenate(per_request))
    return nodes, sum(n.size for n in per_request) - int(nodes.size)


class TestFetchUnion:
    """The one-pass fetch union equals the per-request ``all_nodes``
    reference, call for call and session for session."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_sessions_equal_the_per_request_reference(self, pd, seed, monkeypatch):
        from repro.serve import replica

        calls = []
        real = replica.fetch_union

        def checked(samples):
            got, want = real(samples), _all_nodes_union(samples)
            np.testing.assert_array_equal(got[0], want[0])
            assert got[0].dtype == want[0].dtype and got[1] == want[1]
            calls.append(len(samples))
            return got

        spec = WorkloadSpec(
            num_requests=192,
            arrival_rate=400_000.0,
            seeds_per_request=4,
            max_seeds_per_request=32,
            seed=seed,
        )
        session = dict(
            device=V100, spec=spec, policy=PIN_POLICY, composer="superbatch",
            num_replicas=2, router="shard", partition="greedy", seed=seed,
        )
        monkeypatch.setattr(replica, "fetch_union", checked)
        _, got = run_cluster_session(pd, **session)
        monkeypatch.setattr(replica, "fetch_union", _all_nodes_union)
        _, want = run_cluster_session(pd, **session)
        assert calls and max(calls) > 1
        assert got.dedup_rows == want.dedup_rows > 0
        assert got.fingerprint() == want.fingerprint()

    def test_single_and_empty_samples(self, pd):
        from repro.core import GraphSample, SampledLayer
        from repro.serve.replica import fetch_union

        layer = SampledLayer(None, np.array([4, 1]), np.array([9, 4, 4]))
        samples = [
            GraphSample(seeds=np.array([4, 1]), layers=[layer]),
            GraphSample(seeds=np.array([], dtype=np.int64), layers=[]),
            GraphSample(seeds=np.array([9]), layers=[]),
        ]
        for window in (samples[:1], samples[1:2], samples):
            got, want = fetch_union(window), _all_nodes_union(window)
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1]


class TestServeLoopRegressions:
    def test_in_flight_stays_bounded_over_long_stream(self, pd):
        """``_in_flight`` once grew one entry per request for the whole
        session (pruned only when ``outstanding()`` happened to be
        called); it must stay bounded by concurrent in-service work."""
        spec = WorkloadSpec(num_requests=600, arrival_rate=150_000.0, seed=3)
        policy = ServePolicy(max_batch=8, max_wait=5e-4, queue_capacity=64)
        sim = ClusterSimulator(pd, device=V100, policy=policy, seed=3)
        report = sim.run(sim.build_workload(spec))
        assert report.completed > 500
        # Never called outstanding(): the bound must come from the
        # completion-path prune alone.  Leak regression would leave
        # ~report.completed entries here.
        assert len(sim.replicas[0]._in_flight) <= 64

    def _ladder_transitions(self, sim, latencies):
        """Feed synthetic completions; return the push index of every
        ladder transition."""
        transitions = []
        for i, latency in enumerate(latencies):
            before = sim._level
            sim._observe(latency)
            if sim._level != before:
                transitions.append(i)
        return transitions

    def test_ladder_waits_min_samples_per_level(self, pd):
        """A step overload must move the ladder one rung per
        ``min_samples`` completions, not cascade on stale samples."""
        policy = ServePolicy(
            max_batch=8,
            max_wait=5e-4,
            queue_capacity=None,
            slo=1e-3,
            min_samples=16,
        )
        sim = ClusterSimulator(pd, device=V100, policy=policy).replicas[0]
        # Step change: every completion suddenly breaches the SLO.
        transitions = self._ladder_transitions(sim, [5e-3] * 48)
        assert sim._level == 2
        assert len(transitions) == 2
        # Each rung waited a full window of post-transition samples.
        assert transitions[0] == 15
        assert transitions[1] - transitions[0] >= policy.min_samples

    def test_ladder_recovery_waits_min_samples_per_level(self, pd):
        policy = ServePolicy(
            max_batch=8,
            max_wait=5e-4,
            queue_capacity=None,
            slo=1e-3,
            min_samples=16,
        )
        sim = ClusterSimulator(pd, device=V100, policy=policy).replicas[0]
        sim._level = 2
        # Step recovery: latencies land well under RECOVER_MARGIN * slo.
        transitions = self._ladder_transitions(sim, [1e-4] * 48)
        assert sim._level == 0
        assert len(transitions) == 2
        assert transitions[1] - transitions[0] >= policy.min_samples

    def test_ladder_no_flapping_at_boundary(self, pd):
        """Latencies straddling the SLO must not toggle the ladder every
        sample: at most one transition per ``min_samples`` pushes."""
        policy = ServePolicy(
            max_batch=8,
            max_wait=5e-4,
            queue_capacity=None,
            slo=1e-3,
            min_samples=16,
        )
        sim = ClusterSimulator(pd, device=V100, policy=policy).replicas[0]
        # Alternate just-over / just-under the SLO for 160 completions.
        latencies = [1.05e-3 if i % 2 else 0.95e-3 for i in range(160)]
        transitions = self._ladder_transitions(sim, latencies)
        for a, b in zip(transitions, transitions[1:]):
            assert b - a >= policy.min_samples
