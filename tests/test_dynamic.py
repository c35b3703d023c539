"""Dynamic graphs: DeltaGraph semantics, streams, serve-while-ingesting.

The contracts under test:

* :class:`DeltaGraph` applies inserts/deletes with deterministic
  matching, tracks live degrees and dirty nodes, and its
  :meth:`compact` is bit-identical to a fresh ``from_edges`` over the
  same canonical edge set — weighted and unweighted bases alike;
* update streams are bit-identical under equal specs;
* zero-ingest dynamic sessions reproduce the pinned static
  fingerprints unchanged (the do-no-harm guarantee);
* ingesting sessions are deterministic run-over-run, report staleness
  consistently, and — past the drift threshold — trigger a bounded
  incremental rebalance that migrates rows over the link;
* a session served over a compacted graph is bit-identical to one
  served over a fresh CSR of the same edge set;
* ``repro.verify``'s dynamic check passes at reduced trials.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.matrix import from_edges
from repro.datasets import load_dataset
from repro.device import V100
from repro.dynamic import (
    DeltaGraph,
    DynamicPolicy,
    UpdateSpec,
    generate_update_stream,
)
from repro.errors import ServeError, ShapeError
from repro.serve import ServePolicy, WorkloadSpec, run_cluster_session

PIN_SPEC = WorkloadSpec(num_requests=192, arrival_rate=100_000.0, seed=11)
PIN_POLICY = ServePolicy(
    max_batch=8, max_wait=5e-4, queue_capacity=32, slo=2e-3
)
#: The PR 5 single-replica FIFO pin (tests/test_serve.py): zero-ingest
#: dynamic plumbing must leave it untouched.
FIFO_PIN = "a026a063925fbfbc035081d78798ab5fe441e64d7426000801a66ad8d9cc6c85"


def _digest(report):
    return hashlib.sha256(repr(report.fingerprint()).encode()).hexdigest()


@pytest.fixture(scope="module")
def pd():
    return load_dataset("pd", scale=0.25)


def _toy_graph(weighted=False):
    src = np.array([1, 2, 0, 2, 0, 1, 3, 0])
    dst = np.array([0, 0, 1, 1, 2, 2, 2, 3])
    weights = (
        np.linspace(0.1, 0.8, src.size).astype(np.float32)
        if weighted
        else None
    )
    return from_edges(src, dst, 4, weights=weights, layout="csc")


# ----------------------------------------------------------------------
# DeltaGraph semantics
# ----------------------------------------------------------------------
class TestDeltaGraph:
    def test_insert_updates_degrees_and_dirty(self):
        delta = DeltaGraph(_toy_graph())
        before = delta.degrees()
        delta.insert_edges([3, 3], [0, 0])
        after = delta.degrees()
        assert after[0] == before[0] + 2
        assert delta.num_live_edges == 10
        assert list(delta.dirty_nodes()) == [0]
        assert list(delta.drain_dirty()) == [0]
        assert delta.dirty_nodes().size == 0

    def test_delete_matches_base_then_inserts(self):
        delta = DeltaGraph(_toy_graph())
        delta.insert_edges([1], [0])  # second copy of 1 -> 0
        assert delta.delete_edges([1], [0]) == 1  # tombstones the base copy
        assert delta.delete_edges([1], [0]) == 1  # then the inserted copy
        assert delta.delete_edges([1], [0]) == 0  # nothing left: missed
        assert delta.missed_deletes == 1
        assert delta.degrees()[0] == 1  # only 2 -> 0 survives

    def test_missed_delete_is_noop(self):
        delta = DeltaGraph(_toy_graph())
        live = delta.num_live_edges
        assert delta.delete_edges([3], [3]) == 0
        assert delta.num_live_edges == live
        assert delta.missed_deletes == 1

    def test_endpoint_validation(self):
        delta = DeltaGraph(_toy_graph())
        with pytest.raises(ShapeError):
            delta.insert_edges([0, 1], [2])
        with pytest.raises(ShapeError):
            delta.insert_edges([0], [9])

    def test_compact_bit_identical_to_fresh_unweighted(self):
        delta = DeltaGraph(_toy_graph())
        delta.insert_edges([3, 2, 1], [1, 3, 3])
        delta.delete_edges([0], [2])
        src, dst, val = delta.canonical_edges()
        assert val is None
        compacted = delta.compact().get("csc")
        fresh = from_edges(src, dst, 4, layout="csc").get("csc")
        np.testing.assert_array_equal(compacted.indptr, fresh.indptr)
        np.testing.assert_array_equal(compacted.rows, fresh.rows)
        np.testing.assert_array_equal(compacted.edge_ids, fresh.edge_ids)
        assert compacted.values is None

    def test_compact_bit_identical_to_fresh_weighted(self):
        delta = DeltaGraph(_toy_graph(weighted=True))
        assert delta.weighted
        delta.insert_edges([3, 2], [1, 3], weights=[0.5, 0.25])
        delta.delete_edges([1], [0])
        src, dst, val = delta.canonical_edges()
        compacted = delta.compact().get("csc")
        fresh = from_edges(src, dst, 4, weights=val, layout="csc").get("csc")
        np.testing.assert_array_equal(compacted.indptr, fresh.indptr)
        np.testing.assert_array_equal(compacted.rows, fresh.rows)
        np.testing.assert_array_equal(compacted.edge_ids, fresh.edge_ids)
        np.testing.assert_array_equal(compacted.values, fresh.values)

    def test_compact_resets_delta_state(self):
        delta = DeltaGraph(_toy_graph())
        delta.insert_edges([3], [1])
        delta.delete_edges([0], [3])
        live = delta.num_live_edges
        compacted = delta.compact()
        assert delta.base_nnz == live == delta.num_live_edges
        # No insert buffer or tombstone is left to charge a merge for.
        assert delta.merge_workload() == DeltaGraph(compacted).merge_workload()
        assert delta.compactions == 1
        # Counters are session-lifetime.
        assert delta.inserted_edges == 1 and delta.deleted_edges == 1

    def test_snapshot_preserves_weights_and_edge_count(self):
        delta = DeltaGraph(_toy_graph(weighted=True))
        delta.insert_edges([3], [0], weights=[0.9])
        snap = delta.snapshot().get("csc")
        assert snap.nnz == delta.num_live_edges
        assert snap.values is not None
        # The inserted edge sits after node 0's base survivors and
        # carries its own weight.
        col0 = slice(snap.indptr[0], snap.indptr[1])
        assert snap.rows[col0][-1] == 3
        assert snap.values[col0][-1] == np.float32(0.9)

    def test_unweighted_base_ignores_streamed_weights(self):
        delta = DeltaGraph(_toy_graph())
        delta.insert_edges([3], [0], weights=[0.9])
        assert delta.snapshot().get("csc").values is None

    def test_rejects_rectangular_base(self):
        from repro.sparse.formats import CSC
        from repro.core.matrix import Matrix

        csc = CSC(
            indptr=np.array([0, 1, 1]),
            rows=np.array([0]),
            values=None,
            shape=(3, 2),
            edge_ids=np.array([0]),
        )
        with pytest.raises(ShapeError):
            DeltaGraph(Matrix(csc))


# ----------------------------------------------------------------------
# Update streams
# ----------------------------------------------------------------------
class TestUpdateStream:
    def test_same_spec_same_stream(self):
        spec = UpdateSpec(num_edges=64, delete_fraction=0.3, seed=4)
        a = generate_update_stream(spec, num_nodes=50)
        b = generate_update_stream(spec, num_nodes=50)
        assert len(a) == len(b) == 64 // 8  # eight edges a batch
        for x, y in zip(a, b):
            assert x.time == y.time
            np.testing.assert_array_equal(x.src, y.src)
            np.testing.assert_array_equal(x.dst, y.dst)
            np.testing.assert_array_equal(x.delete, y.delete)
            np.testing.assert_array_equal(x.weights, y.weights)

    def test_stream_shape_and_ordering(self):
        spec = UpdateSpec(num_edges=30, seed=1)
        stream = generate_update_stream(spec, num_nodes=20)
        assert sum(b.num_edges for b in stream) == 30
        times = [b.time for b in stream]
        assert times == sorted(times)
        assert all(b.time > 0 for b in stream)

    def test_deletes_only_target_prior_inserts(self):
        spec = UpdateSpec(num_edges=200, delete_fraction=0.4, seed=2)
        stream = generate_update_stream(spec, num_nodes=30)
        inserted: set[tuple[int, int]] = set()
        deletes = 0
        for batch in stream:
            for u, v, d in zip(
                batch.src.tolist(), batch.dst.tolist(), batch.delete.tolist()
            ):
                if d:
                    deletes += 1
                    assert (u, v) in inserted
                else:
                    inserted.add((u, v))
        assert 0 < deletes < 200

    def test_spec_validation(self):
        with pytest.raises(ServeError):
            UpdateSpec(num_edges=0)
        with pytest.raises(ServeError):
            UpdateSpec(rate=0.0)
        with pytest.raises(ServeError):
            UpdateSpec(delete_fraction=1.0)
        with pytest.raises(ServeError):
            generate_update_stream(UpdateSpec(), num_nodes=1)

    def test_policy_validation(self):
        with pytest.raises(ServeError):
            DynamicPolicy(snapshot_every=-1.0)
        with pytest.raises(ServeError):
            DynamicPolicy(repartition_threshold=0.0)


# ----------------------------------------------------------------------
# Serve-while-ingesting
# ----------------------------------------------------------------------
UPDATES = UpdateSpec(
    num_edges=192, rate=150_000.0, delete_fraction=0.2, seed=5
)


def _dynamic_session(pd, **kwargs):
    defaults = dict(
        device=V100,
        spec=PIN_SPEC,
        policy=PIN_POLICY,
        seed=11,
        updates=UPDATES,
        dynamic=DynamicPolicy(snapshot_every=2e-4, compact_every=8),
    )
    defaults.update(kwargs)
    return run_cluster_session(pd, **defaults)


class TestServeWhileIngesting:
    def test_zero_ingest_reproduces_static_pin(self, pd):
        _, report = run_cluster_session(
            pd, device=V100, spec=PIN_SPEC, policy=PIN_POLICY, seed=11
        )
        assert not report.dynamic
        assert _digest(report) == FIFO_PIN

    def test_empty_update_list_reproduces_static_pin(self, pd):
        _, report = run_cluster_session(
            pd,
            device=V100,
            spec=PIN_SPEC,
            policy=PIN_POLICY,
            seed=11,
            updates=[],
        )
        assert not report.dynamic
        assert _digest(report) == FIFO_PIN

    def test_two_runs_bit_identical(self, pd):
        _, a = _dynamic_session(pd)
        _, b = _dynamic_session(pd)
        assert a.fingerprint() == b.fingerprint()
        assert _digest(a) == _digest(b)

    def test_dynamic_report_fields(self, pd):
        _, report = _dynamic_session(pd)
        assert report.dynamic
        assert report.update_batches == 192 // 8  # eight edges a batch
        assert report.ingested_edges + report.deleted_edges > 0
        assert report.snapshots + report.compactions > 0
        assert report.max_staleness_ms >= report.mean_staleness_ms >= 0.0
        assert report.refresh_ms > 0.0
        metrics = report.to_metrics()
        assert metrics["update_batches"] == float(report.update_batches)
        assert "invalidated_rows" in metrics

    def test_compacted_graph_session_matches_fresh_csr(self, pd):
        delta = DeltaGraph(pd.graph)
        hotness = np.diff(pd.graph.get("csc").indptr)
        for batch in generate_update_stream(
            UPDATES, num_nodes=pd.num_nodes, hotness=hotness
        ):
            delta.apply(batch)
        src, dst, val = delta.canonical_edges()
        compacted = delta.compact()
        fresh = from_edges(
            src, dst, pd.num_nodes, weights=val, layout="csc"
        )
        _, rep_a = run_cluster_session(
            dataclasses.replace(pd, graph=compacted),
            device=V100,
            spec=PIN_SPEC,
            policy=PIN_POLICY,
            seed=11,
        )
        _, rep_b = run_cluster_session(
            dataclasses.replace(pd, graph=fresh),
            device=V100,
            spec=PIN_SPEC,
            policy=PIN_POLICY,
            seed=11,
        )
        assert _digest(rep_a) == _digest(rep_b)

    def test_staleness_grows_with_snapshot_epoch(self, pd):
        _, fine = _dynamic_session(
            pd, dynamic=DynamicPolicy(snapshot_every=5e-5)
        )
        _, coarse = _dynamic_session(
            pd, dynamic=DynamicPolicy(snapshot_every=2e-3)
        )
        assert fine.snapshots > coarse.snapshots
        assert coarse.mean_staleness_ms > fine.mean_staleness_ms

    def test_repartition_trigger_and_migration(self, pd):
        cluster, report = _dynamic_session(
            pd,
            num_replicas=2,
            router="shard",
            partition="greedy",
            updates=UpdateSpec(
                num_edges=2048,
                rate=300_000.0,
                delete_fraction=0.1,
                seed=5,
            ),
            dynamic=DynamicPolicy(
                snapshot_every=2e-4,
                repartition_threshold=1e-5,
            ),
        )
        assert report.rebalances >= 1
        assert report.migrated_rows > 0
        assert report.migrated_bytes > 0
        # The router follows the repartition.
        assert cluster.router.partition is cluster.partition
        # Every node still owned by exactly one shard.
        assert cluster.partition.assignment.shape == (pd.num_nodes,)
        assert set(np.unique(cluster.partition.assignment)) <= {0, 1}

    def test_repartition_threshold_requires_partition(self, pd):
        with pytest.raises(ServeError):
            _dynamic_session(
                pd,
                dynamic=DynamicPolicy(
                    snapshot_every=2e-4, repartition_threshold=0.1
                ),
            )

    def test_cache_invalidation_accounted(self, pd):
        _, report = _dynamic_session(pd)
        assert report.cache is not None
        assert report.cache.invalidated_rows >= 0
        # Hot-skewed inserts touch hot (cached) rows, so some
        # invalidation must actually happen in this session.
        assert report.cache.invalidated_rows > 0


# ----------------------------------------------------------------------
# Verify integration
# ----------------------------------------------------------------------
class TestDynamicVerify:
    def test_check_passes_at_reduced_trials(self):
        from repro.verify import check_dynamic_equivalence

        check = check_dynamic_equivalence(trials=40)
        assert check.storage_identical
        assert check.samples_identical
        assert check.compact_digest == check.fresh_digest
        assert check.passed
        line = check.describe()
        assert line.startswith(
            f"dynamic[graphsage]: storage == fresh ({check.compact_digest[:12]}), "
            "samples ==, snapshot-vs-rebuilt: chi2="
        )
        assert line.endswith("[ok] [ok]")

    def test_graph_digest_distinguishes_graphs(self):
        from repro.verify import graph_digest

        a = _toy_graph(weighted=True)
        b = _toy_graph(weighted=False)
        assert graph_digest(a) != graph_digest(b)
        assert graph_digest(a) == graph_digest(_toy_graph(weighted=True))
