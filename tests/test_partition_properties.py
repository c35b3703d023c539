"""Property tests for repro.partition: ownership, determinism, drift.

Fuzzed invariants over the partitioners, the shard views, and the
incremental-repartition layer:

* **partition of unity** — every node is owned by exactly one shard,
  for every method and fuzzed shard count;
* **seed determinism** — equal seeds give bit-identical assignments;
* **view consistency** — :meth:`ShardView.contains` and
  :meth:`ShardView.remote_count` agree with the assignment array under
  fuzzed node queries;
* **tracker drift** — :class:`PartitionTracker` degree sums follow the
  applied deltas exactly, and ``rebase`` silences the trigger;
* **bounded migration** — :func:`incremental_rebalance` plans are
  valid, bounded, deterministic, and never worsen the degree balance;
  :func:`full_repartition` reports exactly the changed nodes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import new_rng
from repro.core.matrix import from_edges
from repro.errors import ShapeError
from repro.partition import (
    PARTITION_METHODS,
    GraphPartition,
    PartitionTracker,
    full_repartition,
    incremental_rebalance,
    make_partition,
)


def _random_graph(num_nodes=120, avg_degree=6, seed=0):
    rng = new_rng(seed)
    extra = num_nodes * (avg_degree - 1)
    src = np.concatenate(
        [rng.integers(0, num_nodes, num_nodes),
         rng.integers(0, num_nodes, extra)]
    )
    dst = np.concatenate(
        [np.arange(num_nodes), rng.integers(0, num_nodes, extra)]
    )
    return from_edges(src, dst, num_nodes, layout="csc")


# ----------------------------------------------------------------------
# Partition-of-unity + determinism
# ----------------------------------------------------------------------
class TestPartitionOfUnity:
    @pytest.mark.parametrize("method", sorted(PARTITION_METHODS))
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 8])
    def test_every_node_owned_exactly_once(self, method, num_shards):
        graph = _random_graph(seed=3)
        partition = make_partition(method, graph, num_shards, seed=1)
        # The assignment covers every node with a valid shard id...
        assert partition.assignment.shape == (graph.shape[1],)
        assert partition.assignment.min() >= 0
        assert partition.assignment.max() < num_shards
        # ...and the views tile the node set without overlap.
        counts = np.zeros(graph.shape[1], dtype=np.int64)
        for view in map(partition.view, range(num_shards)):
            counts[view.nodes] += 1
            assert np.array_equal(np.flatnonzero(view.mask), view.nodes)
        assert np.all(counts == 1)

    @pytest.mark.parametrize("method", sorted(PARTITION_METHODS))
    def test_seed_determinism(self, method):
        graph = _random_graph(seed=4)
        a = make_partition(method, graph, 4, seed=9)
        b = make_partition(method, graph, 4, seed=9)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.edge_cut == b.edge_cut
        np.testing.assert_array_equal(a.shard_degrees, b.shard_degrees)

    def test_degree_sums_match_assignment(self):
        graph = _random_graph(seed=5)
        degrees = np.diff(graph.get("csc").indptr)
        for method in sorted(PARTITION_METHODS):
            partition = make_partition(method, graph, 3, seed=2)
            for shard in range(3):
                mine = partition.assignment == shard
                assert partition.shard_degrees[shard] == degrees[mine].sum()


# ----------------------------------------------------------------------
# ShardView queries under fuzzed assignments
# ----------------------------------------------------------------------
class TestShardViewQueries:
    @pytest.mark.parametrize("trial", range(5))
    def test_views_agree_with_fuzzed_assignment(self, trial):
        rng = new_rng(100 + trial)
        num_nodes = int(rng.integers(20, 200))
        num_shards = int(rng.integers(1, 6))
        assignment = rng.integers(0, num_shards, num_nodes).astype(np.int64)
        degrees = rng.integers(0, 10, num_nodes).astype(np.int64)
        partition = GraphPartition(
            method="fuzz",
            num_shards=num_shards,
            assignment=assignment,
            edge_cut=0.0,
            shard_degrees=np.bincount(
                assignment, weights=degrees, minlength=num_shards
            ).astype(np.int64),
        )
        queries = rng.integers(0, num_nodes, 64)
        for shard in range(num_shards):
            view = partition.view(shard)
            owned = view.contains(queries)
            np.testing.assert_array_equal(owned, assignment[queries] == shard)
            assert view.remote_count(queries) == int(
                np.count_nonzero(assignment[queries] != shard)
            )
        # Each query is owned by exactly one view.
        owners = np.stack(
            [partition.view(s).contains(queries)
             for s in range(num_shards)]
        )
        assert np.all(owners.sum(axis=0) == 1)

    def test_empty_query_arrays(self):
        partition = make_partition("hash", _random_graph(), 2, seed=0)
        view = partition.view(0)
        assert view.contains(np.array([], dtype=np.int64)).size == 0
        assert view.remote_count(np.array([], dtype=np.int64)) == 0


# ----------------------------------------------------------------------
# Drift tracking
# ----------------------------------------------------------------------
class TestPartitionTracker:
    def test_degree_sums_follow_deltas_exactly(self):
        graph = _random_graph(seed=6)
        partition = make_partition("greedy", graph, 3, seed=0)
        tracker = PartitionTracker(partition)
        rng = new_rng(7)
        expected = partition.shard_degrees.astype(np.float64).copy()
        for _ in range(10):
            n = int(rng.integers(1, 16))
            src = rng.integers(0, graph.shape[1], n)
            dst = rng.integers(0, graph.shape[1], n)
            delete = rng.random(n) < 0.3
            tracker.apply_updates(src, dst, delete)
            sign = np.where(delete, -1.0, 1.0)
            expected += np.bincount(
                partition.assignment[dst], weights=sign, minlength=3
            )
        np.testing.assert_allclose(tracker.shard_degrees, expected)

    def test_skewed_inserts_raise_drift_and_rebase_clears_it(self):
        graph = _random_graph(seed=8)
        partition = make_partition("greedy", graph, 2, seed=0)
        tracker = PartitionTracker(partition)
        assert tracker.drift == 0.0
        # Pile edges onto one shard's nodes.
        target = partition.view(0).nodes[:10]
        src = np.zeros(500, dtype=np.int64)
        dst = np.resize(target, 500)
        tracker.apply_updates(src, dst, np.zeros(500, dtype=bool))
        assert tracker.drift > 0.0
        assert tracker.needs_rebalance(tracker.drift / 2)
        assert not tracker.needs_rebalance(tracker.drift * 2)
        tracker.rebase(partition)
        assert tracker.drift == 0.0


# ----------------------------------------------------------------------
# Incremental rebalance / full repartition
# ----------------------------------------------------------------------
def _unbalance(partition, fraction=0.25):
    """Move a fraction of shard 1's nodes to shard 0 to force drift."""
    assignment = partition.assignment.copy()
    donors = np.flatnonzero(assignment == 1)
    assignment[donors[: int(len(donors) * fraction)]] = 0
    return assignment


class TestIncrementalRebalance:
    def test_plan_validity_and_bound(self):
        graph = _random_graph(seed=9)
        partition = make_partition("greedy", graph, 2, seed=0)
        assignment = _unbalance(partition)
        plan = incremental_rebalance(
            graph, assignment, 2, target_balance=1.0, max_moves=16
        )
        assert plan.num_moved <= 16
        assert plan.assignment.shape == assignment.shape
        # Moved nodes really changed shard; unmoved nodes did not.
        changed = np.flatnonzero(plan.assignment != assignment)
        np.testing.assert_array_equal(np.sort(plan.moved_nodes), changed)
        np.testing.assert_array_equal(
            plan.sources, assignment[plan.moved_nodes]
        )
        np.testing.assert_array_equal(
            plan.targets, plan.assignment[plan.moved_nodes]
        )
        assert plan.migration_bytes(1024) == plan.num_moved * 1024
        in_rows = sum(plan.rows_into(s).size for s in range(2))
        out_rows = sum(np.count_nonzero(plan.sources == s) for s in range(2))
        assert in_rows == out_rows == plan.num_moved

    def test_balance_never_worsens(self):
        graph = _random_graph(seed=10)
        partition = make_partition("greedy", graph, 3, seed=0)
        assignment = _unbalance(partition, fraction=0.5)
        degrees = np.diff(graph.get("csc").indptr).astype(np.float64)

        def balance(a):
            loads = np.bincount(a, weights=degrees, minlength=3)
            return loads.max() / loads.mean()

        plan = incremental_rebalance(
            graph, assignment, 3, target_balance=1.0, max_moves=64
        )
        assert plan.num_moved > 0
        assert balance(plan.assignment) <= balance(assignment)

    def test_deterministic(self):
        graph = _random_graph(seed=11)
        partition = make_partition("greedy", graph, 2, seed=0)
        assignment = _unbalance(partition)
        a = incremental_rebalance(graph, assignment, 2, max_moves=32)
        b = incremental_rebalance(graph, assignment, 2, max_moves=32)
        np.testing.assert_array_equal(a.moved_nodes, b.moved_nodes)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.edge_cut == b.edge_cut

    def test_balanced_input_moves_nothing(self):
        graph = _random_graph(seed=12)
        partition = make_partition("greedy", graph, 2, seed=0)
        plan = incremental_rebalance(
            graph,
            partition.assignment,
            2,
            target_balance=max(PartitionTracker(partition).degree_balance(), 1.0),
        )
        assert plan.num_moved == 0
        np.testing.assert_array_equal(plan.assignment, partition.assignment)

    def test_input_validation(self):
        graph = _random_graph(seed=13)
        with pytest.raises(ShapeError):
            incremental_rebalance(graph, np.zeros(3), 2)
        with pytest.raises(ShapeError):
            incremental_rebalance(
                graph, np.zeros(graph.shape[1]), 2, max_moves=0
            )
        with pytest.raises(ShapeError):
            incremental_rebalance(
                graph, np.zeros(graph.shape[1]), 2, target_balance=0.5
            )

    def test_full_repartition_reports_changed_nodes(self):
        graph = _random_graph(seed=14)
        partition = make_partition("greedy", graph, 2, seed=0)
        assignment = _unbalance(partition)
        plan = full_repartition(graph, assignment, 2, seed=0)
        np.testing.assert_array_equal(
            plan.moved_nodes,
            np.flatnonzero(plan.assignment != assignment),
        )
        fresh = make_partition("greedy", graph, 2, seed=0)
        np.testing.assert_array_equal(plan.assignment, fresh.assignment)
        assert plan.edge_cut == fresh.edge_cut
