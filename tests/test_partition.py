"""Graph partitioners: determinism, balance, edge cut, shard views.

The contracts under test:

* both partitioners are pure functions of (graph, k, seed) — repeated
  calls produce identical assignments (what the shard-affinity routing
  fingerprint rests on);
* hash partitioning is balanced in expectation and structure-oblivious
  (edge cut near ``(k-1)/k``); greedy cuts far fewer edges on a
  clustered graph while keeping per-shard degree sums balanced;
* :class:`ShardView` answers ownership and remote-count queries
  consistently with the assignment, including duplicates and empties;
* validation rejects nonsense shard counts and unknown methods.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Matrix, from_edges
from repro.datasets import load_dataset
from repro.errors import ShapeError, check_count
from repro.partition import (
    PARTITION_METHODS,
    GraphPartition,
    ShardView,
    greedy_partition,
    hash_assignment,
    hash_partition,
    make_partition,
)
from repro.partition.partitioners import (
    _edge_cut_fraction,
    _graph_csc,
    _shard_degree_sums,
)
from repro.sparse import CSC


@pytest.fixture(scope="module")
def pd_graph():
    return load_dataset("pd", scale=0.25).graph


def _two_cliques(size: int = 8) -> Matrix:
    """Two disjoint cliques — the ideal 2-shard instance (zero cut)."""
    n = 2 * size
    cols = []
    rows = []
    for block in (range(size), range(size, n)):
        block = list(block)
        for v in block:
            cols.append(v)
            rows.extend(u for u in block if u != v)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for v in cols:
        indptr[v + 1] = size - 1
    indptr = np.cumsum(indptr)
    return Matrix(
        CSC(
            indptr=indptr,
            rows=np.array(rows, dtype=np.int64),
            values=None,
            shape=(n, n),
        )
    )


class TestHashPartition:
    def test_deterministic(self, pd_graph):
        a = hash_partition(pd_graph, 4, seed=3)
        b = hash_partition(pd_graph, 4, seed=3)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.edge_cut == b.edge_cut

    def test_seed_changes_assignment(self, pd_graph):
        a = hash_partition(pd_graph, 4, seed=0)
        b = hash_partition(pd_graph, 4, seed=1)
        assert np.any(a.assignment != b.assignment)

    def test_balanced_in_expectation(self):
        assignment = hash_assignment(20_000, 4, seed=0)
        counts = np.bincount(assignment, minlength=4)
        # Each shard within 5% of the fair share at n=20k.
        np.testing.assert_allclose(counts, 5000, rtol=0.05)

    def test_edge_cut_near_oblivious_expectation(self, pd_graph):
        # A structure-oblivious assignment cuts ~(k-1)/k of edges.
        part = hash_partition(pd_graph, 4, seed=0)
        assert 0.65 < part.edge_cut < 0.85

    def test_not_plain_modulo(self):
        assignment = hash_assignment(64, 4, seed=0)
        assert np.any(assignment != np.arange(64) % 4)


class TestGreedyPartition:
    def test_deterministic(self, pd_graph):
        a = greedy_partition(pd_graph, 4)
        b = greedy_partition(pd_graph, 4)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_cuts_fewer_edges_than_hash(self, pd_graph):
        hashed = hash_partition(pd_graph, 4, seed=0)
        greedy = greedy_partition(pd_graph, 4)
        assert greedy.edge_cut < hashed.edge_cut

    def test_degree_balanced(self, pd_graph):
        greedy = greedy_partition(pd_graph, 4)
        # Max shard within 10% of the mean shard degree sum.
        assert greedy.degree_balance() < 1.1

    def test_separates_disjoint_cliques(self):
        part = greedy_partition(_two_cliques(), 2)
        # Perfect instance: each clique on its own shard, zero cut.
        assert part.edge_cut == 0.0
        assert len(np.unique(part.assignment[:8])) == 1
        assert len(np.unique(part.assignment[8:])) == 1
        assert part.assignment[0] != part.assignment[8]

    def test_assigns_every_node(self, pd_graph):
        part = greedy_partition(pd_graph, 3)
        assert np.all(part.assignment >= 0)
        assert np.all(part.assignment < 3)


def _parent_greedy_partition(graph, num_shards: int) -> GraphPartition:
    """The per-node ``lexsort`` loop ``greedy_partition`` replaced, kept
    verbatim as its oracle."""
    check_count("shard count", num_shards)
    indptr, rows = _graph_csc(graph)
    num_nodes = len(indptr) - 1
    degrees = np.diff(indptr)
    assignment = np.full(num_nodes, -1, dtype=np.int64)
    loads = np.zeros(num_shards, dtype=np.float64)
    # Fair share of degree per shard; the +1 keeps a degenerate all-
    # isolated graph from dividing by zero.
    budget = max(float(degrees.sum()) / num_shards, 1.0)
    order = np.argsort(-degrees.astype(np.float64), kind="stable")
    for node in order:
        neighbors = rows[indptr[node] : indptr[node + 1]]
        placed = assignment[neighbors]
        affinity = np.bincount(
            placed[placed >= 0], minlength=num_shards
        ).astype(np.float64)
        score = affinity * np.maximum(0.0, 1.0 - loads / budget)
        # argmax with deterministic ties: best score, then lightest
        # shard, then lowest id (lexsort's last key is most significant).
        best = np.lexsort((np.arange(num_shards), loads, -score))[0]
        assignment[node] = best
        loads[best] += float(degrees[node])
    return GraphPartition(
        method="greedy",
        num_shards=num_shards,
        assignment=assignment,
        edge_cut=_edge_cut_fraction(indptr, rows, assignment),
        shard_degrees=_shard_degree_sums(degrees, assignment, num_shards),
    )


def _edges(num_nodes: int, pairs: list[tuple[int, int]]) -> Matrix:
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return from_edges(src, dst, num_nodes)


#: Small graphs that stress the tie-break and the degenerate paths.
_ADVERSARIAL = {
    # Every node has in-degree 2: the visit order and every early
    # placement are pure ties.
    "equal_degrees": _edges(
        9, [(v, (v + 1) % 9) for v in range(9)] + [(v, (v + 4) % 9) for v in range(9)]
    ),
    "self_loops": _edges(6, [(v, v) for v in range(6)] + [(0, 1), (2, 3), (4, 5)]),
    "multi_edges": _edges(5, [(0, 1)] * 4 + [(1, 2)] * 3 + [(3, 4), (4, 3), (2, 0)]),
    "isolated": _edges(10, [(0, 1), (1, 0), (2, 3)]),
    "no_edges": _edges(4, []),
}


class TestGreedyOracle:
    """``greedy_partition`` equals the parent loop it replaced."""

    @staticmethod
    def _assert_same(got: GraphPartition, want: GraphPartition) -> None:
        np.testing.assert_array_equal(got.assignment, want.assignment)
        assert got.assignment.dtype == want.assignment.dtype
        assert got.edge_cut == want.edge_cut
        np.testing.assert_array_equal(got.shard_degrees, want.shard_degrees)

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("name", ["pd", "lj"])
    def test_datasets(self, name, num_shards):
        graph = load_dataset(name).graph
        self._assert_same(
            greedy_partition(graph, num_shards),
            _parent_greedy_partition(graph, num_shards),
        )

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7, 16])
    @pytest.mark.parametrize("name", sorted(_ADVERSARIAL))
    def test_adversarial_graphs(self, name, num_shards):
        # k = 7 and 16 exceed several graphs' node counts.
        graph = _ADVERSARIAL[name]
        self._assert_same(
            greedy_partition(graph, num_shards),
            _parent_greedy_partition(graph, num_shards),
        )


class TestShardView:
    def test_views_partition_the_nodes(self, pd_graph):
        part = make_partition("hash", pd_graph, 3, seed=0)
        views = part.views()
        all_nodes = np.concatenate([v.nodes for v in views])
        assert len(all_nodes) == part.num_nodes
        assert len(np.unique(all_nodes)) == part.num_nodes

    def test_contains_matches_assignment(self, pd_graph):
        part = make_partition("hash", pd_graph, 3, seed=0)
        probe = np.arange(0, part.num_nodes, 7, dtype=np.int64)
        for view in part.views():
            np.testing.assert_array_equal(
                view.contains(probe), part.shard_of(probe) == view.shard_id
            )

    def test_remote_count_counts_duplicates(self, pd_graph):
        part = make_partition("hash", pd_graph, 2, seed=0)
        view = part.view(0)
        local = view.nodes[0]
        remote = part.view(1).nodes[0]
        nodes = np.array([local, remote, remote, local], dtype=np.int64)
        assert view.remote_count(nodes) == 2

    def test_empty_queries(self, pd_graph):
        view = make_partition("hash", pd_graph, 2, seed=0).view(0)
        empty = np.array([], dtype=np.int64)
        assert view.remote_count(empty) == 0
        assert view.contains(empty).size == 0

    def test_degree_sum_matches_view(self, pd_graph):
        part = make_partition("greedy", pd_graph, 2)
        degrees = np.diff(pd_graph.get("csc").indptr)
        for view in part.views():
            assert view.degree_sum == int(degrees[view.nodes].sum())


class TestValidation:
    def test_shard_count(self, pd_graph):
        for method in PARTITION_METHODS:
            with pytest.raises(ShapeError):
                make_partition(method, pd_graph, 0)

    def test_unknown_method(self, pd_graph):
        with pytest.raises(ShapeError):
            make_partition("metis", pd_graph, 2)

    def test_view_range(self, pd_graph):
        part = make_partition("hash", pd_graph, 2, seed=0)
        with pytest.raises(ShapeError):
            part.view(2)
        with pytest.raises(ShapeError):
            part.view(-1)

    def test_partition_types(self, pd_graph):
        part = make_partition("hash", pd_graph, 2, seed=0)
        assert isinstance(part, GraphPartition)
        assert all(isinstance(v, ShardView) for v in part.views())
