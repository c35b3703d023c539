"""Heterogeneous-graph tests: typed relations, sampling, metapath walks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import new_rng
from repro.core.hetero import HeteroGraph, hetero_from_typed_edges
from repro.core.matrix import Matrix
from repro.errors import GSamplerError, ShapeError
from repro.sparse import COO, convert


def _rel_matrix(src, dst, shape):
    coo = COO(rows=src, cols=dst, values=None, shape=shape)
    return Matrix(convert(coo, "csc"), is_base_graph=True)


@pytest.fixture
def bipartite():
    """Users and items: user-buys-item edges plus item-bought_by-user."""
    buys = _rel_matrix([0, 1, 2, 0], [1, 0, 2, 2], (3, 3))  # user -> item
    bought = _rel_matrix([1, 0, 2, 2], [0, 1, 2, 0], (3, 3))  # item -> user
    return HeteroGraph(
        {"user": 3, "item": 3},
        {
            ("user", "buys", "item"): buys,
            ("item", "bought_by", "user"): bought,
        },
    )


class TestConstruction:
    def test_types_and_relations(self, bipartite):
        assert sorted(bipartite.num_nodes) == ["item", "user"]
        assert len(bipartite.edge_types) == 2

    def test_shape_validated_against_node_counts(self):
        bad = _rel_matrix([0], [0], (2, 2))
        with pytest.raises(ShapeError):
            HeteroGraph({"a": 5, "b": 2}, {("a", "x", "b"): bad})

    def test_unknown_node_type_rejected(self):
        m = _rel_matrix([0], [0], (1, 1))
        with pytest.raises(ShapeError):
            HeteroGraph({"a": 1}, {("a", "x", "ghost"): m})

    def test_unknown_relation_lookup(self, bipartite):
        with pytest.raises(GSamplerError):
            bipartite.matrix(("user", "hates", "item"))


class TestTypedSampling:
    def test_relations_into(self, bipartite):
        into_item = bipartite.relations_into("item")
        assert into_item == [("user", "buys", "item")]

    def test_sample_neighbors_per_relation(self, bipartite):
        out = bipartite.sample_neighbors(
            "item", np.array([0, 1, 2]), 2, rng=new_rng(0)
        )
        assert set(out) == {("user", "buys", "item")}
        sampled = out[("user", "buys", "item")]
        assert sampled.shape == (3, 3)
        assert sampled.nnz <= 6

    def test_sample_neighbors_no_relation(self, bipartite):
        graph = HeteroGraph(
            {"user": 3, "item": 3},
            {("user", "buys", "item"): bipartite.matrix(("user", "buys", "item"))},
        )
        with pytest.raises(GSamplerError):
            graph.sample_neighbors("user", np.array([0]), 1)


class TestMetapathWalk:
    def test_walk_alternates_types(self, bipartite):
        # item <- user <- item: follow bought_by then buys.
        path = [("user", "buys", "item"), ("item", "bought_by", "user")]
        trace = bipartite.metapath_walk(path, np.array([0, 1, 2]), rng=new_rng(1))
        assert trace.shape == (3, 3)
        # Step 1 nodes are users who bought the seed item.
        buys = bipartite.matrix(("user", "buys", "item"))
        from tests.conftest import to_dense

        dense = to_dense(buys)
        for w in range(3):
            seed, step1 = trace[0, w], trace[1, w]
            if step1 >= 0:
                assert dense[step1, seed] != 0

    def test_broken_metapath_rejected(self, bipartite):
        path = [("user", "buys", "item"), ("user", "buys", "item")]
        with pytest.raises(ShapeError):
            bipartite.metapath_walk(path, np.array([0]))

    def test_empty_metapath_rejected(self, bipartite):
        with pytest.raises(ShapeError):
            bipartite.metapath_walk([], np.array([0]))


class TestFromTypedEdges:
    def test_split_into_relations(self):
        # 6 nodes, types [0,0,1,1,2,2]; edges crossing types.
        node_types = np.array([0, 0, 1, 1, 2, 2])
        src = np.array([0, 1, 2, 4, 0])
        dst = np.array([2, 3, 4, 1, 1])
        graph = hetero_from_typed_edges(node_types, src, dst)
        assert graph.num_nodes == {"t0": 2, "t1": 2, "t2": 2}
        assert ("t0", "to", "t1") in graph.relations
        assert ("t1", "to", "t2") in graph.relations
        assert ("t2", "to", "t0") in graph.relations
        assert ("t0", "to", "t0") in graph.relations
        # Edge 0->2 becomes local (0 -> 0) in relation t0->t1.
        m = graph.matrix(("t0", "to", "t1"))
        rows, cols, _ = m.to_coo_arrays()
        assert (0, 0) in set(zip(rows.tolist(), cols.tolist()))

    def test_rectangular_shapes(self):
        node_types = np.array([0, 0, 0, 1])  # 3 of t0, 1 of t1
        graph = hetero_from_typed_edges(
            node_types, np.array([0, 1]), np.array([3, 3])
        )
        assert graph.matrix(("t0", "to", "t1")).shape == (3, 1)

    def test_name_count_checked(self):
        with pytest.raises(ShapeError):
            hetero_from_typed_edges(
                np.array([0, 1]), np.array([0]), np.array([1]),
                type_names=["only_one"],
            )

    def test_sampling_workflow_on_lifted_graph(self):
        rng = np.random.default_rng(0)
        n = 120
        node_types = np.arange(n) % 3
        src = rng.integers(0, n, 900)
        dst = rng.integers(0, n, 900)
        graph = hetero_from_typed_edges(node_types, src, dst)
        out = graph.sample_neighbors(
            "t0", np.arange(10), 3, rng=new_rng(2)
        )
        # All three source types feed t0.
        assert len(out) == 3
        for sampled in out.values():
            degrees = np.diff(sampled.get("csc").indptr)
            assert np.all(degrees <= 3)
