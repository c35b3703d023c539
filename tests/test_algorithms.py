"""Algorithm tests: all 15 Table-2 algorithms produce valid samples, plus
per-algorithm semantic invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    BENCHMARKED,
    available_algorithms,
    make_algorithm,
)
from repro.algorithms.seal import drnl_labels
from repro.algorithms.walks import WalkResult, top_k_per_segment
from repro.core import GraphSample, new_rng
from repro.device import ExecutionContext, V100
from repro.errors import GSamplerError, ShapeError

from tests.conftest import to_dense


@pytest.fixture
def features(rng):
    return rng.random((200, 16)).astype(np.float32)


def _build(name, graph, features, **kwargs):
    algo = make_algorithm(name, **kwargs)
    return algo, algo.build(graph, np.arange(16), features=features)


class TestRegistry:
    def test_all_registered(self):
        # 15 Table-2 algorithms plus the LABOR variance-reduced sampler.
        assert len(available_algorithms()) == 16

    def test_benchmarked_subset(self):
        assert set(BENCHMARKED) <= set(available_algorithms())

    def test_unknown_rejected(self):
        with pytest.raises(GSamplerError):
            make_algorithm("pagerank")


@pytest.mark.parametrize("name", sorted(set(available_algorithms()) - {"seal"}))
def test_every_algorithm_samples(name, small_graph, features, rng):
    """Every algorithm produces a structurally valid sample batch."""
    _, pipe = _build(name, small_graph, features)
    ctx = ExecutionContext(V100)
    out = pipe.sample_batch(np.arange(16), ctx=ctx, rng=new_rng(0))
    assert ctx.elapsed > 0
    dense = to_dense(small_graph)
    if isinstance(out, GraphSample):
        assert len(out.layers) >= 1
        for layer in out.layers:
            rows, cols, _ = layer.matrix.to_coo_arrays()
            assert set(np.unique(cols)) <= set(layer.input_nodes.tolist())
    elif isinstance(out, WalkResult):
        # Every consecutive walk pair is a graph edge.
        trace = out.trace
        for t in range(trace.shape[0] - 1):
            for w in range(trace.shape[1]):
                cur, nxt = trace[t, w], trace[t + 1, w]
                if cur >= 0 and nxt >= 0:
                    assert dense[nxt, cur] != 0


class TestGraphSAGE:
    def test_fanout_bounds(self, small_graph, rng):
        _, pipe = _build("graphsage", small_graph, None, fanouts=(3, 5))
        out = pipe.sample_batch(np.arange(10), rng=new_rng(1))
        assert len(out.layers) == 2
        assert out.layers[0].num_edges <= 3 * 10
        assert out.layers[1].num_edges <= 5 * len(out.layers[0].output_nodes)

    def test_edges_come_from_graph(self, small_graph):
        _, pipe = _build("graphsage", small_graph, None, fanouts=(4,))
        out = pipe.sample_batch(np.arange(10), rng=new_rng(2))
        dense = to_dense(small_graph)
        rows, cols, _ = out.layers[0].matrix.to_coo_arrays()
        assert all(dense[r, c] != 0 for r, c in zip(rows, cols))


class TestLADIES:
    def test_layer_width_and_normalization(self, small_graph):
        _, pipe = _build("ladies", small_graph, None, layer_width=8, num_layers=2)
        out = pipe.sample_batch(np.arange(20), rng=new_rng(3))
        for layer in out.layers:
            assert layer.matrix.shape[0] <= 8
            col_sums = layer.matrix.sum(axis=1)
            nonzero = col_sums > 0
            np.testing.assert_allclose(col_sums[nonzero], 1.0, atol=1e-4)


class TestFastGCN:
    def test_degree_bias_prefers_hubs(self, small_graph):
        _, pipe = _build("fastgcn", small_graph, None, layer_width=20,
                         num_layers=1)
        degree = to_dense(small_graph).sum(axis=1)
        hub_hits = 0
        top_half = set(np.argsort(degree)[-100:].tolist())
        for seed in range(10):
            out = pipe.sample_batch(np.arange(30), rng=new_rng(seed))
            selected = out.layers[0].matrix.row()
            hub_hits += sum(1 for n in selected if int(n) in top_half)
        assert hub_hits > 120  # hubs picked far more often than half


class TestWalkAlgorithms:
    def test_deepwalk_trace_shape(self, small_graph):
        _, pipe = _build("deepwalk", small_graph, None, walk_length=12)
        out = pipe.sample_batch(np.arange(30), rng=new_rng(4))
        assert out.trace.shape == (13, 30)
        np.testing.assert_array_equal(out.trace[0], np.arange(30))

    def test_node2vec_return_bias(self, small_graph):
        # p << 1 makes returning to the previous node overwhelmingly
        # likely whenever it is a neighbor.
        _, pipe = _build(
            "node2vec", small_graph, None, walk_length=6, p=1e-6, q=1e6
        )
        out = pipe.sample_batch(np.arange(40), rng=new_rng(5))
        trace = out.trace
        returns = 0
        opportunities = 0
        dense = to_dense(small_graph)
        for w in range(trace.shape[1]):
            for t in range(2, trace.shape[0]):
                prev, cur, nxt = trace[t - 2, w], trace[t - 1, w], trace[t, w]
                if min(prev, cur, nxt) < 0:
                    continue
                if dense[prev, cur] != 0:  # return edge exists
                    opportunities += 1
                    returns += int(nxt == prev)
        assert opportunities > 0
        assert returns / opportunities > 0.8

    def test_node2vec_adjacency_matches_the_global_edge_search(self, rng):
        """The per-walker CSC lookup answers exactly what the binary
        search in the sorted table of all edges (kept here as the oracle)
        answered — also when rows are unsorted within a column."""
        from repro.algorithms.node2vec import _adjacent_to_previous
        from repro.sparse import CSC
        from repro.sparse.formats import gather_ranges

        n = 40
        for trial in range(50):
            degrees = rng.integers(0, 7, n)
            indptr = np.concatenate([[0], np.cumsum(degrees)])
            rows = rng.integers(0, n, indptr[-1])
            if trial % 2:  # rows sorted within each column
                cols = np.repeat(np.arange(n), degrees)
                rows = rows[np.lexsort((rows, cols))]
            csc = CSC(indptr=indptr, rows=rows, values=None, shape=(n, n))
            cur, prev = rng.integers(0, n, (2, 25))
            starts = indptr[cur]
            lengths = indptr[cur + 1] - starts
            cand = rows[gather_ranges(starts, lengths)]

            edge_keys = np.sort(rows * n + np.repeat(np.arange(n), degrees))
            keys = cand * n + np.repeat(prev, lengths)
            pos = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)

            np.testing.assert_array_equal(
                _adjacent_to_previous(csc, cand, lengths, prev),
                edge_keys[pos] == keys,
            )

    def test_graphsaint_induces_subgraph(self, small_graph):
        _, pipe = _build("graphsaint", small_graph, None, walk_length=3)
        out = pipe.sample_batch(np.arange(10), rng=new_rng(6))
        assert out.matrix.shape == (len(out.nodes), len(out.nodes))
        dense = to_dense(small_graph)
        sub = to_dense(out.matrix)
        np.testing.assert_allclose(
            sub, dense[np.ix_(out.nodes, out.nodes)], rtol=1e-5
        )

    def test_pinsage_top_t(self, small_graph):
        _, pipe = _build("pinsage", small_graph, None, top_t=4, num_layers=1)
        out = pipe.sample_batch(np.arange(12), rng=new_rng(7))
        degrees = np.diff(out.layers[0].matrix.get("csc").indptr)
        assert np.all(degrees <= 4)

    def test_hetgnn_type_balance(self, small_graph):
        _, pipe = _build(
            "hetgnn", small_graph, None, num_types=2, k_per_type=3,
            num_layers=1,
        )
        out = pipe.sample_batch(np.arange(12), rng=new_rng(8))
        matrix = out.layers[0].matrix.get("csc")
        types = np.arange(small_graph.shape[0]) % 2
        cols = matrix.expand_cols()
        for c in range(matrix.shape[1]):
            neigh = matrix.rows[cols == c]
            for t in (0, 1):
                assert (types[neigh] == t).sum() <= 3


class TestShaDowAndSEAL:
    def test_shadow_localized_subgraph(self, small_graph):
        _, pipe = _build("shadow", small_graph, None, fanout=3, depth=2)
        out = pipe.sample_batch(np.arange(6), rng=new_rng(9))
        assert set(out.seeds.tolist()) <= set(out.nodes.tolist())
        assert out.matrix.shape == (len(out.nodes), len(out.nodes))

    def test_seal_enclosing_subgraphs(self, small_graph):
        _, pipe = _build("seal", small_graph, None, hops=2, fanout=5)
        pairs = np.array([1, 2, 3, 4])
        out = pipe.sample_batch(pairs, rng=new_rng(10))
        assert len(out) == 2
        for sample, (u, v) in zip(out, [(1, 2), (3, 4)]):
            assert sample.pair == (u, v)
            assert u in sample.nodes and v in sample.nodes
            assert len(sample.drnl_labels) == len(sample.nodes)
            assert np.all(sample.drnl_labels >= 1)

    def test_drnl_label_formula(self):
        du = np.array([0, 1, 1, 2])
        dv = np.array([0, 1, 2, 2])
        labels = drnl_labels(du, dv)
        assert labels[0] == 1
        assert len(set(labels.tolist())) >= 3


class TestBanditAlgorithms:
    def test_weights_update_moves_sampling(self, small_graph):
        algo, pipe = _build("gcn_bs", small_graph, None, fanouts=(3,))
        out = pipe.sample_batch(np.arange(10), rng=new_rng(11))
        before = pipe.edge_weights.copy()
        rewards = [np.ones(layer.num_edges) for layer in out.layers]
        pipe.apply_rewards(out, rewards)
        assert pipe.edge_weights.sum() > before.sum()

    def test_exp3_multiplicative(self, small_graph):
        _, pipe = _build("thanos", small_graph, None, fanouts=(3,))
        out = pipe.sample_batch(np.arange(10), rng=new_rng(12))
        eids = out.layers[0].matrix.edge_ids()
        pipe.apply_rewards(out, [np.full(len(eids), 2.0)])
        touched = pipe.edge_weights[eids]
        assert np.all(touched > 1.0)

    def test_reward_length_checked(self, small_graph):
        _, pipe = _build("gcn_bs", small_graph, None, fanouts=(3,))
        out = pipe.sample_batch(np.arange(10), rng=new_rng(13))
        before = pipe.edge_weights.copy()
        with pytest.raises(ShapeError):
            pipe.apply_rewards(out, [np.ones(1)])
        np.testing.assert_array_equal(pipe.edge_weights, before)


class TestModelDriven:
    def test_pass_excluded_from_superbatch(self, small_graph, features):
        _, pipe = _build("pass", small_graph, features)
        assert not pipe.supports_superbatch

    def test_pass_parameters_change_bias(self, small_graph, features):
        algo, pipe = _build("pass", small_graph, features, fanout=3,
                            num_layers=1)
        out1 = pipe.sample_batch(np.arange(10), rng=new_rng(14))
        algo.apply_gradients(
            np.ones_like(algo.W1), np.ones_like(algo.W2), np.ones(3), lr=1.0
        )
        out2 = pipe.sample_batch(np.arange(10), rng=new_rng(14))
        assert isinstance(out1, GraphSample) and isinstance(out2, GraphSample)

    def test_asgcn_requires_features(self, small_graph):
        algo = make_algorithm("asgcn")
        with pytest.raises(GSamplerError, match="requires node features"):
            algo.build(small_graph, np.arange(4))

    def test_asgcn_importance_reweighting(self, small_graph, features):
        _, pipe = _build("asgcn", small_graph, features, layer_width=8,
                         num_layers=1)
        out = pipe.sample_batch(np.arange(20), rng=new_rng(15))
        assert out.layers[0].matrix.shape[0] <= 8


class TestWalkHelpers:
    def test_top_k_per_segment(self):
        seg = np.array([0, 0, 0, 1, 1, 2])
        score = np.array([1.0, 5.0, 3.0, 2.0, 7.0, 1.0])
        keep = top_k_per_segment(seg, score, 2)
        kept = sorted(keep.tolist())
        assert 1 in kept and 2 in kept  # top 2 of segment 0
        assert 0 not in kept
        assert len(kept) == 5
