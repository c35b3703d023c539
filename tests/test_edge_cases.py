"""Robustness tests: degenerate graphs, empty frontiers, hostile inputs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core import new_rng
from repro.core.matrix import Matrix, from_edges
from repro.device import ExecutionContext, V100
from repro.sampler import compile_sampler
from repro.sparse import COO, convert, edge_values


def sage_layer(A, frontiers, K):
    sub_A = A[:, frontiers]
    sample_A = sub_A.individual_sample(K)
    return sample_A, sample_A.row()


class TestDegenerateGraphs:
    def test_single_node_self_loop(self):
        graph = from_edges([0], [0], 1)
        sampler = compile_sampler(sage_layer, graph, np.array([0]),
                                  constants={"K": 2})
        sample, nxt = sampler.run(np.array([0]), rng=new_rng(0))
        assert sample.nnz == 1
        np.testing.assert_array_equal(nxt, [0])

    def test_edgeless_graph(self):
        empty = Matrix(convert(COO([], [], None, (10, 10)), "csc"),
                       is_base_graph=True)
        sampler = compile_sampler(sage_layer, empty, np.arange(3),
                                  constants={"K": 2})
        sample, nxt = sampler.run(np.arange(3), rng=new_rng(0))
        assert sample.nnz == 0
        assert len(nxt) == 0

    def test_star_graph_hub_sampling(self):
        # All edges point at node 0: sampling node 0's in-neighbors must
        # respect the fanout; every other frontier is a dead end.
        n = 50
        graph = from_edges(np.arange(1, n), np.zeros(n - 1, dtype=int), n)
        sampler = compile_sampler(sage_layer, graph, np.arange(5),
                                  constants={"K": 3})
        sample, nxt = sampler.run(np.arange(5), rng=new_rng(1))
        assert sample.nnz == 3  # only column 0 has candidates
        assert set(nxt) <= set(range(1, n))

    def test_dangling_frontier_chain_terminates(self):
        # A path graph sampled from its source end dries out.
        graph = from_edges([0, 1, 2], [1, 2, 3], 5)
        algo = make_algorithm("graphsage", fanouts=(2, 2, 2, 2))
        pipe = algo.build(graph, np.array([3]))
        sample = pipe.sample_batch(np.array([3]), rng=new_rng(2))
        # Layers stop when the frontier dries up at node 0.
        assert 0 < len(sample.layers) <= 4


class TestEmptyFrontiers:
    def test_empty_frontier_batch(self, small_graph):
        sampler = compile_sampler(
            sage_layer, small_graph, np.arange(4), constants={"K": 2}
        )
        sample, nxt = sampler.run(
            np.array([], dtype=np.int64), rng=new_rng(0)
        )
        assert sample.shape[1] == 0
        assert sample.nnz == 0
        assert len(nxt) == 0

    def test_walk_from_dead_ends(self):
        # Nodes with no in-edges strand their walkers immediately.
        graph = from_edges([0], [1], 4)
        algo = make_algorithm("deepwalk", walk_length=3)
        pipe = algo.build(graph, np.array([2, 3]))
        out = pipe.sample_batch(np.array([2, 3]), rng=new_rng(0))
        assert np.all(out.trace[1:] == -1)


class TestHostileInputs:
    def test_duplicate_frontiers_supported(self, small_graph):
        f = np.array([5, 5, 5, 9])
        sampler = compile_sampler(sage_layer, small_graph, f, constants={"K": 2})
        sample, _ = sampler.run(f, rng=new_rng(0))
        assert sample.shape[1] == 4
        np.testing.assert_array_equal(sample.column(), f)

    def test_extreme_edge_weights(self):
        weights = np.array([1e-30, 1e30, 1.0, 1.0], dtype=np.float32)
        graph = from_edges([0, 1, 2, 3], [4, 4, 4, 4], 5, weights=weights)
        sub = graph[:, np.array([4])]
        # Biased sampling must strongly prefer the giant weight.
        hits = 0
        rng = new_rng(1)
        for _ in range(50):
            out = sub.individual_sample(1, rng=rng)
            hits += int(out.get("csc").rows[0] == 1)
        assert hits > 45

    def test_all_zero_bias_samples_nothing(self, small_graph):
        sub = small_graph[:, np.arange(5)]
        zero = sub * 0.0
        out = sub.individual_sample(3, zero, rng=new_rng(0))
        assert out.nnz == 0

    def test_layerwise_k_larger_than_candidates(self, small_graph):
        sub = small_graph[:, np.arange(3)]
        out = sub.collective_sample(10_000, rng=new_rng(0))
        # At most the occupied rows can be selected.
        assert out.shape[0] <= small_graph.shape[0]
        assert out.nnz == sub.nnz

    def test_epoch_with_batch_larger_than_seed_set(self, small_graph):
        from repro.core import minibatches

        batches = minibatches(np.arange(10), 1000, shuffle=False)
        assert len(batches) == 1 and len(batches[0]) == 10


class TestContextIsolation:
    def test_parallel_contexts_do_not_interfere(self, small_graph):
        sampler = compile_sampler(
            sage_layer, small_graph, np.arange(8), constants={"K": 2}
        )
        ctx_a, ctx_b = ExecutionContext(V100), ExecutionContext(V100)
        sampler.run(np.arange(8), ctx=ctx_a, rng=new_rng(0))
        before_b = ctx_b.launch_count()
        assert before_b == 0
        sampler.run(np.arange(8), ctx=ctx_b, rng=new_rng(0))
        assert ctx_a.launch_count() == ctx_b.launch_count()

    def test_base_graph_not_mutated_by_sampling(self, small_graph):
        nnz_before = small_graph.nnz
        vals_before = edge_values(small_graph.any_storage()).copy()
        sampler = compile_sampler(
            sage_layer, small_graph, np.arange(8), constants={"K": 2}
        )
        for seed in range(5):
            sampler.run(np.arange(8), rng=new_rng(seed))
        assert small_graph.nnz == nnz_before
        np.testing.assert_array_equal(edge_values(small_graph.any_storage()), vals_before)
