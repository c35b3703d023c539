"""ECSF model tests: layer stacking and mini-batching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GraphSample,
    SampledLayer,
    Step,
    minibatches,
    new_rng,
    run_layers,
)
from repro.ir import STEP_OF_OP


def test_step_vocabulary_covers_table4():
    assert STEP_OF_OP["slice_cols"] is Step.EXTRACT
    assert STEP_OF_OP["spmm"] is Step.COMPUTE
    assert STEP_OF_OP["individual_sample"] is Step.SELECT
    assert STEP_OF_OP["row"] is Step.FINALIZE


class TestRunLayers:
    def test_stacks_layers(self, small_graph):
        rng = new_rng(0)

        def one_layer(graph, frontiers, fanout):
            sub = graph[:, frontiers]
            sampled = sub.individual_sample(fanout, rng=rng)
            return sampled, sampled.row()

        seeds = np.array([1, 2, 3])
        sample = run_layers(small_graph, seeds, [2, 3], one_layer)
        assert len(sample.layers) == 2
        np.testing.assert_array_equal(sample.layers[0].input_nodes, seeds)
        np.testing.assert_array_equal(
            sample.layers[1].input_nodes, sample.layers[0].output_nodes
        )
        assert sample.num_edges == sum(l.num_edges for l in sample.layers)

    def test_all_nodes_union(self):
        layer = SampledLayer(
            matrix=None,  # type: ignore[arg-type]
            input_nodes=np.array([1, 2]),
            output_nodes=np.array([5, 2]),
        )
        sample = GraphSample(seeds=np.array([1, 2]), layers=[layer])
        np.testing.assert_array_equal(sample.all_nodes, [1, 2, 5])

    def test_stops_on_empty_frontier(self, small_graph):
        def dead_end(graph, frontiers, fanout):
            sub = graph[:, frontiers]
            return sub, np.array([], dtype=np.int64)

        sample = run_layers(small_graph, np.array([1]), [2, 2, 2], dead_end)
        assert len(sample.layers) == 1


class TestMinibatches:
    def test_partition_covers_all(self):
        ids = np.arange(100)
        batches = minibatches(ids, 32, shuffle=False)
        assert [len(b) for b in batches] == [32, 32, 32, 4]
        np.testing.assert_array_equal(np.concatenate(batches), ids)

    def test_shuffle_permutes(self):
        ids = np.arange(100)
        batches = minibatches(ids, 100, shuffle=True, rng=new_rng(1))
        assert not np.array_equal(batches[0], ids)
        np.testing.assert_array_equal(np.sort(batches[0]), ids)

    def test_drop_last(self):
        batches = minibatches(np.arange(10), 4, shuffle=False, drop_last=True)
        assert [len(b) for b in batches] == [4, 4]
