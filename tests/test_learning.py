"""Learning-glue tests: gradient checks, training convergence, converters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core import GraphSample, Matrix, SampledLayer, new_rng
from repro.datasets import load_dataset
from repro.device import V100
from repro.errors import ShapeError
from repro.sparse import COO
from repro.learning import (
    GraphSAGEModel,
    LadiesGCN,
    Linear,
    ReLU,
    SGD,
    Trainer,
    accuracy,
    softmax_cross_entropy,
    to_dgl_graph,
    to_pyg_graph,
)


class TestLayers:
    def test_linear_forward(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.random((5, 4)).astype(np.float32)
        out = layer.forward(x)
        np.testing.assert_allclose(out, x @ layer.W + layer.b, rtol=1e-5)

    def test_linear_shape_checked(self, rng):
        with pytest.raises(ShapeError):
            Linear(4, 3, rng=rng).forward(np.ones((2, 5), dtype=np.float32))

    def test_linear_numerical_gradient(self, rng):
        """Analytic dW must match the finite-difference gradient."""
        layer = Linear(3, 2, rng=rng)
        x = rng.random((4, 3)).astype(np.float64)
        target = rng.random((4, 2))

        def loss_fn():
            out = layer.forward(x.astype(np.float32)).astype(np.float64)
            return 0.5 * ((out - target) ** 2).sum()

        out = layer.forward(x.astype(np.float32))
        layer.zero_grad()
        layer.backward((out - target).astype(np.float32))
        eps = 1e-3
        for idx in [(0, 0), (2, 1)]:
            orig = layer.W[idx]
            layer.W[idx] = orig + eps
            hi = loss_fn()
            layer.W[idx] = orig - eps
            lo = loss_fn()
            layer.W[idx] = orig
            numeric = (hi - lo) / (2 * eps)
            assert layer.dW[idx] == pytest.approx(numeric, rel=0.05)

    def test_relu_gradient_masks(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0]], dtype=np.float32)
        relu.forward(x)
        grad = relu.backward(np.ones((1, 2), dtype=np.float32))
        np.testing.assert_array_equal(grad, [[0.0, 1.0]])

    def test_softmax_xent_gradient_direction(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]], dtype=np.float32)
        labels = np.array([0, 0])
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss > 0
        assert grad[0, 0] < 0  # pushes the correct class up
        assert grad[1, 0] < 0

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 0])) == 0.0
        assert accuracy(np.empty((0, 2)), np.empty(0, dtype=int)) == 0.0

    def test_sgd_descends(self, rng):
        layer = Linear(2, 2, rng=rng, bias=False)
        opt = SGD(layer.parameters(), lr=0.1, momentum=0.0)
        x = np.eye(2, dtype=np.float32)
        for _ in range(50):
            out = layer.forward(x)
            loss, grad = softmax_cross_entropy(out, np.array([0, 1]))
            layer.zero_grad()
            layer.backward(grad)
            opt.step()
        final, _ = softmax_cross_entropy(layer.forward(x), np.array([0, 1]))
        assert final < loss


class TestModels:
    def _sample(self, graph, fanouts, seeds, seed=0):
        pipe = make_algorithm("graphsage", fanouts=fanouts).build(graph, seeds)
        return pipe.sample_batch(seeds, rng=new_rng(seed))

    def test_forward_shapes(self, small_graph, rng):
        seeds = np.arange(12)
        sample = self._sample(small_graph, (3, 4), seeds)
        feats = rng.random((200, 8)).astype(np.float32)
        model = GraphSAGEModel(8, 16, 5, num_layers=2, rng=rng)
        logits = model.forward(sample, feats)
        assert logits.shape == (12, 5)

    def test_layer_count_checked(self, small_graph, rng):
        sample = self._sample(small_graph, (3,), np.arange(4))
        model = GraphSAGEModel(8, 16, 5, num_layers=2, rng=rng)
        with pytest.raises(ShapeError):
            model.forward(sample, rng.random((200, 8)).astype(np.float32))

    def test_training_reduces_loss(self, small_graph, rng):
        seeds = np.arange(64)
        feats = rng.random((200, 8)).astype(np.float32)
        labels = (np.arange(200) % 4).astype(np.int64)
        # Make features informative about labels.
        feats[:, :4] += np.eye(4, dtype=np.float32)[labels] * 3
        model = GraphSAGEModel(8, 16, 4, num_layers=2, rng=rng)
        opt = SGD(model.parameters(), lr=0.05)
        losses = []
        for step in range(15):
            sample = self._sample(small_graph, (3, 4), seeds, seed=step)
            logits = model.forward(sample, feats)
            loss, grad = softmax_cross_entropy(logits, labels[seeds])
            model.zero_grad()
            model.backward(grad)
            opt.step()
            losses.append(loss)
        assert losses[-1] < losses[0] * 0.8

    def test_ladies_gcn_uses_edge_weights(self, small_graph, rng):
        seeds = np.arange(10)
        pipe = make_algorithm("ladies", layer_width=16, num_layers=2).build(
            small_graph, seeds
        )
        sample = pipe.sample_batch(seeds, rng=new_rng(0))
        feats = rng.random((200, 8)).astype(np.float32)
        model = LadiesGCN(8, 16, 4, num_layers=2, rng=rng)
        logits = model.forward(sample, feats)
        assert logits.shape == (10, 4)


def _one_block(row_ids, output_nodes):
    """Seeds 10 and 20 fed by nodes 5, 10 and 30, as a one-layer sample.

    ``row_ids=None`` is the block whose rows are original ids (40 nodes).
    """
    storage = COO(
        rows=np.array([5, 10, 30] if row_ids is None else [0, 1, 2]),
        cols=np.array([0, 1, 0]),
        values=np.array([1.0, 2.0, 3.0], dtype=np.float32),
        shape=(40 if row_ids is None else len(row_ids), 2),
    )
    seeds = np.array([10, 20])
    matrix = Matrix(storage, row_ids=row_ids, col_ids=seeds)
    layer = SampledLayer(matrix, input_nodes=seeds, output_nodes=output_nodes)
    return GraphSample(seeds=seeds, layers=[layer])


class TestBlockIdTables:
    """``forward`` looks a block's id tables up once, then gathers per edge."""

    def _logits(self, sample):
        feats = np.random.default_rng(3).random((40, 6)).astype(np.float32)
        model = GraphSAGEModel(6, 8, 3, num_layers=1, rng=np.random.default_rng(4))
        return model.forward(sample, feats)

    def test_table_and_original_ids_agree(self):
        nodes = np.array([5, 10, 30])
        with_table = self._logits(_one_block(nodes, nodes))
        original = self._logits(_one_block(None, nodes))
        assert np.array_equal(with_table, original)

    def test_table_row_no_edge_touches_may_be_outside_the_layer(self):
        nodes = np.array([5, 10, 30])
        padded = self._logits(_one_block(np.array([5, 10, 30, 39]), nodes))
        assert np.array_equal(padded, self._logits(_one_block(nodes, nodes)))

    @pytest.mark.parametrize("row_ids", [np.array([5, 10, 30]), None])
    def test_edge_endpoint_outside_the_layer_is_a_mismatch(self, row_ids):
        sample = _one_block(row_ids, np.array([5, 10]))
        with pytest.raises(ShapeError, match="node set mismatch"):
            self._logits(sample)


class TestTrainer:
    def test_trainer_converges_on_sbm(self):
        ds = load_dataset("pd", scale=0.15)
        rng = np.random.default_rng(0)
        pipe = make_algorithm("graphsage", fanouts=(5, 10)).build(
            ds.graph, ds.train_ids[:128]
        )
        model = GraphSAGEModel(
            ds.features.shape[1], 32, ds.num_classes, num_layers=2, rng=rng
        )
        trainer = Trainer(pipe, model, ds, device=V100, batch_size=128)
        result, _ = trainer.train(4, max_batches_per_epoch=6)
        assert result.final_accuracy > 0.8
        assert 0.0 < result.sampling_fraction < 1.0
        assert result.total_seconds == (
            result.sampling_seconds + result.training_seconds
        )


class TestConverters:
    def test_to_dgl_block(self, small_graph, rng):
        sub = small_graph[:, np.array([3, 9])].individual_sample(3, rng=rng)
        block = to_dgl_graph(sub)
        assert block.num_edges == sub.nnz
        rows, cols, vals = sub.to_coo_arrays()
        np.testing.assert_array_equal(
            block.src_nodes[block.edges_src], rows
        )
        np.testing.assert_array_equal(
            block.dst_nodes[block.edges_dst], cols
        )
        np.testing.assert_array_equal(block.edge_weight, vals)

    def test_to_pyg_data(self, small_graph, rng):
        sub = small_graph[:, np.array([3, 9])].individual_sample(3, rng=rng)
        data = to_pyg_graph(sub)
        assert data.edge_index.shape == (2, sub.nnz)
        rows, cols, _ = sub.to_coo_arrays()
        np.testing.assert_array_equal(data.node_ids[data.edge_index[0]], rows)
        np.testing.assert_array_equal(data.node_ids[data.edge_index[1]], cols)
        assert data.num_nodes == len(data.node_ids)
