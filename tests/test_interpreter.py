"""Interpreter coverage: every IR operator executes correctly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import new_rng
from repro.device import ExecutionContext, V100
from repro.errors import PassError, ShapeError
from repro.ir.graph import DataFlowGraph
from repro.ir.interpreter import Interpreter
from repro.ir.trace import trace
from repro.sampler import compile_sampler

from tests.conftest import to_dense


def _run(fn, graph, seeds, constants=None, tensors=None, rng_seed=0):
    sampler = compile_sampler(
        fn, graph, seeds, constants=constants, tensors=tensors
    )
    return sampler.run(
        seeds, tensors=tensors, ctx=ExecutionContext(V100), rng=new_rng(rng_seed)
    )


class TestTensorOps:
    def test_reverse_scalar_ops(self, small_graph):
        def layer(A, frontiers, K):
            sub = A[:, frontiers]
            s = sub.sum(axis=1)
            inv = 1.0 / (s + 1.0)       # reverse div + forward add
            flipped = 2.0 - s * 0.0     # reverse sub
            sample = sub.collective_sample(K, (sub ** 2).sum(axis=0))
            return sample, inv + flipped

        sample, vec = _run(layer, small_graph, np.arange(6), {"K": 3})
        sums = small_graph[:, np.arange(6)].sum(axis=1)
        np.testing.assert_allclose(vec, 1.0 / (sums + 1.0) + 2.0, rtol=1e-5)

    def test_softmax_relu_sum(self, small_graph):
        w = np.array([1.0, 2.0, 3.0], dtype=np.float32)

        def layer(A, frontiers, weights):
            s = weights.softmax()
            r = (weights - 2.0).relu()
            total = (s + r).sum()
            sub = A[:, frontiers]
            return sub.individual_sample(2), total * (frontiers * 0 + 1.0)

        _, out = _run(
            layer, small_graph, np.arange(4), tensors={"weights": w}
        )
        e = np.exp(w - w.max())
        expected = (e / e.sum() + np.maximum(w - 2.0, 0)).sum()
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_matrix_scale_by_tensor_element(self, small_graph):
        w = np.array([0.5, 2.0], dtype=np.float32)

        def layer(A, frontiers, weights):
            sub = A[:, frontiers]
            scaled = sub.scale(weights, 1)  # multiply all edges by w[1]
            return scaled, scaled.row()

        scaled, _ = _run(layer, small_graph, np.arange(4), tensors={"weights": w})
        plain = small_graph[:, np.arange(4)]
        np.testing.assert_allclose(
            to_dense(scaled), 2.0 * to_dense(plain), rtol=1e-5
        )

    def test_sddmm_in_ir(self, small_graph, rng):
        feats = rng.random((200, 6)).astype(np.float32)

        def layer(A, frontiers, features):
            sub = A[:, frontiers]
            att = sub.sddmm(features, features[frontiers])
            s = sub.individual_sample(2, att)
            return s, s.row()

        sample, _ = _run(
            layer, small_graph, np.arange(5), tensors={"features": feats}
        )
        assert sample.nnz <= 10


class TestExecutionMachinery:
    def test_unknown_op_raises(self, small_graph):
        ir = DataFlowGraph()
        node = ir.add_node("warp_drive", ())
        ir.outputs = [node.node_id]
        interp = Interpreter(ir, ExecutionContext(V100))
        with pytest.raises(PassError):
            interp.run({}, new_rng(0))

    def test_precomputed_inputs_resolve(self, small_graph):
        def layer(A, frontiers, K):
            deg = A.sum(axis=0)  # hoisted to a precomputed input
            sub = A[:, frontiers]
            s = sub.collective_sample(K, deg + 1.0)
            return s, s.row()

        sampler = compile_sampler(
            layer, small_graph, np.arange(6), constants={"K": 3}
        )
        assert sampler.precomputed
        sample, _ = sampler.run(np.arange(6), rng=new_rng(1))
        assert sample.shape[0] == 3

    def test_layout_stamps_are_honored(self, small_graph):
        def layer(A, frontiers, K):
            sub = A[:, frontiers]
            s = sub.individual_sample(K, sub ** 1.0)
            return s, s.row()

        sampler = compile_sampler(
            layer, small_graph, np.arange(6), constants={"K": 2}
        )
        for node in sampler.ir.nodes():
            if node.op == "slice_cols":
                node.layout = "coo"
        sample, _ = sampler.run(np.arange(6), rng=new_rng(2))
        assert sample.nnz <= 12  # still correct under a forced layout

    @staticmethod
    def _mul(graph, batch_ptr):
        """``a * b`` over two input vectors, run beside a collective
        sample — a program that segments — over the batches of
        ``batch_ptr`` (``None``: one batch); returns the product."""

        def layer(A, frontiers, a, b, K):
            sample_A = A[:, frontiers].collective_sample(K)
            return sample_A, a * b

        tensors = {"a": np.arange(6.0), "b": np.array([1.0, 2.0])}
        sampler = compile_sampler(
            layer, graph, np.arange(3), constants={"K": 1}, tensors=tensors
        )
        assert sampler.segmented
        interp = Interpreter(
            sampler.ir, ExecutionContext(V100), segmented=sampler.segmented
        )
        inputs = {"A": graph, "frontiers": np.arange(3), **tensors}
        return interp.run(inputs, new_rng(0), batch_ptr)[1]

    def test_tiled_broadcast_for_superbatch_vectors(self, small_graph):
        out = self._mul(small_graph, np.array([0, 1, 2, 3]))
        np.testing.assert_allclose(out, np.arange(6.0) * [1, 2, 1, 2, 1, 2])

    @pytest.mark.parametrize("batch_ptr", [None, np.array([0, 3])])
    def test_mismatched_vectors_refused_outside_a_superbatch(
        self, small_graph, batch_ptr
    ):
        """Lengths that divide each other (6 and 2) tile only under the
        block-diagonal reading of a run with more than one batch; a
        batch, a super-batch of one, is refused."""
        with pytest.raises(ShapeError, match="6 and 2 differ outside"):
            self._mul(small_graph, batch_ptr)

    def test_intermediates_freed_incrementally(self, small_graph):
        """Peak memory must be below the sum of all intermediates."""
        def layer(A, frontiers, K):
            sub = A[:, frontiers]
            a = sub * 2.0
            b = a * 2.0
            c = b * 2.0
            s = sub.individual_sample(K, c)
            return s, s.row()

        sampler = compile_sampler(
            layer, small_graph, np.arange(20), constants={"K": 2},
        )
        ctx = ExecutionContext(V100)
        sampler.run(np.arange(20), ctx=ctx, rng=new_rng(3))
        assert ctx.memory.live_bytes == 0
        total_allocated = sum(
            l.bytes_written for l in ctx.launches
        )
        assert ctx.memory.peak_bytes < max(total_allocated, 1) * 1.5
