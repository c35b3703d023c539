"""Tracer tests: user programs become the expected IR."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core.matrix import Matrix
from repro.errors import TraceError
from repro.ir.trace import MatrixProxy, trace
from repro.sampler import compile_sampler
from repro.sparse import edge_values


def _ops(ir):
    return [n.op for n in ir.nodes()]


class TestTraceBasics:
    def test_graphsage_trace(self, small_graph):
        def layer(A, frontiers, K):
            sub_A = A[:, frontiers]
            sample_A = sub_A.individual_sample(K)
            return sample_A, sample_A.row()

        ir, info = trace(layer, small_graph, np.arange(4), constants={"K": 3})
        assert _ops(ir) == [
            "input_graph",
            "input_tensor",
            "slice_cols",
            "individual_sample",
            "row",
        ]
        assert info["structure"] == ("leaf", "leaf")
        assert ir.node(ir.outputs[0]).op == "individual_sample"

    def test_constants_are_baked(self, small_graph):
        def layer(A, frontiers, K):
            s = A[:, frontiers].individual_sample(K)
            return s, s.row()

        ir, _ = trace(layer, small_graph, np.arange(4), constants={"K": 7})
        sample = next(n for n in ir.nodes() if n.op == "individual_sample")
        assert sample.attrs["k"] == 7

    def test_tensor_inputs_traced(self, small_graph):
        feats = np.random.rand(200, 8).astype(np.float32)

        def layer(A, frontiers, features):
            sub = A[:, frontiers]
            scores = features @ features[frontiers]
            return sub.collective_sample(3, scores.sum()), sub.row()

        ir, _ = trace(
            layer, small_graph, np.arange(4), tensors={"features": feats}
        )
        assert "t_matmul" in _ops(ir)
        assert "t_index" in _ops(ir)

    def test_meta_estimates_propagate(self, small_graph):
        def layer(A, frontiers, K):
            s = A[:, frontiers].individual_sample(K)
            return s, s.row()

        ir, _ = trace(layer, small_graph, np.arange(10), constants={"K": 5})
        sample_meta = next(
            n for n in ir.nodes() if n.op == "individual_sample"
        ).attrs["_meta"]
        assert sample_meta.est_cols == 10.0
        assert sample_meta.est_nnz <= 50.0
        graph_meta = ir.nodes()[0].attrs["_meta"]
        assert graph_meta.is_base_graph

    def test_compute_ops_traced(self, small_graph):
        def layer(A, frontiers, K):
            sub = A[:, frontiers]
            probs = (sub**2).sum(axis=0)
            s = sub.collective_sample(K, probs)
            s = s.div(probs[s.row()], axis=0)
            return s, s.row()

        ir, _ = trace(layer, small_graph, np.arange(4), constants={"K": 3})
        ops = _ops(ir)
        for expected in ("map_scalar", "reduce", "collective_sample",
                         "t_index", "map_broadcast"):
            assert expected in ops


class TestTraceErrors:
    def test_data_dependent_branch_rejected(self, small_graph):
        def layer(A, frontiers):
            s = (A[:, frontiers] ** 2).sum(axis=0)
            if s:  # boolean coercion of a traced value
                return A[:, frontiers], frontiers
            return A[:, frontiers], frontiers

        with pytest.raises(TraceError):
            trace(layer, small_graph, np.arange(4))

    def test_concrete_matrix_rejected(self, small_graph):
        def layer(A, frontiers):
            return A.individual_sample(1, probs=small_graph), frontiers

        with pytest.raises(TraceError):
            trace(layer, small_graph, np.arange(4))

    def test_non_proxy_return_rejected(self, small_graph):
        def layer(A, frontiers):
            return 42

        with pytest.raises(TraceError):
            trace(layer, small_graph, np.arange(4))


class TestEagerTracedParity:
    """A program written against ``Matrix`` must trace unchanged: the two
    classes expose the same operators with the same parameter names."""

    #: Eager-only storage accessors; a traced program has no storage.
    STORAGE_ACCESSORS = {
        "any_storage", "edge_ids", "get", "nbytes", "slice_cols", "slice_rows",
        "to_coo_arrays", "with_values",
    }

    @staticmethod
    def _operators(cls) -> dict[str, list[str]]:
        """``{method: parameter names}`` of public and arithmetic methods,
        modulo ``rng`` (the compiled sampler supplies it per run) and the
        eager-only ``layout=`` override on the reduces."""
        return {
            name: [
                p for p in list(inspect.signature(fn).parameters)[1:]
                if p not in ("rng", "layout")
            ]
            for name, fn in vars(cls).items()
            if inspect.isfunction(fn)
            and (not name.startswith("_") or name.startswith("__"))
            and name != "__init__"
        }

    def test_same_operators_same_parameters(self):
        eager = self._operators(Matrix)
        for name in self.STORAGE_ACCESSORS:
            del eager[name]
        assert eager == self._operators(MatrixProxy)

    def test_scale_and_radd_agree_with_the_traced_program(self, small_graph):
        def layer(A, frontiers, mix):
            sub_A = A[:, frontiers]
            return 1.0 + sub_A.scale(mix, 1)

        frontiers, mix = np.arange(4), np.array([0.25, 0.5], dtype=np.float32)
        eager = layer(small_graph, frontiers, mix)
        sampler = compile_sampler(
            layer, small_graph, frontiers, tensors={"mix": mix}, debug=True
        )
        traced = sampler.run(frontiers, tensors={"mix": mix})
        values = [edge_values(m.any_storage()) for m in (eager, traced)]
        np.testing.assert_array_equal(*values)
        np.testing.assert_allclose(
            values[0],
            1.0 + 0.5 * edge_values(small_graph[:, frontiers].any_storage()),
        )
