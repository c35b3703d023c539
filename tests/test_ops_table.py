"""The operator table is complete, consistent, and closed.

``repro.ir.ops.OPS`` is the one place an IR operator is declared.  These
tests fail when a row is added without its tracer method or handlers (or
the reverse), and pin the three defects the separate name lists let
through: PASS could not compile under ``debug=True``, ``labor_sample``
escaped operand checking, and unknown operators were skipped silently.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.errors import InvariantError
from repro.ir import OPS, STEP_OF_OP, STRUCTURE_OPS, Interpreter
from repro.ir.trace import MatrixProxy, TensorProxy, trace
from repro.sampler import OptimizationConfig, compile_sampler
from repro.sparse import LAYOUTS
from repro.verify import EagerOracle, builtin_specs, check_invariants


def _handlers(cls) -> set[str]:
    return {name[4:] for name in vars(cls) if name.startswith("_op_")}


class TestCompleteness:
    def test_rows_and_interpreter_handlers_match(self):
        assert _handlers(Interpreter) == set(OPS)

    def test_every_user_op_is_traceable_and_has_an_oracle(self):
        """An operator with an ECSF step is one a program can write: some
        proxy method must emit it and the eager oracle must execute it."""
        tracer_source = inspect.getsource(MatrixProxy) + inspect.getsource(
            TensorProxy
        )
        for name in STEP_OF_OP:
            assert f'"{name}"' in tracer_source, f"no proxy emits {name}"
            assert name in _handlers(EagerOracle), f"oracle cannot run {name}"

    def test_structure_ops_produce_matrices_in_a_real_layout(self):
        for name in STRUCTURE_OPS:
            assert OPS[name].produces == "matrix", name
            assert OPS[name].native_layout in LAYOUTS, name

    def test_probs_operand_is_the_optional_tail(self):
        for name, spec in OPS.items():
            if spec.takes_probs:
                assert spec.operands[-1].startswith("?"), name


class TestRegressions:
    @pytest.mark.parametrize(
        "config", OptimizationConfig.all_combinations(), ids=lambda c: c.label()
    )
    def test_pass_compiles_in_debug_mode(self, verify_graph, config):
        """``map_tscalar`` produces a matrix; the old MATRIX_OPS list said
        tensor, so every debug compile of PASS raised InvariantError."""
        spec = builtin_specs()["pass"]
        compile_sampler(
            spec.layer_fn,
            verify_graph,
            np.arange(12),
            constants=spec.constants,
            tensors=spec.tensors_fn(verify_graph),
            config=config,
            debug=True,
        )

    @staticmethod
    def _labor_ir(graph):
        def layer(A, frontiers, K):
            sample = A[:, frontiers].labor_sample(K)
            return sample, sample.row()

        ir, _ = trace(layer, graph, np.arange(8), constants={"K": 3})
        labor = next(n for n in ir.nodes() if n.op == "labor_sample")
        return ir, labor

    def test_labor_sample_of_a_tensor_is_rejected(self, small_graph):
        ir, labor = self._labor_ir(small_graph)
        frontiers = next(n for n in ir.nodes() if n.op == "input_tensor")
        labor.inputs = (frontiers.node_id,)
        with pytest.raises(InvariantError, match="is a tensor; expected a matrix"):
            check_invariants(ir)

    def test_labor_sample_wrong_arity_is_rejected(self, small_graph):
        ir, labor = self._labor_ir(small_graph)
        labor.inputs = (*labor.inputs, labor.inputs[0])
        with pytest.raises(InvariantError, match="has 2 inputs; expected 1"):
            check_invariants(ir)

    def test_unknown_operator_is_rejected_by_name(self, small_graph):
        ir, labor = self._labor_ir(small_graph)
        labor.op = "warp_drive"
        with pytest.raises(InvariantError, match="unknown operator 'warp_drive'"):
            check_invariants(ir)
