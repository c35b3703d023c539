"""Tests for the IR invariant checker and its PassManager wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvariantError
from repro.ir.graph import DataFlowGraph
from repro.ir.passes import PassManager
from repro.ir.passes.base import Pass
from repro.ir.trace import trace
from repro.sampler import compile_sampler
from repro.verify.invariants import check_invariants


def sage_layer(A, frontiers, K):
    sub_A = A[:, frontiers]
    sample_A = sub_A.individual_sample(K)
    return sample_A, sample_A.row()


def weighted_sage_layer(A, frontiers, K):
    sub_A = A[:, frontiers]
    sample_A = sub_A.individual_sample(K, sub_A)
    return sample_A, sample_A.row()


@pytest.fixture
def traced_ir(small_graph) -> DataFlowGraph:
    ir, _ = trace(sage_layer, small_graph, np.arange(8), constants={"K": 3})
    return ir


class TestCleanGraphs:
    def test_traced_program_passes(self, traced_ir):
        check_invariants(traced_ir)

    def test_compiled_program_passes(self, small_graph):
        # compile_sampler(debug=True) runs the checker after every pass;
        # reaching the end means every transition was clean.
        sampler = compile_sampler(
            sage_layer, small_graph, np.arange(8), constants={"K": 3},
            debug=True,
        )
        check_invariants(sampler.ir)


class TestStructure:
    def test_use_before_def(self, traced_ir):
        nodes = traced_ir.nodes()
        consumer = nodes[-1]
        # Place a consumer of the last node *before* it in the order.
        traced_ir.insert_before(
            nodes[0].node_id, "row", (consumer.node_id,), {}
        )
        with pytest.raises(InvariantError, match="before its definition"):
            check_invariants(traced_ir)

    def test_node_table_key_disagreement(self, traced_ir):
        traced_ir.nodes()[-1].node_id = 987
        with pytest.raises(InvariantError, match="disagrees"):
            check_invariants(traced_ir)

    def test_dangling_output(self, traced_ir):
        traced_ir.outputs.append(987)
        with pytest.raises(InvariantError, match="output %987 does not exist"):
            check_invariants(traced_ir)

    def test_no_outputs(self, traced_ir):
        traced_ir.outputs = []
        with pytest.raises(InvariantError, match="no outputs"):
            check_invariants(traced_ir)

    def test_input_with_inputs(self, traced_ir):
        graph_node = traced_ir.nodes()[0]
        tensor_node = traced_ir.nodes()[1]
        tensor_node.inputs = (graph_node.node_id,)
        with pytest.raises(InvariantError, match="must not consume"):
            check_invariants(traced_ir)

    def test_stage_prefix_in_message(self, traced_ir):
        traced_ir.outputs.append(987)
        with pytest.raises(InvariantError, match=r"\[my_pass\]"):
            check_invariants(traced_ir, stage="my_pass")


class TestOperandKinds:
    def test_swapped_slice_inputs(self, traced_ir):
        for node in traced_ir.nodes():
            if node.op == "slice_cols":
                node.inputs = (node.inputs[1], node.inputs[0])
        with pytest.raises(InvariantError, match="is a tensor; expected a matrix"):
            check_invariants(traced_ir)

    def test_has_probs_arity_mismatch(self, traced_ir):
        # Claim probs are attached without actually passing the operand —
        # the exact shape of a buggy pass dropping a probs input.
        for node in traced_ir.nodes():
            if node.op == "individual_sample":
                node.attrs["has_probs"] = True
        with pytest.raises(InvariantError, match="has_probs"):
            check_invariants(traced_ir)

    def test_missing_operand(self, traced_ir):
        for node in traced_ir.nodes():
            if node.op == "slice_cols":
                node.inputs = node.inputs[:1]
        with pytest.raises(InvariantError, match="inputs"):
            check_invariants(traced_ir)


class TestLayoutLegality:
    def test_unknown_layout(self, traced_ir):
        for node in traced_ir.nodes():
            if node.op == "slice_cols":
                node.layout = "blocked-ellpack"
        with pytest.raises(InvariantError, match="unknown layout"):
            check_invariants(traced_ir)

    def test_layout_on_compute_op(self, small_graph):
        def layer(A, frontiers, K):
            sub_A = A[:, frontiers]
            sub_A = sub_A * 2.0
            sample_A = sub_A.individual_sample(K)
            return sample_A, sample_A.row()

        ir, _ = trace(layer, small_graph, np.arange(8), constants={"K": 3})
        for node in ir.nodes():
            if node.op == "map_scalar":
                node.layout = "csc"
        with pytest.raises(InvariantError, match="not a structure operator"):
            check_invariants(ir)


class _ProbsDroppingPass(Pass):
    """A deliberately broken pass: detaches the probs operand from every
    weighted individual_sample but forgets to clear ``has_probs``."""

    name = "evil_probs_drop"

    def run(self, ir: DataFlowGraph) -> bool:
        changed = False
        for node in ir.nodes():
            if node.op == "individual_sample" and node.attrs.get("has_probs"):
                node.inputs = node.inputs[:1]
                changed = True
        return changed


class _LayoutLeakPass(Pass):
    """A deliberately broken pass: stamps a layout on a compute op."""

    name = "evil_layout_leak"

    def run(self, ir: DataFlowGraph) -> bool:
        for node in ir.nodes():
            if node.op == "map_scalar":
                node.layout = "csc"
                return True
        return False


class TestPassManagerDebugMode:
    def test_broken_pass_caught_and_named(self, small_graph):
        ir, _ = trace(
            weighted_sage_layer, small_graph, np.arange(8), constants={"K": 3}
        )
        manager = PassManager([_ProbsDroppingPass()], debug=True)
        with pytest.raises(InvariantError, match=r"\[evil_probs_drop\]"):
            manager.run(ir)

    def test_broken_pass_passes_silently_without_debug(self, small_graph):
        # The cheap structural validate() cannot see the dropped operand:
        # exactly the gap the invariant checker (and the statistical
        # checker, see test_verify.py) exists to close.
        ir, _ = trace(
            weighted_sage_layer, small_graph, np.arange(8), constants={"K": 3}
        )
        PassManager([_ProbsDroppingPass()], debug=False).run(ir)

    def test_layout_leak_caught(self, small_graph):
        def layer(A, frontiers, K):
            sub_A = A[:, frontiers]
            sub_A = sub_A * 2.0
            sample_A = sub_A.individual_sample(K)
            return sample_A, sample_A.row()

        ir, _ = trace(layer, small_graph, np.arange(8), constants={"K": 3})
        manager = PassManager([_LayoutLeakPass()], debug=True)
        with pytest.raises(InvariantError, match=r"\[evil_layout_leak\]"):
            manager.run(ir)
