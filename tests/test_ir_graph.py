"""IR graph structure tests: construction, mutation, validation."""

from __future__ import annotations

import pytest

from repro.errors import PassError
from repro.ir.graph import DataFlowGraph


def build_chain() -> DataFlowGraph:
    ir = DataFlowGraph()
    a = ir.add_node("input_graph", (), {"name": "A"})
    b = ir.add_node("slice_cols", (a.node_id,))
    c = ir.add_node("map_scalar", (b.node_id,), {"op": "pow", "scalar": 2.0})
    ir.outputs = [c.node_id]
    return ir


class TestConstruction:
    def test_insertion_order_is_topological(self):
        ir = build_chain()
        ir.validate()
        ops = [n.op for n in ir.nodes()]
        assert ops == ["input_graph", "slice_cols", "map_scalar"]

    def test_unknown_input_rejected(self):
        ir = DataFlowGraph()
        with pytest.raises(PassError):
            ir.add_node("slice_cols", (99,))

    def test_input_ids_tracked(self):
        ir = build_chain()
        assert len(ir.input_ids) == 1

    def test_insert_before_orders_correctly(self):
        ir = build_chain()
        anchor = ir.nodes()[2].node_id
        node = ir.insert_before(anchor, "const", (), {"_value": 1})
        order = [n.node_id for n in ir.nodes()]
        assert order.index(node.node_id) == order.index(anchor) - 1
        ir.validate()


class TestMutation:
    def test_replace_all_uses(self):
        ir = build_chain()
        nodes = ir.nodes()
        replacement = ir.add_node("input_graph", (), {"name": "B"})
        ir.replace_all_uses(nodes[1].node_id, replacement.node_id)
        assert ir.node(nodes[2].node_id).inputs == (replacement.node_id,)
        assert ir.use_count(nodes[1].node_id) == 0

    def test_replace_updates_outputs(self):
        ir = build_chain()
        old_out = ir.outputs[0]
        new = ir.add_node("const", (), {"_value": 0})
        ir.replace_all_uses(old_out, new.node_id)
        assert ir.outputs == [new.node_id]

    def test_remove_with_users_rejected(self):
        ir = build_chain()
        with pytest.raises(PassError):
            ir.remove_node(ir.nodes()[0].node_id)

    def test_remove_output_rejected(self):
        ir = build_chain()
        with pytest.raises(PassError):
            ir.remove_node(ir.outputs[0])

    def test_validate_catches_use_before_def(self):
        ir = build_chain()
        first, second = ir.nodes()[0], ir.nodes()[1]
        # Manually corrupt ordering.
        first.inputs = (second.node_id,)
        with pytest.raises(PassError):
            ir.validate()

    def test_validate_catches_dangling_output(self):
        ir = build_chain()
        ir.outputs.append(4096)
        with pytest.raises(PassError, match="output 4096 does not exist"):
            ir.validate()

    def test_validate_catches_dangling_registered_input(self):
        ir = build_chain()
        ir.input_ids.append(4096)
        with pytest.raises(PassError, match="registered input 4096"):
            ir.validate()

    def test_validate_catches_key_disagreement(self):
        ir = build_chain()
        ir.nodes()[-1].node_id = 4096
        with pytest.raises(PassError, match="disagrees"):
            ir.validate()

    def test_positions_follow_insertion_order(self):
        ir = build_chain()
        positions = ir.positions()
        assert sorted(positions.values()) == list(range(len(ir)))
        assert [positions[n.node_id] for n in ir.nodes()] == list(
            range(len(ir))
        )


class TestPretty:
    def test_pretty_renders(self):
        text = build_chain().pretty()
        assert "slice_cols" in text and "outputs:" in text
