"""Operator fusion passes (Section 4.2 of the paper).

Three rules, tailored to the ECSF structure of sampling programs:

* **Extract-Select fusion** — ``A[:, frontiers]`` immediately consumed by
  an (un-probed) ``individual_sample`` is replaced by a single fused
  kernel that samples straight out of the graph, never materializing the
  extracted subgraph (Figure 5a).  This is the dominant optimization for
  GraphSAGE-style algorithms.
* **Edge-Map fusion** — consecutive edge-map operators over the same
  topology collapse into one kernel (Figure 5b; the PASS attention
  chain).
* **Edge-MapReduce fusion** — an edge-map chain feeding an edge-reduce
  collapses into a reduce that maps on the fly (Figure 5c; the LADIES
  bias computation).
"""

from __future__ import annotations

from repro.ir.graph import DataFlowGraph, Node
from repro.ir.ops import OPS
from repro.ir.passes.base import Pass


class ExtractSelectFusion(Pass):
    """Fuse ``individual_sample(slice_cols(G, f))`` into one kernel.

    Applies when the sliced matrix has no other consumer, the sample uses
    no externally computed probabilities (uniform or the graph's own edge
    weights), and ``G`` is the base input graph — the exact conditions
    under which the subgraph is a pure intermediate.
    """

    name = "extract_select_fusion"

    def run(self, ir: DataFlowGraph) -> bool:
        changed = False
        for node in list(ir.nodes()):
            if node.op != "individual_sample" or node.attrs.get("has_probs"):
                continue
            if node.node_id not in ir:
                continue
            src = ir.node(node.inputs[0])
            if src.op != "slice_cols":
                continue
            if ir.use_count(src.node_id) != 1:
                continue
            graph_id, frontier_id = src.inputs
            graph_node = ir.node(graph_id)
            meta = graph_node.attrs.get("_meta")
            if graph_node.op != "input_graph" or meta is None or not meta.is_base_graph:
                continue
            fused = ir.insert_before(
                src.node_id,
                "fused_extract_select",
                (graph_id, frontier_id),
                {
                    "k": node.attrs["k"],
                    "replace": node.attrs.get("replace", False),
                    "has_probs": False,
                    "_meta": node.attrs.get("_meta"),
                },
                name="fused_extract_select",
            )
            ir.replace_all_uses(node.node_id, fused.node_id)
            ir.remove_node(node.node_id)
            ir.remove_node(src.node_id)
            changed = True
        return changed


def _step_of(node: Node, input_pos_of: dict[int, int]) -> dict | None:
    """Describe one map node as a fused-chain step, or None if ineligible."""
    if node.op == "map_scalar":
        if node.attrs.get("reverse"):
            return None  # reversed scalar ops stay standalone
        return {
            "op": node.attrs["op"],
            "operand_kind": "scalar",
            "value": node.attrs["scalar"],
            "axis": None,
        }
    if node.op == "map_unary":
        return {"op": node.attrs["op"], "operand_kind": "none", "axis": None}
    if node.op == "map_broadcast":
        return {
            "op": node.attrs["op"],
            "operand_kind": "tensor",
            "input_pos": input_pos_of[node.inputs[1]],
            "axis": node.attrs["axis"],
        }
    if node.op == "map_combine":
        return {
            "op": node.attrs["op"],
            "operand_kind": "matrix",
            "input_pos": input_pos_of[node.inputs[1]],
            "axis": -1,
        }
    if node.op == "map_tscalar":
        return {
            "op": node.attrs["op"],
            "operand_kind": "tensor_scalar",
            "input_pos": input_pos_of[node.inputs[1]],
            "index": node.attrs["index"],
            "axis": None,
        }
    return None


class EdgeMapFusion(Pass):
    """Collapse chains of >= 2 edge-map operators into one fused kernel."""

    name = "edge_map_fusion"

    def run(self, ir: DataFlowGraph) -> bool:
        changed = False
        for node in list(ir.nodes()):
            if node.node_id not in ir or not OPS[node.op].edge_map:
                continue
            chain = self._chain_ending_at(ir, node)
            if len(chain) < 2:
                continue
            if self._build_fused_chain(ir, chain):
                changed = True
        return changed

    def _chain_ending_at(self, ir: DataFlowGraph, last: Node) -> list[Node]:
        """Longest chain of single-use map ops terminating at ``last``."""
        # Only start from chain *tails*: nodes whose (single) user is not
        # itself a map op extending the chain.
        users = ir.users(last.node_id)
        if len(users) == 1 and OPS[users[0].op].edge_map and users[0].inputs[0] == last.node_id:
            return []  # not a tail; handled when we reach the tail
        chain = [last]
        cur = last
        while True:
            prev_id = cur.inputs[0]
            prev = ir.node(prev_id)
            if not OPS[prev.op].edge_map:
                break
            if ir.use_count(prev_id) != 1:
                break
            chain.append(prev)
            cur = prev
        chain.reverse()
        return chain

    def _build_fused_chain(self, ir: DataFlowGraph, chain: list[Node]) -> bool:
        base_input = chain[0].inputs[0]
        inputs = [base_input]
        input_pos_of: dict[int, int] = {base_input: 0}
        steps = []
        for node in chain:
            for dep in node.inputs[1:]:
                if dep not in input_pos_of:
                    input_pos_of[dep] = len(inputs)
                    inputs.append(dep)
            step = _step_of(node, input_pos_of)
            if step is None:
                return False
            steps.append(step)
        tail = chain[-1]
        # Insert at the *tail*: operand inputs of later chain links may be
        # defined after the chain head, but all of them precede the tail.
        fused = ir.insert_before(
            tail.node_id,
            "fused_map_chain",
            tuple(inputs),
            {"steps": steps, "_meta": tail.attrs.get("_meta")},
            name="fused_map_chain",
        )
        ir.replace_all_uses(tail.node_id, fused.node_id)
        for node in reversed(chain):
            ir.remove_node(node.node_id)
        return True


class ExtractReduceFusion(Pass):
    """Fuse ``reduce(slice_cols(G, f))`` into one extract-reduce kernel.

    This is the payoff of the pre-processing pass on LADIES: once
    ``sub_A ** 2`` becomes ``M[:, f]``, the bias computation is a reduce
    over a freshly sliced matrix whose only consumer is the reduce — so
    the slice never needs to exist.
    """

    name = "extract_reduce_fusion"

    def run(self, ir: DataFlowGraph) -> bool:
        changed = False
        for node in list(ir.nodes()):
            if node.node_id not in ir or node.op != "reduce":
                continue
            if node.attrs.get("op") != "sum":
                continue  # the fused kernel implements sums only
            src = ir.node(node.inputs[0])
            if src.op != "slice_cols" or ir.use_count(src.node_id) != 1:
                continue
            graph_node = ir.node(src.inputs[0])
            meta = graph_node.attrs.get("_meta")
            if graph_node.op not in ("input_graph", "input_precomputed"):
                continue
            if meta is None or not meta.is_base_graph:
                continue
            fused = ir.insert_before(
                src.node_id,
                "fused_extract_reduce",
                src.inputs,
                {
                    "op": node.attrs["op"],
                    "axis": node.attrs["axis"],
                    "_meta": node.attrs.get("_meta"),
                },
                name="fused_extract_reduce",
            )
            ir.replace_all_uses(node.node_id, fused.node_id)
            ir.remove_node(node.node_id)
            ir.remove_node(src.node_id)
            changed = True
        return changed


class EdgeMapReduceFusion(Pass):
    """Fuse a map (or fused map chain) feeding a reduce into one kernel."""

    name = "edge_mapreduce_fusion"

    def run(self, ir: DataFlowGraph) -> bool:
        changed = False
        for node in list(ir.nodes()):
            if node.node_id not in ir or node.op != "reduce":
                continue
            src = ir.node(node.inputs[0])
            # When the mapped matrix has other consumers it must still be
            # materialized, but the reduce can recompute the map inside
            # its own kernel instead of re-reading the materialized edge
            # values — a memory-traffic win either way.
            src_has_other_users = ir.use_count(src.node_id) != 1
            if src.op == "fused_map_chain":
                steps = src.attrs["steps"]
                inputs = src.inputs
            elif OPS[src.op].edge_map:
                input_pos_of = {src.inputs[0]: 0}
                extra = list(src.inputs[1:])
                for i, dep in enumerate(extra):
                    input_pos_of[dep] = 1 + i
                step = _step_of(src, input_pos_of)
                if step is None:
                    continue
                steps = [step]
                inputs = src.inputs
            else:
                continue
            fused = ir.insert_before(
                src.node_id,
                "fused_map_reduce",
                inputs,
                {
                    "steps": steps,
                    "reduce_op": node.attrs["op"],
                    "reduce_axis": node.attrs["axis"],
                    "_meta": node.attrs.get("_meta"),
                },
                name="fused_map_reduce",
            )
            ir.replace_all_uses(node.node_id, fused.node_id)
            ir.remove_node(node.node_id)
            if not src_has_other_users:
                ir.remove_node(src.node_id)
            changed = True
        return changed
