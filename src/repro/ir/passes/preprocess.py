"""Pre-processing pass: hoist frontier-invariant compute out of sampling.

Section 4.2: gSampler pre-computes variables that do not change across
mini-batches.  Two patterns are recognized:

1. an operator applied *directly to the base graph* produces a constant
   (FastGCN's node degrees, SEAL's PPR scores) — evaluate it once at
   compile time and feed the result in as a pre-computed input;
2. an edge-local operator applied to an *extracted subgraph* produces the
   same per-edge result as if applied to the whole graph — evaluate it on
   the whole graph once, then replace ``op(A[:, f])`` with ``M[:, f]``
   where ``M`` is the pre-computed matrix (the paper's LADIES example:
   ``M = A ** 2``).

Only position-independent edge ops (scalar/unary maps) are hoisted; a
broadcast against a per-frontier vector is not frontier-invariant.
"""

from __future__ import annotations

import numpy as np

from repro.core.matrix import Matrix
from repro.device import NULL_CONTEXT
from repro.ir.graph import DataFlowGraph, Node
from repro.ir.ops import OPS
from repro.ir.passes.base import Pass
from repro.sparse import kernels as K


class PreprocessPass(Pass):
    """Evaluates frontier-invariant subgraphs at compile time.

    The pass owns the concrete input graph and a ``precomputed`` dict; the
    compiler hands both to the interpreter so pre-computed inputs resolve
    at run time with zero cost (their one-time cost is paid here and
    amortized over every subsequent mini-batch).
    """

    name = "preprocess"

    def __init__(self, graph: Matrix, precomputed: dict[str, object]) -> None:
        self.graph = graph
        self.precomputed = precomputed
        self._counter = 0

    def run(self, ir: DataFlowGraph) -> bool:
        changed = False
        if self._hoist_graph_constants(ir):
            changed = True
        if self._hoist_sliced_maps(ir):
            changed = True
        return changed

    # ------------------------------------------------------------------
    def _fresh_name(self) -> str:
        name = f"pre_{self._counter}"
        self._counter += 1
        return name

    def _is_base_graph_node(self, ir: DataFlowGraph, node_id: int) -> bool:
        node = ir.node(node_id)
        meta = node.attrs.get("_meta")
        return (
            node.op == "input_graph"
            and meta is not None
            and getattr(meta, "is_base_graph", False)
        )

    # ------------------------------------------------------------------
    def _hoist_graph_constants(self, ir: DataFlowGraph) -> bool:
        """Pattern 1: reduce/map applied directly to the base graph."""
        changed = False
        for node in list(ir.nodes()):
            if node.node_id not in ir:
                continue
            if not OPS[node.op].edge_local and node.op != "reduce":
                continue
            if not self._is_base_graph_node(ir, node.inputs[0]):
                continue
            value = self._evaluate_on_graph(node, self.graph)
            name = self._fresh_name()
            self.precomputed[name] = value
            pre = ir.insert_before(
                node.node_id,
                "input_precomputed",
                (),
                {"name": name, "_meta": node.attrs.get("_meta")},
                name=name,
            )
            ir.replace_all_uses(node.node_id, pre.node_id)
            ir.remove_node(node.node_id)
            changed = True
        return changed

    def _hoist_sliced_maps(self, ir: DataFlowGraph) -> bool:
        """Pattern 2: ``map(slice(G, f))`` becomes ``slice(map(G), f)``."""
        changed = False
        # Cache hoisted graph transforms so e.g. two maps of A ** 2 share
        # one pre-computed matrix.
        hoisted: dict[tuple, int] = {}
        for node in list(ir.nodes()):
            if node.node_id not in ir or not OPS[node.op].edge_local:
                continue
            slice_node = ir.node(node.inputs[0])
            if slice_node.op not in ("slice_cols", "slice_rows"):
                continue
            if not self._is_base_graph_node(ir, slice_node.inputs[0]):
                continue
            key = (node.op, _attr_key(node))
            if key in hoisted:
                pre_id = hoisted[key]
            else:
                value = self._evaluate_on_graph(node, self.graph)
                name = self._fresh_name()
                self.precomputed[name] = value
                pre = ir.insert_before(
                    slice_node.node_id,
                    "input_precomputed",
                    (),
                    {
                        "name": name,
                        "_meta": ir.node(slice_node.inputs[0]).attrs.get("_meta"),
                    },
                    name=name,
                )
                pre_id = pre.node_id
                hoisted[key] = pre_id
            new_slice = ir.insert_before(
                node.node_id,
                slice_node.op,
                (pre_id, slice_node.inputs[1]),
                {"_meta": node.attrs.get("_meta")},
                name=f"{slice_node.op}_pre",
            )
            ir.replace_all_uses(node.node_id, new_slice.node_id)
            ir.remove_node(node.node_id)
            changed = True
        return changed

    # ------------------------------------------------------------------
    def _evaluate_on_graph(self, node: Node, graph: Matrix) -> object:
        """Run one hoisted operator on the concrete graph, uncharged."""
        storage = graph.any_storage()
        if node.op == "map_scalar":
            out = K.map_edges_scalar(
                storage,
                node.attrs["op"],
                node.attrs["scalar"],
                NULL_CONTEXT,
                reverse=node.attrs.get("reverse", False),
            )
            return Matrix(out, is_base_graph=True)
        if node.op == "map_unary":
            out = K.map_edges_unary(storage, node.attrs["op"], NULL_CONTEXT)
            return Matrix(out, is_base_graph=True)
        if node.op == "reduce":
            if node.attrs["axis"] == 0:
                return K.reduce_rows(storage, node.attrs["op"], NULL_CONTEXT)
            return K.reduce_cols(storage, node.attrs["op"], NULL_CONTEXT)
        raise AssertionError(f"unexpected hoisted op {node.op}")


def _attr_key(node: Node) -> tuple:
    return tuple(
        (k, v)
        for k, v in sorted(node.attrs.items())
        if k != "_meta" and not isinstance(v, np.ndarray)
    )

