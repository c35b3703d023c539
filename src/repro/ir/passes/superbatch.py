"""Super-batch rewriting pass (Section 4.4).

Transforms a one-batch sampling IR into its super-batched form:

* a ``_batch_ptr`` input is added (boundaries of each mini-batch within
  the concatenated frontier array);
* if the program aggregates across rows (per-row reduces or a collective
  sample), base-graph column slices become :func:`sb_slice_cols` (block-
  diagonal row spaces) and ``collective_sample`` becomes the segmented
  ``sb_collective_sample`` — keeping batches independent, per the paper;
* purely node-wise programs (GraphSAGE, walks) need no rewriting at all:
  per-column operators are naturally batch-oblivious, so concatenation
  alone is correct and the pass only records that fact.

Programs that update model state per batch (PASS) are rejected upstream;
the paper likewise excludes model-driven algorithms from super-batching.
"""

from __future__ import annotations

from repro.ir.graph import DataFlowGraph, Node
from repro.ir.ops import OPS
from repro.ir.passes.base import Pass


def needs_block_diagonal(ir: DataFlowGraph) -> bool:
    """Whether any operator aggregates across the row dimension and thus
    would mix batches if row spaces were shared."""
    for node in ir.nodes():
        if node.op == "collective_sample":
            return True
        if node.op == "reduce" and node.attrs.get("axis") == 0:
            return True
        if node.op == "fused_map_reduce" and node.attrs.get("reduce_axis") == 0:
            return True
        if node.op == "fused_extract_reduce" and node.attrs.get("axis") == 0:
            return True
    return False


class SuperBatchPass(Pass):
    """Rewrite the IR for super-batched execution."""

    name = "superbatch"

    def __init__(self) -> None:
        self.block_diagonal = False

    def run(self, ir: DataFlowGraph) -> bool:
        if any(n.op == "sb_batch_ptr" for n in ir.nodes()):
            return False  # already rewritten
        self.block_diagonal = needs_block_diagonal(ir)
        if not self.block_diagonal:
            # Concatenation alone is correct; nothing to rewrite.
            return False
        first = ir.nodes()[0]
        ptr = ir.insert_before(
            first.node_id, "sb_batch_ptr", (), {"name": "_batch_ptr"}, "_batch_ptr"
        )
        changed = False
        for node in ir.nodes():
            form = OPS[node.op].superbatch_form
            if form is None or not self._must_segment(ir, node):
                continue
            # The segmented form takes the pointer where its row says.
            at = OPS[form].operands.index("ptr")
            node.op = form
            node.inputs = (*node.inputs[:at], ptr.node_id, *node.inputs[at:])
            changed = True
        # The pointer node was inserted first, so ordering still holds;
        # but if nothing was rewired, drop it again.
        if not changed:
            ir.remove_node(ptr.node_id)
        return changed

    def _must_segment(self, ir: DataFlowGraph, node: Node) -> bool:
        """A collective sample always; a column slice when it slices the
        base graph (where batches would share one row space); a fused
        slice-reduce only if it also reduces per row."""
        if node.op == "collective_sample":
            return True
        if node.op == "fused_extract_reduce" and node.attrs.get("axis") != 0:
            return False
        src = ir.node(node.inputs[0])
        meta = src.attrs.get("_meta")
        return src.op in ("input_graph", "input_precomputed") and (
            meta is not None and getattr(meta, "is_base_graph", False)
        )
