"""Data-layout selection pass (Section 4.3 of the paper).

Only the extract and select steps change graph structure; compute and
finalize operators simply adopt their upstream layout.  The pass therefore
searches an output layout (CSC/CSR/COO) — and, for extract operators, a
row-compaction decision — for every structure operator, choosing the
assignment that minimizes estimated total cost: the producer's conversion
cost *plus* every consumer's execution cost under that layout.  This is
the cost-aware strategy the paper contrasts with DGL's greedy per-operator
format choice, which ignores conversion overhead.

Costs are relative units scaled by the traced size estimates; the search
space is tiny (3 layouts x 2 compaction per structure node, and the nodes
are independent because consumers see exactly one producer layout), so
exhaustive enumeration is instant — matching the paper's "brute force
within 1 second, amortized over mini-batches".
"""

from __future__ import annotations

from repro.ir.graph import DataFlowGraph, Node
from repro.ir.ops import OPS
from repro.ir.passes.base import Pass

#: Relative per-edge execution cost of each consumer op per input layout.
#: These are the along / across / COO rule of ``repro.sparse.kernels``
#: (stated once, in ``_slice`` and ``_reduce``) as ratios: an op along the
#: layout's compressed axis reads pointer ranges, across it or on COO it
#: touches every edge (Table 5's 1.32 / 18.42 / 14.13 ms pattern for
#: ``A[:, frontiers]`` on CSC / COO / CSR).
CONSUMER_COST: dict[str, dict[str, float]] = {
    "slice_cols": {"csc": 1.0, "coo": 12.0, "csr": 10.0},
    "slice_rows": {"csr": 1.0, "coo": 12.0, "csc": 10.0},
    "reduce_rows": {"csr": 1.0, "coo": 2.0, "csc": 2.6},
    "reduce_cols": {"csc": 1.0, "coo": 2.0, "csr": 2.6},
    "map_broadcast_rows": {"coo": 1.0, "csc": 1.0, "csr": 1.5},
    "map_broadcast_cols": {"coo": 1.0, "csr": 1.0, "csc": 1.5},
    "map_elementwise": {"coo": 1.0, "csr": 1.0, "csc": 1.0},
    "individual_sample": {"csc": 1.0, "coo": 3.5, "csr": 5.0},
    "collective_sample": {"csc": 1.0, "coo": 2.0, "csr": 3.0},
    "labor_sample": {"csc": 1.0, "coo": 3.0, "csr": 4.5},
    "spmm": {"coo": 1.0, "csr": 1.0, "csc": 1.3},
    "row": {"csr": 0.3, "coo": 1.0, "csc": 1.2},
    "default": {"csc": 1.0, "coo": 1.0, "csr": 1.0},
}

#: Extra cost of *producing* each layout, relative to the op's native
#: output format (CSC for all our structure kernels): decompressing to COO
#: is cheap, compressing to CSR needs a sort.
PRODUCTION_COST = {"csc": 0.0, "coo": 0.6, "csr": 3.5}

#: Cost charged per edge for the compaction relabel pass.
COMPACT_COST_PER_EDGE = 2.0
#: Benefit per eliminated isolated row per row-length consumer.
COMPACT_BENEFIT_PER_ROW = 1.0


def _consumer_kind(node: Node) -> str:
    if node.op == "reduce" or node.op == "fused_map_reduce":
        axis = node.attrs.get("axis", node.attrs.get("reduce_axis", 0))
        return "reduce_rows" if axis == 0 else "reduce_cols"
    if node.op == "map_broadcast":
        return "map_broadcast_rows" if node.attrs.get("axis") == 0 else (
            "map_broadcast_cols"
        )
    # ``scale`` (map_tscalar) stays on the equal-cost ``default`` row it has
    # always been priced with: GreedyLayoutPass breaks ties by row order.
    spec = OPS[node.op]
    if node.op == "fused_map_chain" or (
        spec.edge_map and "tensor" not in spec.operands
    ):
        return "map_elementwise"
    if node.op in CONSUMER_COST:
        return node.op
    return "default"


class LayoutSelectionPass(Pass):
    """Stamps ``layout`` / ``compact_rows`` decisions on structure nodes."""

    name = "layout_selection"

    def __init__(self, *, enable_compaction: bool = True) -> None:
        self.enable_compaction = enable_compaction

    def run(self, ir: DataFlowGraph) -> bool:
        changed = False
        for node in ir.nodes():
            if OPS[node.op].native_layout is None:
                continue
            layout = self._best_layout(ir, node)
            if node.layout != layout:
                node.layout = layout
                changed = True
            compact = self.enable_compaction and self._should_compact(ir, node)
            if node.compact_rows != compact:
                node.compact_rows = compact
                changed = True
        return changed

    # ------------------------------------------------------------------
    def _best_layout(self, ir: DataFlowGraph, node: Node) -> str:
        meta = node.attrs.get("_meta")
        nnz = max(getattr(meta, "est_nnz", 1.0), 1.0)
        consumers = ir.users(node.node_id)
        best_layout, best_cost = "csc", float("inf")
        for layout in ("csc", "coo", "csr"):
            cost = PRODUCTION_COST[layout] * nnz
            for consumer in consumers:
                kind = _consumer_kind(consumer)
                table = CONSUMER_COST.get(kind, CONSUMER_COST["default"])
                cost += table[layout] * nnz
            if cost < best_cost:
                best_layout, best_cost = layout, cost
        return best_layout

    # ------------------------------------------------------------------
    def _should_compact(self, ir: DataFlowGraph, node: Node) -> bool:
        """Compact extract outputs whose isolated rows burden consumers.

        Safety: compaction rewrites the matrix's row space to local ids,
        so any per-row reduce result changes length.  That is transparent
        to consumers *within the matrix's own lineage*, but a ``t_index``
        that gathers such a vector by original node ids (via ``row()``)
        would silently mis-index — so compaction is suppressed whenever
        the slice's reduce results escape into a ``t_index``.
        """
        if OPS[node.op].impure:
            return False  # a select's rows are the sampled ones already
        meta = node.attrs.get("_meta")
        if meta is None:
            return False
        total_rows = meta.est_rows
        occupied = min(meta.est_nnz, total_rows)
        saved_rows = total_rows - occupied
        if saved_rows <= 0:
            return False
        if self._reduce_escapes_to_index(ir, node):
            return False
        row_consumers = sum(
            1
            for user in ir.users(node.node_id)
            if _consumer_kind(user) in ("reduce_rows", "collective_sample")
        )
        if row_consumers == 0:
            return False
        benefit = saved_rows * COMPACT_BENEFIT_PER_ROW * row_consumers
        cost = meta.est_nnz * COMPACT_COST_PER_EDGE
        return benefit > cost

    def _reduce_escapes_to_index(self, ir: DataFlowGraph, node: Node) -> bool:
        """True if a per-row reduce of this matrix feeds a t_index."""
        descendants = self._descendants(ir, node.node_id)
        for desc_id in descendants:
            desc = ir.node(desc_id)
            if desc.op == "t_index":
                # Either operand deriving from the slice is unsafe.
                return True
        return False

    def _descendants(self, ir: DataFlowGraph, root: int) -> set[int]:
        out: set[int] = set()
        frontier = [root]
        while frontier:
            cur = frontier.pop()
            for user in ir.users(cur):
                if user.node_id not in out:
                    out.add(user.node_id)
                    frontier.append(user.node_id)
        return out


class GreedyLayoutPass(Pass):
    """DGL-style greedy layout choice, for the ablation baseline.

    Picks each structure operator's *self-preferred* output format in
    isolation, ignoring consumer conversion costs — the strategy the
    paper attributes to DGL ("greedily select the optimal sparse format
    for each operator without considering the conversion overheads").
    """

    name = "layout_greedy"

    def run(self, ir: DataFlowGraph) -> bool:
        changed = False
        for node in ir.nodes():
            layout = OPS[node.op].native_layout
            if layout is None:
                continue
            # Greedy: give the *first* consumer its favourite format,
            # conversion costs be damned.
            consumers = ir.users(node.node_id)
            if consumers:
                kind = _consumer_kind(consumers[0])
                table = CONSUMER_COST.get(kind, CONSUMER_COST["default"])
                layout = min(table, key=lambda fmt: table[fmt])
            if node.layout != layout:
                node.layout = layout
                changed = True
        return changed
