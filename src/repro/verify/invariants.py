"""IR invariant checker: validates every pass transition in debug mode.

Each optimization pass must leave the data-flow graph in a state the
interpreter can execute and the next pass can reason about.  The checks
here encode that contract explicitly:

* **structure** — node-table key consistency, def-before-use topological
  order, registered inputs/outputs exist;
* **operand kinds** — every operator has a row in
  :data:`repro.ir.ops.OPS` (the vocabulary is closed: an unknown name is
  a violation, not a skipped node) and receives the value kinds that row
  declares (a matrix where a matrix is consumed, a tensor where an index
  or dense operand is consumed), including the ``has_probs`` arity
  discipline of the stochastic select ops;
* **layout legality** — layout stamps name a real sparse layout and
  appear only on structure-changing matrix operators (Section 4.3:
  compute/finalize ops adopt their upstream layout and must never carry
  their own decision);
* **batch-ptr discipline** — after :class:`SuperBatchPass` there is at
  most one ``sb_batch_ptr`` node, every super-batch operator references
  it at the documented operand position, and no batch-mixing plain
  operator survives the rewrite.

:class:`~repro.ir.passes.base.PassManager` runs :func:`check_invariants`
after every pass when constructed with ``debug=True``; the raised
:class:`~repro.errors.InvariantError` names the pass stage so a broken
pass is identified immediately.
"""

from __future__ import annotations

from repro.errors import InvariantError
from repro.ir.graph import DataFlowGraph
from repro.ir.ops import OPS
from repro.sparse import LAYOUTS

__all__ = ["check_invariants"]

def _kind_matches(expected: str, actual: str) -> bool:
    if expected == "any" or actual == "any":
        return True
    if expected == "ptr":
        return False  # ptr operands are checked by node identity, not kind
    return expected == actual


class _Checker:
    def __init__(self, ir: DataFlowGraph, stage: str) -> None:
        self.ir = ir
        self.stage = stage

    def fail(self, message: str) -> None:
        prefix = f"[{self.stage}] " if self.stage else ""
        raise InvariantError(f"{prefix}{message}")

    # ------------------------------------------------------------------
    def check_structure(self) -> None:
        seen: set[int] = set()
        for key, node in zip(self.ir.positions(), self.ir.nodes()):
            if key != node.node_id:
                self.fail(
                    f"node table key {key} disagrees with node id "
                    f"{node.node_id} ({node.op})"
                )
            for dep in node.inputs:
                if dep not in self.ir:
                    self.fail(
                        f"node {node.node_id} ({node.op}) reads undefined "
                        f"value %{dep}"
                    )
                if dep not in seen:
                    self.fail(
                        f"node {node.node_id} ({node.op}) uses %{dep} "
                        "before its definition (topological order broken)"
                    )
            if node.op.startswith("input") and node.inputs:
                self.fail(
                    f"input node {node.node_id} ({node.op}) must not "
                    "consume other nodes"
                )
            seen.add(node.node_id)
        if not self.ir.outputs:
            self.fail("graph has no outputs")
        for out in self.ir.outputs:
            if out not in self.ir:
                self.fail(f"output %{out} does not exist")
        for inp in self.ir.input_ids:
            if inp not in self.ir:
                self.fail(f"registered input %{inp} does not exist")

    # ------------------------------------------------------------------
    def check_operand_kinds(self) -> None:
        for node in self.ir.nodes():
            row = OPS.get(node.op)
            if row is None:
                self.fail(
                    f"node {node.node_id} has unknown operator {node.op!r}; "
                    "every IR operator needs a row in repro.ir.ops.OPS"
                )
            spec = row.operands
            min_arity = sum(1 for s in spec if not s.startswith(("?", "*")))
            variadic = any(s.startswith("*") for s in spec)
            max_arity = len(spec) if not variadic else None
            n = len(node.inputs)
            if n < min_arity or (max_arity is not None and n > max_arity):
                self.fail(
                    f"node {node.node_id} ({node.op}) has {n} inputs; "
                    f"expected {min_arity}"
                    + ("" if max_arity == min_arity else f"..{max_arity or 'n'}")
                )
            for pos, dep in enumerate(node.inputs):
                token = spec[pos] if pos < len(spec) else spec[-1]
                expected = token.lstrip("?*")
                if expected == "ptr":
                    continue  # checked in check_batch_ptr_discipline
                actual = OPS[self.ir.node(dep).op].produces
                if not _kind_matches(expected, actual):
                    self.fail(
                        f"node {node.node_id} ({node.op}) input {pos} "
                        f"(%{dep}, {self.ir.node(dep).op}) is a {actual}; "
                        f"expected a {expected}"
                    )
            if row.takes_probs:
                has_probs = bool(node.attrs.get("has_probs"))
                want = min_arity + 1 if has_probs else min_arity
                if n != want:
                    self.fail(
                        f"node {node.node_id} ({node.op}) has_probs="
                        f"{has_probs} but {n} inputs (expected {want})"
                    )

    # ------------------------------------------------------------------
    def check_layout_legality(self) -> None:
        for node in self.ir.nodes():
            structure = OPS[node.op].native_layout is not None
            if node.layout is not None:
                if node.layout not in LAYOUTS:
                    self.fail(
                        f"node {node.node_id} ({node.op}) stamped with "
                        f"unknown layout {node.layout!r}; expected one of "
                        f"{LAYOUTS}"
                    )
                if not structure:
                    self.fail(
                        f"node {node.node_id} ({node.op}) carries a layout "
                        "decision but is not a structure operator; "
                        "compute/finalize ops must adopt upstream layout"
                    )
            if node.compact_rows and not structure:
                self.fail(
                    f"node {node.node_id} ({node.op}) requests row "
                    "compaction but is not a structure operator"
                )

    # ------------------------------------------------------------------
    def check_batch_ptr_discipline(self) -> None:
        ptrs = [n for n in self.ir.nodes() if n.op == "sb_batch_ptr"]
        sb_ops = [n for n in self.ir.nodes() if "ptr" in OPS[n.op].operands]
        if len(ptrs) > 1:
            self.fail(
                f"{len(ptrs)} sb_batch_ptr nodes present; the super-batch "
                "rewrite must introduce exactly one"
            )
        if sb_ops and not ptrs:
            self.fail(
                "super-batch operators present without an sb_batch_ptr node"
            )
        if not ptrs:
            return
        ptr = ptrs[0]
        if not sb_ops:
            self.fail(
                f"sb_batch_ptr %{ptr.node_id} has no super-batch consumers; "
                "the rewrite pass must remove an unused pointer"
            )
        for node in sb_ops:
            pos = OPS[node.op].operands.index("ptr")
            if node.inputs[pos] != ptr.node_id:
                self.fail(
                    f"node {node.node_id} ({node.op}) does not reference "
                    f"sb_batch_ptr %{ptr.node_id} at operand {pos}"
                )
        # After the rewrite no batch-mixing plain op may survive: every
        # collective sample and every base-graph column slice must have
        # been converted to its segmented form.
        for node in self.ir.nodes():
            if node.op == "collective_sample":
                self.fail(
                    f"node {node.node_id}: plain collective_sample survives "
                    "in a super-batched graph (would mix batches)"
                )
            if node.op == "slice_cols":
                src = self.ir.node(node.inputs[0])
                meta = src.attrs.get("_meta")
                if src.op in ("input_graph", "input_precomputed") and getattr(
                    meta, "is_base_graph", False
                ):
                    self.fail(
                        f"node {node.node_id}: base-graph slice_cols not "
                        "rewritten to sb_slice_cols (row spaces would be "
                        "shared across batches)"
                    )


def check_invariants(ir: DataFlowGraph, *, stage: str = "") -> None:
    """Validate the full IR invariant set; raise
    :class:`~repro.errors.InvariantError` (naming ``stage``) on the
    first violation."""
    checker = _Checker(ir, stage)
    checker.check_structure()
    checker.check_operand_kinds()
    checker.check_layout_legality()
    checker.check_batch_ptr_discipline()
