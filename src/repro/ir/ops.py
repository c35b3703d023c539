"""The operator table: every IR operator, declared once.

The compiler reasons about *classes* of a small closed vocabulary — which
ECSF step an operator belongs to (Section 3), whether it changes graph
structure (Section 4.3: only those get layout decisions), whether it is a
random draw (CSE must not merge it), whether it is an edge map that may
fuse or hoist (Section 4.2).
Each fact is one field of one :class:`OpSpec` row here; passes and the
invariant checker ask ``OPS[node.op]`` instead of keeping name lists of
their own.  The vocabulary is closed: an operator without a row is
rejected by :func:`repro.verify.invariants.check_invariants`, and
``tests/test_ops_table.py`` fails when a row lacks its interpreter
handler (or a handler its row).

Operand tokens: ``matrix`` / ``tensor`` / ``any``; a ``?`` prefix marks
an optional trailing operand, ``*`` a variadic tail.
"""

from __future__ import annotations

import dataclasses

from repro.core.ecsf import Step


@dataclasses.dataclass(frozen=True)
class OpSpec:
    """Static facts about one IR operator."""

    #: Expected value kind of each input, in operand order.
    operands: tuple[str, ...] = ()
    #: Kind of the value produced: ``matrix``, ``tensor`` or ``any``.
    produces: str = "tensor"
    #: ECSF step, for operators a user program can write; ``None`` for
    #: the tracer's leaves and for operators only passes insert.
    step: Step | None = None
    #: A random draw: structurally equal nodes are still distinct values.
    impure: bool = False
    #: The layout the kernel emits on its own.  Set exactly for the
    #: structure-changing operators, the only ones that may carry a
    #: ``layout`` / ``compact_rows`` decision.
    native_layout: str | None = None
    #: Takes one more trailing operand when ``attrs["has_probs"]`` is set.
    takes_probs: bool = False
    #: Per-edge map over an unchanged topology (chain-fusion candidate).
    edge_map: bool = False
    #: The per-edge result ignores which frontiers were sliced (hoistable).
    edge_local: bool = False


_M, _T = "matrix", "tensor"

OPS: dict[str, OpSpec] = {
    # Leaves: traced inputs and constants, hoisted values.
    "input_graph": OpSpec(produces=_M),
    "input_tensor": OpSpec(),
    "input_precomputed": OpSpec(produces="any"),  # a hoisted matrix or tensor
    "const": OpSpec(),
    # Extract.
    "slice_cols": OpSpec((_M, _T), _M, Step.EXTRACT, native_layout="csc"),
    "slice_rows": OpSpec((_M, _T), _M, Step.EXTRACT, native_layout="csr"),
    # Compute: edge maps, reductions, sparse-dense products.
    "map_scalar": OpSpec((_M,), _M, Step.COMPUTE, edge_map=True, edge_local=True),
    "map_unary": OpSpec((_M,), _M, Step.COMPUTE, edge_map=True, edge_local=True),
    "map_combine": OpSpec((_M, _M), _M, Step.COMPUTE, edge_map=True),
    "map_broadcast": OpSpec((_M, _T), _M, Step.COMPUTE, edge_map=True),
    "map_tscalar": OpSpec((_M, _T), _M, Step.COMPUTE, edge_map=True),
    "reduce": OpSpec((_M,), _T, Step.COMPUTE),
    "spmm": OpSpec((_M, _T), _T, Step.COMPUTE),
    "sddmm": OpSpec((_M, _T, _T), _M, Step.COMPUTE),
    # Select.
    "individual_sample": OpSpec(
        (_M, "?any"), _M, Step.SELECT, impure=True, native_layout="csc",
        takes_probs=True,
    ),
    "collective_sample": OpSpec(
        (_M, "?tensor"), _M, Step.SELECT, impure=True, native_layout="csc",
        takes_probs=True,
    ),
    "labor_sample": OpSpec((_M,), _M, Step.SELECT, impure=True, native_layout="csc"),
    # Finalize.
    "row": OpSpec((_M,), _T, Step.FINALIZE),
    "column": OpSpec((_M,), _T, Step.FINALIZE),
    "compact": OpSpec((_M,), _M, Step.FINALIZE),
    # Dense tensor arithmetic feeding the compute step.
    "t_binop": OpSpec((_T, _T), _T, Step.COMPUTE),
    "t_binop_scalar": OpSpec((_T,), _T, Step.COMPUTE),
    "t_unop": OpSpec((_T,), _T, Step.COMPUTE),
    "t_sum": OpSpec((_T,), _T, Step.COMPUTE),
    "t_index": OpSpec((_T, _T), _T, Step.COMPUTE),
    "t_matmul": OpSpec((_T, _T), _T, Step.COMPUTE),
    # Fused kernels, inserted by the fusion passes.
    "fused_extract_select": OpSpec(
        (_M, _T, "?tensor"), _M, impure=True, native_layout="csc", takes_probs=True
    ),
    "fused_extract_reduce": OpSpec((_M, _T), _T),
    "fused_map_chain": OpSpec((_M, "*any"), _M),
    "fused_map_reduce": OpSpec((_M, "*any"), _T),
}

#: Operators whose results are random draws; never CSE-merge these.
IMPURE_OPS = frozenset(n for n, s in OPS.items() if s.impure)
#: Operators that produce a sparse matrix.
MATRIX_OPS = frozenset(n for n, s in OPS.items() if s.produces == _M)
#: Structure-changing operators: only these get layout decisions.
STRUCTURE_OPS = frozenset(n for n, s in OPS.items() if s.native_layout is not None)
#: ECSF step of every operator a user program can write.
STEP_OF_OP = {n: s.step for n, s in OPS.items() if s.step is not None}
