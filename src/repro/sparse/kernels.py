"""Compute kernels over sparse matrices.

Each function both performs the computation (vectorized NumPy) and reports
its workload to an :class:`~repro.device.ExecutionContext`, which converts
it into simulated device time.  Kernels are layout-aware: the same logical
operator costs differently on CSC, CSR, and COO, reproducing the
per-operator preferences in Table 5 of the paper (e.g. column slicing is
fast on CSC and slow on COO/CSR; per-row reduction is fast on CSR).

The fused kernels at the bottom implement gSampler's Edge-Map and
Edge-MapReduce fusion (Section 4.2): they read inputs once and write only
the final output, skipping the global-memory round trips an eager
execution would pay for intermediates.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

import numpy as np

from repro.device import NULL_CONTEXT, ExecutionContext
from repro.errors import FormatError, ShapeError
from repro.sparse.formats import (
    COO,
    CSC,
    CSR,
    INDEX_DTYPE,
    VALUE_DTYPE,
    SparseFormat,
    _AXES,
    _indptr_from_counts,
    _take,
    as_index_array,
    edge_values,
    gather_ranges,
)

_ITEM = 8  # bytes per index element
_VAL = 4  # bytes per value element

#: Slice kernels alone spell axis 1 "columns" in their names.
_SLICE_AXES = ("rows", "columns")


# ---------------------------------------------------------------------------
# Structure: slicing
# ---------------------------------------------------------------------------
def slice_columns(
    matrix: SparseFormat,
    cols: np.ndarray,
    ctx: ExecutionContext = NULL_CONTEXT,
    *,
    graph_read: bool = False,
) -> SparseFormat:
    """``A[:, cols]`` — keep the selected columns, renumbered ``0..T-1``.

    The output layout matches the input layout.  ``graph_read`` marks the
    read as touching the original graph's storage, which is priced as UVA
    traffic when the graph lives in host memory.
    """
    return _slice(matrix, cols, 1, ctx, graph_read)


def slice_rows(
    matrix: SparseFormat,
    rows: np.ndarray,
    ctx: ExecutionContext = NULL_CONTEXT,
    *,
    graph_read: bool = False,
) -> SparseFormat:
    """``A[rows, :]`` — keep the selected rows, renumbered ``0..R-1``."""
    return _slice(matrix, rows, 0, ctx, graph_read)


def _slice(
    matrix: SparseFormat,
    ids: np.ndarray,
    axis: int,
    ctx: ExecutionContext,
    graph_read: bool,
) -> SparseFormat:
    """Keep rows (``axis`` 0) or columns (1) ``ids``, renumbered in order.

    The layout rule of Section 4.3, stated once: *along* the axis the
    pointer compresses a slice is a gather of index ranges; *across* it,
    or on COO (which has no pointer), every edge is sort-selected.  That
    is why Table 5 shows ``A[:, frontiers]`` at 1.3 ms on CSC and 18.4 ms
    on COO.
    """
    if not isinstance(matrix, (COO, CSR, CSC)):
        raise FormatError(f"cannot slice {type(matrix).__name__}")
    ids = as_index_array(ids)
    extent = matrix.shape[axis]
    if len(ids) and (ids.min() < 0 or ids.max() >= extent):
        raise ShapeError(
            f"slice ids out of range: {_SLICE_AXES[axis]} must be in [0, {extent})"
        )
    shape = (len(ids), matrix.shape[1]) if axis == 0 else (matrix.shape[0], len(ids))
    if matrix.axis == axis:
        out = _slice_along(matrix, ids, shape)
        read = len(ids) * 2 * _ITEM + out.nnz * (_ITEM + _VAL)
        written = out.nbytes()
        flops = out.nnz
        tasks = max(out.nnz, 1)  # one gather lane per edge
    else:
        select = _slice_coo if isinstance(matrix, COO) else _slice_across
        out = select(matrix, ids, axis, shape)
        # Sort-based selection sweeps the edge list O(log E) times.
        log_e = max(1.0, np.log2(max(matrix.nnz, 2)))
        read = matrix.nbytes() * log_e + len(ids) * _ITEM
        written = out.nbytes() + extent * _ITEM
        flops = matrix.nnz * log_e
        tasks = max(matrix.nnz, 1)
    ctx.record(
        f"slice_{_SLICE_AXES[axis]}_{matrix.layout}",
        bytes_read=read,
        bytes_written=written,
        flops=flops,
        tasks=tasks,
        graph_bytes=read if graph_read else 0.0,
    )
    return out


def _slice_along(
    matrix: CSR | CSC, ids: np.ndarray, shape: tuple[int, int]
) -> CSR | CSC:
    starts = matrix.indptr[ids]
    lengths = matrix.indptr[ids + 1] - starts
    flat = gather_ranges(starts, lengths)
    return type(matrix)(
        _indptr_from_counts(lengths),
        matrix.minor[flat],
        _take(matrix.values, flat),
        shape,
        _take(matrix.edge_ids, flat),
    )


def _sorted_select(
    keys: np.ndarray, wanted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of every occurrence of each wanted key (duplicates kept).

    Returns ``(flat_positions, out_index)`` where ``out_index[i]`` is the
    position in ``wanted`` that ``flat_positions[i]`` was selected for.
    Duplicate entries of ``wanted`` duplicate the matching items, which
    is required because frontier lists may repeat nodes (e.g. walks).
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.searchsorted(sorted_keys, wanted, side="left")
    ends = np.searchsorted(sorted_keys, wanted, side="right")
    lengths = ends - starts
    flat_sorted = gather_ranges(starts, lengths)
    out_index = np.repeat(
        np.arange(len(wanted), dtype=INDEX_DTYPE), lengths
    )
    return order[flat_sorted], out_index


def _slice_coo(
    coo: COO, ids: np.ndarray, axis: int, shape: tuple[int, int]
) -> COO:
    index = [coo.rows, coo.cols]
    flat, index[axis] = _sorted_select(index[axis], ids)
    index[1 - axis] = index[1 - axis][flat]
    return COO(
        *index, _take(coo.values, flat), shape, _take(coo.edge_ids, flat)
    )


def _slice_across(
    matrix: CSR | CSC, ids: np.ndarray, axis: int, shape: tuple[int, int]
) -> CSR | CSC:
    # The pointer groups edges by the other axis: select over all edges,
    # then restore pointer order and rebuild the pointer over the survivors.
    flat, new_minor = _sorted_select(matrix.minor, ids)
    major = matrix._expand()[flat]
    order = np.argsort(major, kind="stable")
    flat = flat[order]
    return type(matrix)(
        _indptr_from_counts(np.bincount(major, minlength=shape[1 - axis])),
        new_minor[order],
        _take(matrix.values, flat),
        shape,
        _take(matrix.edge_ids, flat),
    )


# ---------------------------------------------------------------------------
# Per-edge index views
# ---------------------------------------------------------------------------
def edge_endpoints(
    matrix: SparseFormat, ctx: ExecutionContext = NULL_CONTEXT
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge ``(row, col)`` index arrays for any layout.

    COO holds both natively; CSR/CSC must expand their pointer array,
    which is charged as an extra decompression kernel.
    """
    if isinstance(matrix, COO):
        return matrix.rows, matrix.cols
    if not isinstance(matrix, (CSR, CSC)):
        raise FormatError(f"unknown sparse container {type(matrix).__name__}")
    endpoints = matrix._endpoints()
    ctx.record(
        "expand_indptr",
        bytes_read=matrix.indptr.nbytes,
        bytes_written=endpoints[matrix.axis].nbytes,
        flops=matrix.nnz,
        tasks=max(matrix.nnz, 1),
    )
    return endpoints


def _with_values(matrix: SparseFormat, values: np.ndarray) -> SparseFormat:
    """Copy of ``matrix`` with its values replaced (topology shared)."""
    return dataclasses.replace(
        matrix, values=values.astype(VALUE_DTYPE, copy=False)
    )


# ---------------------------------------------------------------------------
# Edge-map operators
# ---------------------------------------------------------------------------
_BINARY_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "pow": np.power,
}

_UNARY_OPS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "neg": np.negative,
    "sqrt": np.sqrt,
    "relu": lambda x: np.maximum(x, 0.0),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
}


def map_edges_scalar(
    matrix: SparseFormat,
    op: str,
    scalar: float,
    ctx: ExecutionContext = NULL_CONTEXT,
    *,
    reverse: bool = False,
) -> SparseFormat:
    """Element-wise ``A <op> v`` (or ``v <op> A`` when reversed)."""
    if op not in _BINARY_OPS:
        raise FormatError(f"unknown scalar edge op {op!r}")
    vals = edge_values(matrix)
    # Saturating float32 semantics (GPU-like): overflow becomes inf
    # silently rather than warning.
    with np.errstate(over="ignore"):
        if reverse:
            out_vals = _BINARY_OPS[op](VALUE_DTYPE(scalar), vals)
        else:
            out_vals = _BINARY_OPS[op](vals, VALUE_DTYPE(scalar))
    ctx.record(
        f"edge_map_{op}_scalar",
        bytes_read=vals.nbytes,
        bytes_written=out_vals.nbytes,
        flops=matrix.nnz,
        tasks=max(matrix.nnz, 1),
    )
    return _with_values(matrix, out_vals)


def map_edges_unary(
    matrix: SparseFormat, op: str, ctx: ExecutionContext = NULL_CONTEXT
) -> SparseFormat:
    """Element-wise unary op (exp/log/relu/...) over edge values."""
    if op not in _UNARY_OPS:
        raise FormatError(f"unknown unary edge op {op!r}")
    vals = edge_values(matrix)
    out_vals = _UNARY_OPS[op](vals)
    ctx.record(
        f"edge_map_{op}",
        bytes_read=vals.nbytes,
        bytes_written=out_vals.nbytes,
        flops=matrix.nnz,
        tasks=max(matrix.nnz, 1),
    )
    return _with_values(matrix, out_vals)


def map_edges_broadcast(
    matrix: SparseFormat,
    op: str,
    vector: np.ndarray,
    axis: int,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> SparseFormat:
    """Broadcast ``A.<op>(V, axis)``: combine each edge with a node value.

    ``axis=0`` broadcasts ``vector[row]`` onto each edge (vector length is
    the row count); ``axis=1`` broadcasts ``vector[col]``.
    """
    if op not in _BINARY_OPS:
        raise FormatError(f"unknown broadcast edge op {op!r}")
    vector = np.asarray(vector, dtype=VALUE_DTYPE)
    expected = matrix.shape[0] if axis == 0 else matrix.shape[1]
    if axis not in (0, 1):
        raise ShapeError(f"broadcast axis must be 0 or 1, got {axis}")
    if vector.shape != (expected,):
        raise ShapeError(
            f"broadcast vector has shape {vector.shape}, expected ({expected},)"
        )
    rows, cols = edge_endpoints(matrix, ctx)
    idx = rows if axis == 0 else cols
    vals = edge_values(matrix)
    out_vals = _BINARY_OPS[op](vals, vector[idx])
    ctx.record(
        f"edge_map_{op}_broadcast",
        bytes_read=vals.nbytes + matrix.nnz * (_ITEM + _VAL),
        bytes_written=out_vals.nbytes,
        flops=matrix.nnz,
        tasks=max(matrix.nnz, 1),
    )
    return _with_values(matrix, out_vals)


def map_edges_combine(
    a: SparseFormat,
    op: str,
    b: SparseFormat,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> SparseFormat:
    """Element-wise combine of two matrices sharing the same topology.

    Used for e.g. ``sub_A * att`` in PASS, where ``att`` was derived from
    ``sub_A`` and therefore has an identical edge set in identical order.
    """
    if op not in _BINARY_OPS:
        raise FormatError(f"unknown combine edge op {op!r}")
    if a.shape != b.shape or a.nnz != b.nnz:
        raise ShapeError(
            f"combine requires matching topology, got {a.shape}/{a.nnz} "
            f"vs {b.shape}/{b.nnz}"
        )
    va, vb = edge_values(a), edge_values(b)
    out_vals = _BINARY_OPS[op](va, vb)
    ctx.record(
        f"edge_combine_{op}",
        bytes_read=va.nbytes + vb.nbytes,
        bytes_written=out_vals.nbytes,
        flops=a.nnz,
        tasks=max(a.nnz, 1),
    )
    return _with_values(a, out_vals)


# ---------------------------------------------------------------------------
# Edge-reduce operators
# ---------------------------------------------------------------------------
def reduce_rows(
    matrix: SparseFormat, op: str = "sum", ctx: ExecutionContext = NULL_CONTEXT
) -> np.ndarray:
    """``A.sum(axis=0)`` family: reduce each row's edges to one value.

    Returns a dense vector of length ``shape[0]``.  CSR does this with a
    single segmented reduce; COO/CSC pay a scatter (histogram) pass, which
    is why Table 5 shows CSR fastest for ``sub_A.sum()``.
    """
    return _reduce(matrix, op, 0, ctx)


def reduce_cols(
    matrix: SparseFormat, op: str = "sum", ctx: ExecutionContext = NULL_CONTEXT
) -> np.ndarray:
    """``A.sum(axis=1)`` family: reduce each column's edges to one value."""
    return _reduce(matrix, op, 1, ctx)


def _reduce(
    matrix: SparseFormat, op: str, axis: int, ctx: ExecutionContext
) -> np.ndarray:
    """One value per row (``axis`` 0) or column (1) from its edges' values.

    Along the compressed axis the groups are the pointer's segments (one
    segmented reduce); across it, or on COO, edges scatter to their group
    with atomics, at twice the traffic and arithmetic.
    """
    if op not in ("sum", "mean", "max", "min"):
        raise FormatError(f"unknown reduce op {op!r}")
    vals = edge_values(matrix)
    extent = matrix.shape[axis]
    along = matrix.axis == axis
    # Prefix-sum differencing would poison every segment after a
    # non-finite value (inf - inf = nan); scatter-add keeps inf/nan
    # confined to their own groups, so layout selection cannot change
    # results on overflowed inputs.
    prefix_sums = (
        along and op in ("sum", "mean") and bool(np.all(np.isfinite(vals)))
    )
    if not prefix_sums:
        groups = matrix._expand() if along else edge_endpoints(matrix, ctx)[axis]
    if op in ("sum", "mean"):
        if prefix_sums:
            # Exact segmented sum; immune to the empty-segment corner
            # cases of ``np.add.reduceat``.
            csum = np.zeros(len(vals) + 1, dtype=np.float64)
            np.cumsum(vals, dtype=np.float64, out=csum[1:])
            out = csum[matrix.indptr[1:]] - csum[matrix.indptr[:-1]]
        else:
            out = np.bincount(
                groups, weights=vals.astype(np.float64), minlength=extent
            )
        if op == "mean":
            counts = (
                matrix._degrees() if along else np.bincount(groups, minlength=extent)
            )
            with np.errstate(invalid="ignore", divide="ignore"):
                out = out / counts
            out[counts == 0] = 0.0
        out = out.astype(VALUE_DTYPE)
    else:
        out = np.full(extent, -np.inf if op == "max" else np.inf, dtype=VALUE_DTYPE)
        (np.maximum if op == "max" else np.minimum).at(out, groups, vals)
    factor = 1.0 if along else 2.0  # scatter with atomics
    ctx.record(
        f"edge_reduce_{_AXES[axis]}_{op}",
        bytes_read=(vals.nbytes + matrix.nnz * _ITEM) * factor,
        bytes_written=extent * _VAL,
        flops=matrix.nnz * factor,
        tasks=max(matrix.nnz, 1),
    )
    return out


# ---------------------------------------------------------------------------
# Dense interactions
# ---------------------------------------------------------------------------
def scatter_add(groups: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """``out[groups[e]] += values[e]`` into float64 zeros, one row per group.

    Bit-equal to ``out = np.zeros((size,) + values.shape[1:]);
    np.add.at(out, groups, values)``: ``np.bincount`` adds a bin's weights in
    input order, as the unbuffered ``ufunc.at`` does, but in one buffered
    pass (DESIGN "Host kernels").  Trailing axes are flattened into
    ``group * width + column`` bins, a block of columns at a time so the
    index temporary stays under 8 MB whatever the edge count.  A group
    outside ``[0, size)`` raises :class:`ShapeError` — ``add.at`` would
    wrap a negative one and ``bincount`` silently grow the output.
    """
    groups = as_index_array(groups)
    values = np.asarray(values, dtype=np.float64)
    n = len(groups)
    if values.shape[:1] != (n,):
        raise ShapeError(
            f"scatter_add wants one value row per group id, got {n} ids "
            f"and values of shape {values.shape}"
        )
    if n and not 0 <= groups.min() <= groups.max() < size:
        raise ShapeError(
            f"scatter_add groups span [{groups.min()}, {groups.max()}], "
            f"outside [0, {size})"
        )
    shape = (size,) + values.shape[1:]
    if values.size == 0:
        return np.zeros(shape, dtype=np.float64)
    width = values.size // n
    flat = values.reshape(n, width)
    block = min(width, max(1, (1 << 20) // n))
    bins = groups[:, None] * block + np.arange(block)
    parts = []
    for start in range(0, width, block):
        w = min(block, width - start)
        sums = np.bincount(
            bins[:, :w].ravel(),
            weights=flat[:, start : start + w].ravel(),
            minlength=size * block,
        )
        parts.append(sums.reshape(size, block)[:, :w])
    # One block is the common case: its sums are the result, not a copy.
    out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    return out.reshape(shape)


def spmm(
    matrix: SparseFormat,
    dense: np.ndarray,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> np.ndarray:
    """Sparse @ dense: ``(M, N) @ (N, K) -> (M, K)``."""
    dense = np.asarray(dense, dtype=VALUE_DTYPE)
    if dense.ndim == 1:
        dense = dense[:, None]
        squeeze = True
    else:
        squeeze = False
    if dense.shape[0] != matrix.shape[1]:
        raise ShapeError(
            f"spmm inner dims differ: {matrix.shape} @ {dense.shape}"
        )
    rows, cols = edge_endpoints(matrix, ctx)
    vals = edge_values(matrix)
    result = scatter_add(
        rows, vals[:, None].astype(np.float64) * dense[cols], matrix.shape[0]
    ).astype(VALUE_DTYPE)
    k = dense.shape[1]
    ctx.record(
        "spmm",
        bytes_read=vals.nbytes + matrix.nnz * (_ITEM + k * _VAL),
        bytes_written=result.nbytes,
        flops=2.0 * matrix.nnz * k,
        tasks=max(matrix.nnz, 1),
    )
    return result[:, 0] if squeeze else result


def sddmm_dot(
    matrix: SparseFormat,
    row_feats: np.ndarray,
    col_feats: np.ndarray,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> SparseFormat:
    """Sampled dense-dense product: per-edge ``<row_feats[u], col_feats[v]>``.

    This is the kernel behind PASS's attention terms, where each edge's
    bias is the inner product of projected endpoint features.
    """
    row_feats = np.asarray(row_feats, dtype=VALUE_DTYPE)
    col_feats = np.asarray(col_feats, dtype=VALUE_DTYPE)
    if row_feats.shape[0] != matrix.shape[0]:
        raise ShapeError("row_feats first dim must equal row count")
    if col_feats.shape[0] != matrix.shape[1]:
        raise ShapeError("col_feats first dim must equal column count")
    if row_feats.shape[1:] != col_feats.shape[1:]:
        raise ShapeError("row/col feature dims differ")
    rows, cols = edge_endpoints(matrix, ctx)
    out_vals = np.einsum(
        "ij,ij->i", row_feats[rows], col_feats[cols], dtype=np.float64
    ).astype(VALUE_DTYPE)
    k = row_feats.shape[1] if row_feats.ndim > 1 else 1
    ctx.record(
        "sddmm_dot",
        bytes_read=matrix.nnz * (2 * _ITEM + 2 * k * _VAL),
        bytes_written=out_vals.nbytes,
        flops=2.0 * matrix.nnz * k,
        tasks=max(matrix.nnz, 1),
    )
    return _with_values(matrix, out_vals)


# ---------------------------------------------------------------------------
# Fused kernels (Section 4.2)
# ---------------------------------------------------------------------------
def fused_map_chain(
    matrix: SparseFormat,
    steps: Sequence[tuple[str, object, int | None]],
    ctx: ExecutionContext = NULL_CONTEXT,
) -> SparseFormat:
    """Edge-Map fusion: apply a chain of edge maps in one kernel.

    ``steps`` is a sequence of ``(op, operand, axis)`` descriptors where
    ``operand`` is a scalar (axis None), a broadcast vector (axis 0/1),
    a matrix with identical topology (axis ``-1``), or ``None`` for unary
    ops.  The fused kernel reads the input values once and writes only the
    final result — intermediates never hit global memory.
    """
    vals = edge_values(matrix).astype(np.float64)
    rows = cols = None
    extra_reads = 0.0
    for op, operand, axis in steps:
        if operand is None:
            vals = _UNARY_OPS[op](vals)
        elif axis is None:
            vals = _BINARY_OPS[op](vals, float(operand))  # type: ignore[arg-type]
        elif axis == -1:
            other = operand
            assert isinstance(other, (COO, CSR, CSC))
            vals = _BINARY_OPS[op](vals, edge_values(other).astype(np.float64))
            extra_reads += other.nnz * _VAL
        else:
            vector = np.asarray(operand, dtype=np.float64)
            if rows is None:
                rows, cols = edge_endpoints(matrix, ctx)
            idx = rows if axis == 0 else cols
            vals = _BINARY_OPS[op](vals, vector[idx])
            extra_reads += matrix.nnz * (_ITEM + _VAL)
    with np.errstate(over="ignore"):
        out_vals = vals.astype(VALUE_DTYPE)
    ctx.record(
        "fused_edge_map",
        bytes_read=matrix.nnz * _VAL + extra_reads,
        bytes_written=out_vals.nbytes,
        flops=matrix.nnz * max(len(steps), 1),
        tasks=max(matrix.nnz, 1),
    )
    return _with_values(matrix, out_vals)


def fused_map_reduce(
    matrix: SparseFormat,
    steps: Sequence[tuple[str, object, int | None]],
    reduce_op: str,
    reduce_axis: int,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> np.ndarray:
    """Edge-MapReduce fusion: map chain + reduction in one kernel.

    The mapped edge values are consumed directly by the segmented
    reduction; only the per-node output vector is written to memory.  This
    implements the LADIES ``(sub_A ** 2).sum(axis=0)`` fusion shown in
    Figure 5(c) of the paper.
    """
    if reduce_axis not in (0, 1):
        raise ShapeError(f"reduce axis must be 0 or 1, got {reduce_axis}")
    mapped = fused_map_chain(matrix, steps, NULL_CONTEXT)
    out = _reduce(mapped, reduce_op, reduce_axis, NULL_CONTEXT)
    ctx.record(
        "fused_edge_map_reduce",
        bytes_read=matrix.nnz * (_VAL + _ITEM),
        bytes_written=matrix.shape[reduce_axis] * _VAL,
        flops=matrix.nnz * (len(steps) + 1.0),
        tasks=max(matrix.nnz, 1),
    )
    return out
