"""Graph compaction: isolated-node removal and id relabeling.

The extract step keeps the original row dimension, so ``A[:, frontiers]``
can carry a huge number of isolated row nodes that connect to no frontier
(Section 4.3).  Compaction removes them, shrinking every downstream kernel
— at the price of a global-to-local id conversion pass.  The layout
selection pass weighs that trade-off; this module supplies the mechanism.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.device import NULL_CONTEXT, ExecutionContext
from repro.errors import FormatError
from repro.sparse import kernels
from repro.sparse.formats import (
    COO,
    CSC,
    CSR,
    INDEX_DTYPE,
    SparseFormat,
    _AXES,
    _indptr_from_counts,
    _take,
    sorted_unique,
)


@dataclasses.dataclass
class CompactResult:
    """A compacted matrix plus the local→global id map for each axis.

    ``row_ids[i]`` is the original row index of compacted row ``i``;
    ``col_ids`` likewise (``None`` when the axis was left untouched).
    """

    matrix: SparseFormat
    row_ids: np.ndarray | None
    col_ids: np.ndarray | None


def occupied_rows(
    matrix: SparseFormat, ctx: ExecutionContext = NULL_CONTEXT
) -> np.ndarray:
    """Sorted original indices of rows that carry at least one edge."""
    return _occupied(matrix, 0, ctx)


def occupied_cols(
    matrix: SparseFormat, ctx: ExecutionContext = NULL_CONTEXT
) -> np.ndarray:
    """Sorted original indices of columns that carry at least one edge."""
    return _occupied(matrix, 1, ctx)


def _occupied(
    matrix: SparseFormat, axis: int, ctx: ExecutionContext
) -> np.ndarray:
    """Along the compressed axis a scan of the pointer; otherwise a
    dedupe of every edge's index on ``axis``, charged as the sort-dedupe
    the device kernel is."""
    if matrix.axis == axis:
        out = np.flatnonzero(matrix._degrees() > 0).astype(INDEX_DTYPE)
        read = matrix.indptr.nbytes
        work = flops = matrix.shape[axis]  # one pointer entry per lane
    else:
        ids = kernels.edge_endpoints(matrix, ctx)[axis]
        out = sorted_unique(ids, matrix.shape[axis])
        read = ids.nbytes
        work = matrix.nnz  # one edge per lane, sorted
        flops = max(work, 1) * max(1.0, np.log2(max(work, 2)))
    ctx.record(
        f"occupied_{_AXES[axis]}",
        bytes_read=read,
        bytes_written=out.nbytes,
        flops=flops,
        tasks=max(work, 1),
    )
    return out


def compact_rows(
    matrix: SparseFormat,
    ctx: ExecutionContext = NULL_CONTEXT,
    keep_rows: np.ndarray | None = None,
) -> CompactResult:
    """Drop isolated rows, renumbering survivors to ``0..R-1``.

    ``keep_rows`` overrides the survivor set with rows the caller chose
    rather than occupancy.  (The collective samplers do not come through
    here: their own launch record covers the restriction, so they call
    the record-free :func:`_relabel` body directly.)
    """
    return _compact(matrix, 0, ctx, keep_rows)


def compact_cols(
    matrix: SparseFormat,
    ctx: ExecutionContext = NULL_CONTEXT,
    keep_cols: np.ndarray | None = None,
) -> CompactResult:
    """Drop isolated columns, renumbering survivors to ``0..C-1``."""
    return _compact(matrix, 1, ctx, keep_cols)


def _compact(
    matrix: SparseFormat,
    axis: int,
    ctx: ExecutionContext,
    keep: np.ndarray | None,
) -> CompactResult:
    keep = np.asarray(
        _occupied(matrix, axis, ctx) if keep is None else keep, dtype=INDEX_DTYPE
    )
    if matrix.axis == axis:
        # Along the compressed axis relabeling *is* a range-gather slice,
        # and is recorded as one.
        slice_axis = (kernels.slice_rows, kernels.slice_columns)[axis]
        out = slice_axis(matrix, keep, ctx)
    else:
        out = _relabel(matrix, keep, axis)
        extent = matrix.shape[axis]
        ctx.record(
            f"compact_{_AXES[axis]}",
            bytes_read=matrix.nbytes() + keep.nbytes,
            bytes_written=out.nbytes() + extent * keep.itemsize,
            flops=matrix.nnz + extent,
            tasks=max(matrix.nnz, 1),
        )
    ids: list[np.ndarray | None] = [None, None]
    ids[axis] = keep
    return CompactResult(out, *ids)


def _relabel(matrix: SparseFormat, keep: np.ndarray, axis: int) -> SparseFormat:
    """Drop edges whose ``axis`` index is not in ``keep``; renumber the rest.

    For COO and *across* a compressed axis, where a mask over the stored
    index array does it and edge order (so every pointer segment) survives.
    Records nothing: ``compact_*`` and the collective samplers price it as
    part of their own launch.
    """
    lut = np.full(matrix.shape[axis], -1, dtype=INDEX_DTYPE)
    lut[keep] = np.arange(len(keep), dtype=INDEX_DTYPE)
    shape = (len(keep), matrix.shape[1]) if axis == 0 else (matrix.shape[0], len(keep))
    if isinstance(matrix, COO):
        index = [matrix.rows, matrix.cols]
        index[axis] = lut[index[axis]]
        mask = index[axis] >= 0
        return COO(
            index[0][mask],
            index[1][mask],
            _take(matrix.values, mask),
            shape,
            _take(matrix.edge_ids, mask),
        )
    if not isinstance(matrix, (CSR, CSC)):
        raise FormatError(f"unknown sparse container {type(matrix).__name__}")
    new_minor = lut[matrix.minor]
    mask = new_minor >= 0
    # The running count of survivors, read at the old segment boundaries,
    # is the new pointer.
    survivors = _indptr_from_counts(mask)
    return type(matrix)(
        survivors[matrix.indptr],
        new_minor[mask],
        _take(matrix.values, mask),
        shape,
        _take(matrix.edge_ids, mask),
    )
