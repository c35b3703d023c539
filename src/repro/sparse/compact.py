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
from repro.errors import FormatError, ShapeError, check_ids
from repro.sparse import kernels
from repro.sparse.formats import (
    COO,
    CSC,
    CSR,
    INDEX_DTYPE,
    SparseFormat,
    _AXES,
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
        ids = kernels._edge_index_across(matrix, axis, ctx)
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
    rather than occupancy.  (The collective sample does not come through
    here: its own launch record covers the restriction, so it calls the
    record-free :func:`_relabel` body directly.)
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
    if keep is None:
        keep = np.asarray(_occupied(matrix, axis, ctx), dtype=INDEX_DTYPE)
    else:
        keep = _check_keep(keep, matrix.shape[axis], axis)
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


def _check_keep(keep: object, extent: int, axis: int) -> np.ndarray:
    """A caller-chosen survivor set names each kept index once, in range.

    A negative id would wrap onto the last index and a repeated one would
    leave an empty local row or column behind.
    """
    name = f"keep {_AXES[axis][:-1]}"
    keep = check_ids(name, keep, extent)
    ordered = np.sort(keep)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if len(repeated):
        raise ShapeError(f"{name} {int(repeated[0])} is repeated")
    return keep


def _relabel(matrix: SparseFormat, keep: np.ndarray, axis: int) -> SparseFormat:
    """Drop edges whose ``axis`` index is not in ``keep``; renumber the rest.

    For COO and *across* a compressed axis, where one index list of the
    surviving edges gathers every per-edge array and edge order (so every
    pointer segment) survives.  ``keep`` must name distinct in-range ids
    (:func:`_compact` checks a caller's; the collective sample passes a
    sorted selection).  Records nothing: ``compact_*`` and the
    collective sample price it as part of their own launch.
    """
    lut = np.full(matrix.shape[axis], -1, dtype=INDEX_DTYPE)
    lut[keep] = np.arange(len(keep), dtype=INDEX_DTYPE)
    shape = (len(keep), matrix.shape[1]) if axis == 0 else (matrix.shape[0], len(keep))
    if isinstance(matrix, COO):
        index = [matrix.rows, matrix.cols]
        index[axis] = lut[index[axis]]
        kept = np.flatnonzero(index[axis] >= 0)
        return COO(
            index[0][kept],
            index[1][kept],
            _take(matrix.values, kept),
            shape,
            _take(matrix.edge_ids, kept),
        )
    if not isinstance(matrix, (CSR, CSC)):
        raise FormatError(f"unknown sparse container {type(matrix).__name__}")
    new_minor = lut[matrix.minor]
    kept = np.flatnonzero(new_minor >= 0)
    # How many survivors precede each old segment boundary is the new
    # pointer.
    return type(matrix)(
        np.searchsorted(kept, matrix.indptr),
        new_minor[kept],
        _take(matrix.values, kept),
        shape,
        _take(matrix.edge_ids, kept),
    )
