"""Segmented (super-batch) operators.

Super-batch sampling (Section 4.4) runs several independent mini-batches
through one kernel launch sequence.  Correctness requires that batches do
not interfere, which gSampler guarantees by giving each mini-batch its own
row-id space: the extracted per-batch matrices are laid out as blocks of a
block-diagonal matrix, i.e. batch ``b``'s rows live in
``[b * M, (b + 1) * M)`` where ``M`` is the graph's node count.  Compute
operators then work unchanged (each batch's rows are disjoint), and only
the select step needs dedicated *segmented* variants — exactly the
division of labour the paper chooses ("a few dedicated super-batch
operators for the extract and select steps ... construct large batch
input for the compute operators").
"""

from __future__ import annotations

import numpy as np

from repro.core import random as rnd
from repro.core.matrix import Matrix
from repro.device import NULL_CONTEXT, ExecutionContext
from repro.errors import ShapeError
from repro.sparse import CSC, INDEX_DTYPE
from repro.sparse.compact import _relabel
from repro.sparse.formats import gather_ranges, sorted_unique

_ITEM = 8
_VAL = 4


def batch_of_columns(batch_ptr: np.ndarray, num_cols: int) -> np.ndarray:
    """Batch index of every column given the batch boundary pointer."""
    if batch_ptr[-1] != num_cols:
        raise ShapeError("batch_ptr must end at the total column count")
    return (
        np.searchsorted(batch_ptr, np.arange(num_cols), side="right") - 1
    ).astype(INDEX_DTYPE)


def sb_slice_cols(
    matrix: Matrix,
    frontiers: np.ndarray,
    batch_ptr: np.ndarray,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> Matrix:
    """Block-diagonal extract: slice all batches' frontiers in one launch.

    The output has shape ``(B * M, T_total)`` with batch ``b``'s edges
    offset into row block ``b`` — one kernel launch covering what eager
    execution would issue as ``B`` separate slices.
    """
    num_batches = len(batch_ptr) - 1
    csc = matrix.get("csc")
    starts = csc.indptr[frontiers]
    lengths = csc.indptr[frontiers + 1] - starts
    flat = gather_ranges(starts, lengths)
    indptr = np.zeros(len(frontiers) + 1, dtype=INDEX_DTYPE)
    np.cumsum(lengths, out=indptr[1:])
    col_batch = batch_of_columns(batch_ptr, len(frontiers))
    edge_batch = np.repeat(col_batch, lengths)
    rows = csc.rows[flat] + edge_batch * matrix.shape[0]
    out = CSC(
        indptr=indptr,
        rows=rows,
        values=None if csc.values is None else csc.values[flat],
        shape=(num_batches * matrix.shape[0], len(frontiers)),
        edge_ids=flat if csc.edge_ids is None else csc.edge_ids[flat],
    )
    read = len(frontiers) * 2 * _ITEM + out.nnz * (_ITEM + _VAL)
    ctx.record(
        "sb_slice_cols",
        bytes_read=read,
        bytes_written=out.nbytes(),
        flops=out.nnz * 2.0,
        tasks=max(out.nnz, 1),  # edge-parallel gather
        graph_bytes=read if matrix.is_base_graph else 0.0,
    )
    return Matrix(out, col_ids=np.asarray(frontiers, dtype=INDEX_DTYPE), ctx=ctx)


def sb_fused_extract_reduce(
    matrix: Matrix,
    frontiers: np.ndarray,
    batch_ptr: np.ndarray,
    op: str,
    axis: int,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> np.ndarray:
    """Super-batched Extract-Reduce fusion.

    Per-row reductions must not mix batches, so batch ``b``'s
    contributions land in row block ``b`` of a ``B * M`` output vector —
    the vector analogue of the block-diagonal matrix construction.
    """
    if op != "sum":
        raise ShapeError(f"fused extract-reduce supports sum, got {op!r}")
    csc = matrix.get("csc")
    frontiers = np.asarray(frontiers, dtype=INDEX_DTYPE)
    num_batches = len(batch_ptr) - 1
    starts = csc.indptr[frontiers]
    lengths = csc.indptr[frontiers + 1] - starts
    flat = gather_ranges(starts, lengths)
    vals = (
        np.ones(len(flat), dtype=np.float64)
        if csc.values is None
        else csc.values[flat].astype(np.float64)
    )
    if axis != 0:
        raise ShapeError("super-batched extract-reduce handles axis=0 only")
    col_batch = batch_of_columns(batch_ptr, len(frontiers))
    edge_batch = np.repeat(col_batch, lengths)
    offset_rows = csc.rows[flat] + edge_batch * matrix.shape[0]
    out = np.bincount(
        offset_rows, weights=vals, minlength=num_batches * matrix.shape[0]
    ).astype(np.float32)
    read = len(frontiers) * 2 * _ITEM + len(flat) * (_ITEM + _VAL)
    ctx.record(
        "sb_fused_extract_reduce",
        bytes_read=read,
        bytes_written=out.nbytes,
        flops=float(len(flat)) * 2.0,
        tasks=max(len(flat), 1),
        graph_bytes=read if matrix.is_base_graph else 0.0,
    )
    return out


def sb_collective_sample(
    matrix: Matrix,
    k: int,
    batch_ptr: np.ndarray,
    node_probs: np.ndarray | None = None,
    *,
    replace: bool = False,
    rng: np.random.Generator | None = None,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> Matrix:
    """Segmented collective sample: ``k`` row nodes per batch, jointly.

    ``matrix`` must be in block-diagonal row space (from
    :func:`sb_slice_cols`); row block ``b`` is segment ``b``.  Sampling is
    independent per segment, matching the paper's ``segmented collective
    sample`` replacement operator.
    """
    rng = rng if rng is not None else rnd.new_rng()
    num_batches = len(batch_ptr) - 1
    csc = matrix.get("csc")
    total_rows = csc.shape[0]
    if total_rows % num_batches != 0:
        raise ShapeError(
            f"row space {total_rows} is not divisible into {num_batches} batches"
        )
    rows_per_batch = total_rows // num_batches
    if node_probs is None:
        from repro.sparse import reduce_rows

        node_probs = reduce_rows(csc, "sum", ctx).astype(np.float64)
    else:
        node_probs = np.asarray(node_probs, dtype=np.float64)
        if node_probs.shape == (rows_per_batch,):
            # Batch-invariant probs (e.g. hoisted base-graph degrees or
            # learned per-node scores): lift into block-diagonal row
            # space by repeating the vector once per segment.
            node_probs = np.tile(node_probs, num_batches)
        if node_probs.shape != (total_rows,):
            raise ShapeError(
                f"node_probs shape {node_probs.shape} != rows ({total_rows},)"
            )
    # One exponential race across all rows, k winners per batch segment.
    keys = rnd.exponential_race_keys(node_probs, rng)
    seg_ptr = np.arange(num_batches + 1, dtype=INDEX_DTYPE) * rows_per_batch
    selected = rnd.segmented_race_select(keys, seg_ptr, k)
    selected = np.sort(selected).astype(INDEX_DTYPE)

    sub = _relabel(csc, selected, 0)
    ctx.record(
        "sb_collective_sample",
        bytes_read=node_probs.nbytes
        + csc.nnz * (_ITEM + (_VAL if csc.values is not None else 0)),
        bytes_written=sub.nbytes() + selected.nbytes,
        flops=total_rows + csc.nnz,
        tasks=max(csc.nnz, 1),
    )
    # The external row ids stay in block-diagonal space too: the debias
    # steps index per-(batch, node) vectors with them (the interpreter's
    # super-batched ``t_index`` folds them for batch-invariant per-node
    # vectors), and :func:`split_sample` folds them on the way out.
    row_ids = selected if matrix.row_ids is None else matrix.row_ids[selected]
    return Matrix(sub, row_ids=row_ids, col_ids=matrix.col_ids, ctx=ctx)


def split_sample(
    matrix: Matrix,
    batch_ptr: np.ndarray,
    num_graph_rows: int,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> list[Matrix]:
    """Split a super-batched sample back into per-batch matrices.

    Because the merged sample's columns are grouped by batch, each piece
    is a *contiguous segment* of the CSC arrays — splitting is mostly
    pointer arithmetic plus a per-piece row renumbering, charged as one
    lightweight kernel over the piece's own edges (not a full generic
    slice + compaction, which would eat the batching gains back).
    """
    csc = matrix.get("csc")
    out: list[Matrix] = []
    total_edges = 0
    for b in range(len(batch_ptr) - 1):
        lo, hi = int(batch_ptr[b]), int(batch_ptr[b + 1])
        e_lo, e_hi = int(csc.indptr[lo]), int(csc.indptr[hi])
        rows_b = csc.rows[e_lo:e_hi]
        uniq, inv = sorted_unique(rows_b, csc.shape[0], return_inverse=True)
        piece_csc = CSC(
            indptr=csc.indptr[lo : hi + 1] - e_lo,
            rows=inv.astype(INDEX_DTYPE),
            values=None if csc.values is None else csc.values[e_lo:e_hi],
            shape=(len(uniq), hi - lo),
            edge_ids=None if csc.edge_ids is None else csc.edge_ids[e_lo:e_hi],
        )
        merged_row_ids = (
            uniq if matrix.row_ids is None else matrix.row_ids[uniq]
        )
        piece_col_ids = (
            np.arange(lo, hi, dtype=INDEX_DTYPE)
            if matrix.col_ids is None
            else matrix.col_ids[lo:hi]
        )
        out.append(
            Matrix(
                piece_csc,
                row_ids=merged_row_ids % num_graph_rows,
                col_ids=piece_col_ids,
                ctx=ctx,
            )
        )
        total_edges += len(rows_b)
    ctx.record(
        "sb_split",
        bytes_read=total_edges * (_ITEM + _VAL),
        bytes_written=total_edges * _ITEM,
        flops=total_edges * max(1.0, np.log2(max(total_edges, 2))),
        tasks=max(total_edges, 1),
    )
    return out
