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

import functools
from typing import NamedTuple

import numpy as np

from repro.core import random as rnd
from repro.core.matrix import Matrix
from repro.device import NULL_CONTEXT, ExecutionContext
from repro.errors import ShapeError, check_count, check_ids
from repro.sparse import CSC, INDEX_DTYPE, as_index_array
from repro.sparse.compact import _relabel
from repro.sparse.formats import (
    FrontierRanges,
    _indptr_from_counts,
    sorted_unique,
)

_ITEM = 8
_VAL = 4


def batch_of_columns(batch_ptr: np.ndarray, num_cols: int) -> np.ndarray:
    """Batch index of every column given the batch boundary pointer."""
    if batch_ptr[-1] != num_cols:
        raise ShapeError("batch_ptr must end at the total column count")
    return (
        np.searchsorted(batch_ptr, np.arange(num_cols), side="right") - 1
    ).astype(INDEX_DTYPE)


class BlockRanges(FrontierRanges):
    """A super-batch's frontier ranges, each edge's row also offset into
    its batch's row block — what the block-diagonal slice and the
    extract-reduce of one hop both read."""

    def __init__(self, csc: CSC, ids: np.ndarray, batch_ptr: np.ndarray) -> None:
        super().__init__(csc, ids)
        self.batch_ptr = batch_ptr

    @functools.cached_property
    def block_rows(self) -> np.ndarray:
        col_batch = batch_of_columns(self.batch_ptr, len(self.ids))
        return self.gathered + np.repeat(col_batch, self.lengths) * self.shape[0]


def block_ranges(
    csc: CSC, frontiers: np.ndarray | BlockRanges, batch_ptr: np.ndarray
) -> BlockRanges:
    """``frontiers``' ranges in ``csc`` per ``batch_ptr``: ``frontiers``
    itself when it is a ``BlockRanges`` of this topology and batch
    pointer, else fresh ranges of checked ids — refused, before any
    gather, unless the ids are columns of ``csc`` and ``batch_ptr`` runs
    from 0 to their count without stepping back."""
    if isinstance(frontiers, BlockRanges):
        if frontiers.of(csc) and frontiers.batch_ptr is batch_ptr:
            return frontiers
        frontiers = frontiers.ids
    ids = check_ids("frontier", frontiers, csc.shape[1])
    batch_ptr = np.asarray(batch_ptr)
    if (
        batch_ptr.ndim != 1
        or len(batch_ptr) < 2
        or batch_ptr[0] != 0
        or batch_ptr[-1] != len(ids)
        or np.any(np.diff(batch_ptr) < 0)
    ):
        raise ShapeError(
            f"batch_ptr must rise from 0 to the {len(ids)} frontiers, "
            f"got {batch_ptr.tolist()}"
        )
    return BlockRanges(csc, ids, batch_ptr)


def sb_slice_cols(
    matrix: Matrix,
    frontiers: np.ndarray | BlockRanges,
    batch_ptr: np.ndarray,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> Matrix:
    """Block-diagonal extract: slice all batches' frontiers in one launch.

    The output has shape ``(B * M, T_total)`` with batch ``b``'s edges
    offset into row block ``b`` — one kernel launch covering what eager
    execution would issue as ``B`` separate slices.  ``frontiers`` may be
    the ranges the hop's extract-reduce gathers from the same topology.
    """
    csc = matrix.get("csc")
    ranges = block_ranges(csc, frontiers, batch_ptr)
    flat = ranges.flat
    out = CSC(
        indptr=_indptr_from_counts(ranges.lengths),
        rows=ranges.block_rows,
        values=None if csc.values is None else csc.values[flat],
        shape=((len(ranges.batch_ptr) - 1) * matrix.shape[0], len(ranges.ids)),
        edge_ids=flat if csc.edge_ids is None else csc.edge_ids[flat],
    )
    read = len(ranges.ids) * 2 * _ITEM + out.nnz * (_ITEM + _VAL)
    ctx.record(
        "sb_slice_cols",
        bytes_read=read,
        bytes_written=out.nbytes(),
        flops=out.nnz * 2.0,
        tasks=max(out.nnz, 1),  # edge-parallel gather
        graph_bytes=read if matrix.is_base_graph else 0.0,
    )
    return Matrix(out, col_ids=ranges.ids, ctx=ctx)


def sb_fused_extract_reduce(
    matrix: Matrix,
    frontiers: np.ndarray | BlockRanges,
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
    if axis != 0:
        raise ShapeError("super-batched extract-reduce handles axis=0 only")
    csc = matrix.get("csc")
    ranges = block_ranges(csc, frontiers, batch_ptr)
    flat = ranges.flat
    vals = (
        np.ones(len(flat), dtype=np.float64)
        if csc.values is None
        else csc.values[flat].astype(np.float64)
    )
    out = np.bincount(
        ranges.block_rows,
        weights=vals,
        minlength=(len(ranges.batch_ptr) - 1) * matrix.shape[0],
    ).astype(np.float32)
    read = len(ranges.ids) * 2 * _ITEM + len(flat) * (_ITEM + _VAL)
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
    rng: np.random.Generator | None = None,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> Matrix:
    """Segmented collective sample: ``k`` row nodes per batch, jointly.

    ``matrix`` must be in block-diagonal row space (from
    :func:`sb_slice_cols`); row block ``b`` is segment ``b``.  Sampling is
    independent per segment, matching the paper's ``segmented collective
    sample`` replacement operator.  Its race draws row sets, so there is
    no ``replace`` to honour.
    """
    check_count("fanout k", k)
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


class SplitPiece:
    """One batch's share of a split super-batched sample.

    :func:`split_sample` fills in ``next_frontiers`` — the piece's unique
    sampled rows in original ids, which the next hop reads — and ``nnz``.
    The piece's own CSC and :class:`Matrix` (rows renumbered to
    ``next_frontiers``, every ``CSC`` / ``Matrix`` check run) are built
    on the first read of :attr:`matrix` and kept, so a caller that only
    walks frontiers (a serving fetch) never builds them.  A piece unpacks
    as the one-layer pair ``(matrix, next_frontiers)``.
    """

    def __init__(
        self,
        merged: Matrix,
        cols: tuple[int, int],
        edges: tuple[int, int],
        uniq: np.ndarray,
        num_graph_rows: int,
        ctx: ExecutionContext,
    ) -> None:
        self._merged = merged
        self._ctx = ctx
        self._cols = cols
        self._edges = edges
        self._uniq = uniq
        merged_row_ids = uniq if merged.row_ids is None else merged.row_ids[uniq]
        self.next_frontiers = as_index_array(merged_row_ids % num_graph_rows)
        self.nnz = edges[1] - edges[0]

    @functools.cached_property
    def matrix(self) -> Matrix:
        merged = self._merged
        csc = merged.get("csc")
        (lo, hi), (e_lo, e_hi) = self._cols, self._edges
        piece_csc = CSC(
            indptr=csc.indptr[lo : hi + 1] - e_lo,
            rows=np.searchsorted(self._uniq, csc.rows[e_lo:e_hi]).astype(
                INDEX_DTYPE
            ),
            values=None if csc.values is None else csc.values[e_lo:e_hi],
            shape=(len(self._uniq), hi - lo),
            edge_ids=None if csc.edge_ids is None else csc.edge_ids[e_lo:e_hi],
        )
        return Matrix(
            piece_csc,
            row_ids=self.next_frontiers,
            col_ids=(
                np.arange(lo, hi, dtype=INDEX_DTYPE)
                if merged.col_ids is None
                else merged.col_ids[lo:hi]
            ),
            ctx=self._ctx,
        )

    def __iter__(self):
        return iter((self.matrix, self.next_frontiers))


class WholePiece(NamedTuple):
    """The sample of a super-batch of one: the run's own pair, unsplit.
    It reads like a :class:`SplitPiece`."""

    matrix: Matrix
    next_frontiers: np.ndarray

    @property
    def nnz(self) -> int:
        return self.matrix.nnz


def split_sample(
    matrix: Matrix,
    batch_ptr: np.ndarray,
    num_graph_rows: int,
    ctx: ExecutionContext = NULL_CONTEXT,
    *,
    block_diagonal: bool = False,
) -> list[SplitPiece]:
    """Split a super-batched sample back into per-batch pieces.

    Because the merged sample's columns are grouped by batch, each piece
    is a *contiguous segment* of the CSC arrays — splitting is mostly
    pointer arithmetic plus a per-piece row renumbering, charged as one
    lightweight kernel over the piece's own edges (not a full generic
    slice + compaction, which would eat the batching gains back).  Each
    piece's rows are found here; its matrix is built on read
    (:class:`SplitPiece`).

    ``block_diagonal`` says the program ran in block-diagonal row space
    (some of its nodes segment by batch:
    :attr:`~repro.sampler.CompiledSampler.segmented`).  A piece's rows
    are then the merged matrix's explicit rows in its block, edge or
    not: a collective sample may pick a row with no edge into its batch
    (FastGCN's global degree² bias does), and a single-batch run keeps
    that row too.  Otherwise they are the rows the piece's edges touch.
    """
    csc = matrix.get("csc")
    num_batches = len(batch_ptr) - 1
    block_rows = block_diagonal and matrix.row_ids is not None
    if block_rows:
        block = matrix.row_ids // num_graph_rows
        order = np.argsort(block, kind="stable").astype(INDEX_DTYPE, copy=False)
        row_ptr = np.searchsorted(block[order], np.arange(num_batches + 1))
    out: list[SplitPiece] = []
    total_edges = 0
    for b in range(num_batches):
        lo, hi = int(batch_ptr[b]), int(batch_ptr[b + 1])
        e_lo, e_hi = int(csc.indptr[lo]), int(csc.indptr[hi])
        if block_rows:
            uniq = order[row_ptr[b] : row_ptr[b + 1]]
        else:
            uniq = sorted_unique(csc.rows[e_lo:e_hi], csc.shape[0])
        out.append(
            SplitPiece(matrix, (lo, hi), (e_lo, e_hi), uniq, num_graph_rows, ctx)
        )
        total_edges += e_hi - e_lo
    ctx.record(
        "sb_split",
        bytes_read=total_edges * (_ITEM + _VAL),
        bytes_written=total_edges * _ITEM,
        flops=total_edges * max(1.0, np.log2(max(total_edges, 2))),
        tasks=max(total_edges, 1),
    )
    return out
