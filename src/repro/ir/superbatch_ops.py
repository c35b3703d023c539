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
from repro.sparse.formats import (
    VALUE_DTYPE,
    FrontierRanges,
    _indptr_from_counts,
    _take,
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
    def column_ptr(self) -> np.ndarray:
        """The slice's column pointer: where each frontier's edges start."""
        return _indptr_from_counts(self.lengths)

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


class BlockSlice:
    """A hop's block-diagonal column slice (:func:`sb_slice_cols`), kept as
    the ranges it reads until a reader needs the matrix.

    The segmented collective sample reads :attr:`ranges` and the sliced
    ``source`` directly; any other reader gets :attr:`matrix`, the
    ``(B * M, T)`` block-diagonal CSC, built on first read and kept.
    :meth:`nbytes` is that CSC's size, built or not: the device holds it.
    """

    def __init__(
        self, ranges: BlockRanges, source: CSC, ctx: ExecutionContext
    ) -> None:
        self.ranges = ranges
        self.source = source
        self.ctx = ctx
        num_batches = len(ranges.batch_ptr) - 1
        self.shape = (num_batches * source.shape[0], len(ranges.ids))
        self.nnz = int(ranges.lengths.sum())

    def nbytes(self) -> int:
        """Bytes of the block-diagonal CSC, exactly as built."""
        index = np.dtype(INDEX_DTYPE).itemsize
        value = 0 if self.source.values is None else np.dtype(VALUE_DTYPE).itemsize
        # indptr, then rows, edge ids and values per edge.
        return (self.shape[1] + 1 + 2 * self.nnz) * index + self.nnz * value

    @functools.cached_property
    def matrix(self) -> Matrix:
        ranges, source = self.ranges, self.source
        flat = ranges.flat
        out = CSC(
            indptr=ranges.column_ptr,
            rows=ranges.block_rows,
            values=None if source.values is None else source.values[flat],
            shape=self.shape,
            edge_ids=flat if source.edge_ids is None else source.edge_ids[flat],
        )
        return Matrix(out, col_ids=ranges.ids, ctx=self.ctx)


def sb_slice_cols(
    matrix: Matrix,
    frontiers: np.ndarray | BlockRanges,
    batch_ptr: np.ndarray,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> BlockSlice:
    """Block-diagonal extract: slice all batches' frontiers in one launch.

    The slice has shape ``(B * M, T_total)`` with batch ``b``'s edges
    offset into row block ``b`` — one kernel launch covering what eager
    execution would issue as ``B`` separate slices.  ``frontiers`` may be
    the ranges the hop's extract-reduce gathers from the same topology.
    The launch is charged in full; the host builds the matrix only for a
    reader that needs it (:class:`BlockSlice`).
    """
    csc = matrix.get("csc")
    out = BlockSlice(block_ranges(csc, frontiers, batch_ptr), csc, ctx)
    read = len(out.ranges.ids) * 2 * _ITEM + out.nnz * (_ITEM + _VAL)
    ctx.record(
        "sb_slice_cols",
        bytes_read=read,
        bytes_written=out.nbytes(),
        flops=out.nnz * 2.0,
        tasks=max(out.nnz, 1),  # edge-parallel gather
        graph_bytes=read if matrix.is_base_graph else 0.0,
    )
    return out


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
    the vector analogue of the block-diagonal matrix construction, binned
    batch by batch over graph rows.
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
    num_rows = matrix.shape[0]
    edge_ptr = ranges.column_ptr[ranges.batch_ptr]
    out = np.empty((len(edge_ptr) - 1) * num_rows, dtype=np.float32)
    for b, (lo, hi) in enumerate(zip(edge_ptr[:-1], edge_ptr[1:])):
        out[b * num_rows : (b + 1) * num_rows] = np.bincount(
            ranges.gathered[lo:hi], weights=vals[lo:hi], minlength=num_rows
        )
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
    matrix: Matrix | BlockSlice,
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

    One Exp(1) draw per row of the block space, in one call; only rows
    of positive probability are keyed and raced.  The winners are marked
    in a row mask, and only the edges into them are gathered — from an
    unbuilt :class:`BlockSlice`'s ranges, batch by batch over graph rows.
    """
    check_count("fanout k", k)
    rng = rng if rng is not None else rnd.new_rng()
    num_batches = len(batch_ptr) - 1
    if isinstance(matrix, BlockSlice) and node_probs is None:
        matrix = matrix.matrix  # the default bias reduces the built rows
    total_rows, num_cols = matrix.shape
    if total_rows % num_batches != 0:
        raise ShapeError(
            f"row space {total_rows} is not divisible into {num_batches} batches"
        )
    rows_per_batch = total_rows // num_batches
    if isinstance(matrix, BlockSlice):
        ranges = matrix.ranges
        values, edge_ids, positions = (
            matrix.source.values, matrix.source.edge_ids, ranges.flat
        )
        col_ptr, edge_rows = ranges.column_ptr, ranges.gathered
        edge_ptr = col_ptr[ranges.batch_ptr]
        # Batch b's edges hold graph rows: they read row block b.
        segments = [
            (edge_ptr[b], edge_ptr[b + 1], b * rows_per_batch, rows_per_batch)
            for b in range(num_batches)
        ]
        row_ids, col_ids = None, ranges.ids
    else:
        csc = matrix.get("csc")
        values, edge_ids, positions = csc.values, csc.edge_ids, None
        col_ptr, edge_rows = csc.indptr, csc.rows
        segments = [(0, csc.nnz, 0, total_rows)]  # rows already in block space
        row_ids, col_ids = matrix.row_ids, matrix.col_ids
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
    # One exponential race across all rows, k winners per batch segment;
    # a row of no positive probability can never win, so it is not keyed.
    keys = rng.standard_exponential(total_rows)
    live = np.flatnonzero(node_probs > 0)
    keys = keys[live]
    rnd._race_keys_in_place(keys, node_probs[live])
    seg_ptr = np.searchsorted(
        live, np.arange(num_batches + 1, dtype=INDEX_DTYPE) * rows_per_batch
    )
    selected = live[rnd.segmented_race_select(keys, seg_ptr, k)]
    selected.sort()

    won = np.zeros(total_rows, dtype=bool)
    won[selected] = True
    rank = np.empty(total_rows, dtype=INDEX_DTYPE)  # read only where won
    rank[selected] = np.arange(len(selected), dtype=INDEX_DTYPE)
    hits, new_rows = [], []
    for lo, hi, base, extent in segments:
        rows = edge_rows[lo:hi]
        hit = np.flatnonzero(won[base : base + extent][rows])
        hits.append(hit + lo)
        new_rows.append(rank[base : base + extent][rows[hit]])
    hits = np.concatenate(hits)
    if positions is None:
        source_pos, edge_ids = hits, _take(edge_ids, hits)
    else:
        source_pos = positions[hits]
        edge_ids = source_pos if edge_ids is None else edge_ids[source_pos]
    sub = CSC(
        indptr=np.searchsorted(hits, col_ptr),
        rows=np.concatenate(new_rows),
        values=_take(values, source_pos),
        shape=(len(selected), num_cols),
        edge_ids=edge_ids,
    )
    nnz = int(col_ptr[-1])
    ctx.record(
        "sb_collective_sample",
        bytes_read=node_probs.nbytes
        + nnz * (_ITEM + (_VAL if values is not None else 0)),
        bytes_written=sub.nbytes() + selected.nbytes,
        flops=total_rows + nnz,
        tasks=max(nnz, 1),
    )
    # The external row ids stay in block-diagonal space too: the debias
    # steps index per-(batch, node) vectors with them (the interpreter's
    # super-batched ``t_index`` folds them for batch-invariant per-node
    # vectors), and :func:`split_sample` folds them on the way out.
    row_ids = selected if row_ids is None else row_ids[selected]
    return Matrix(sub, row_ids=row_ids, col_ids=col_ids, ctx=ctx)


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
