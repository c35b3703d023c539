"""Select-step kernels: individual (node-wise) and collective (layer-wise).

These implement the two Select operators of Table 4:

* ``individual_sample(K, probs)`` — every frontier (column) independently
  samples up to ``K`` of its in-edges, probability proportional to the
  per-edge ``probs`` (uniform when omitted);
* ``collective_sample(K, node_probs)`` — ``K`` of the matrix's *row*
  nodes are sampled jointly across all frontiers, probability
  proportional to ``node_probs``; the result keeps only edges between the
  selected rows and the frontiers and is compacted to ``K x T``.

Both also exist as *fused* variants that sample straight out of the base
graph's CSC without materializing the extracted subgraph — gSampler's
Extract-Select fusion (Figure 5a).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core import random as rnd
from repro.device import NULL_CONTEXT, ExecutionContext
from repro.errors import FormatError, ShapeError
from repro.sparse import (
    CSC,
    INDEX_DTYPE,
    SparseFormat,
    edge_values,
    to_csc,
)
from repro.sparse.compact import _relabel
from repro.sparse.formats import _indptr_from_counts, gather_ranges

_ITEM = 8
_VAL = 4


@dataclasses.dataclass
class CollectiveResult:
    """Output of a collective sample: the ``K x T`` matrix + row ids."""

    matrix: CSC
    selected_rows: np.ndarray


def _edge_keys(
    nnz: int,
    values: np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Race keys per edge: uniform when unweighted, Exp(1)/w when biased."""
    if values is None:
        return rng.random(nnz)
    return rnd.exponential_race_keys(values, rng)


def individual_sample(
    matrix: SparseFormat,
    k: int,
    probs: SparseFormat | np.ndarray | None = None,
    *,
    replace: bool = False,
    rng: np.random.Generator | None = None,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> CSC:
    """Per-column sampling of up to ``k`` edges; returns a CSC sub-matrix.

    ``probs`` supplies per-edge sampling bias, either as a matrix with the
    same topology or as a raw per-edge array; edges keep their original
    values in the output.  Columns with fewer than ``k`` (positively
    weighted) edges return what they have when sampling without
    replacement.
    """
    if k <= 0:
        raise ShapeError(f"fanout k must be positive, got {k}")
    rng = rng if rng is not None else rnd.new_rng()
    csc = to_csc(matrix, ctx)
    bias = _resolve_edge_bias(csc, probs)
    picks, counts = _pick_per_segment(csc.indptr, bias, k, replace, rng)
    out = _build_csc_from_picks(csc, picks, counts)
    ctx.record(
        "individual_sample",
        bytes_read=csc.shape[1] * 2 * _ITEM
        + csc.nnz * (_ITEM + (0 if bias is None else _VAL)),
        bytes_written=out.nbytes(),
        flops=csc.nnz * (2.0 if bias is not None else 1.0),
        tasks=max(csc.nnz, 1),  # edge-parallel candidate scan
    )
    return out


def labor_sample(
    matrix: SparseFormat,
    k: int,
    *,
    rng: np.random.Generator | None = None,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> CSC:
    """LABOR-style variance-reduced per-column sampling (LABOR-0).

    Every frontier (column) admits each of its in-edges with inclusion
    probability ``pi_c = min(1, k / deg_c)`` — the same expected fanout
    as ``individual_sample(k)`` — but the Bernoulli coins are *shared*:
    one uniform variate is drawn per **row** node, and edge ``(r, c)``
    survives iff ``u[r] < pi_c``.  Columns that share neighbors thus
    tend to admit the *same* rows, shrinking the union frontier (and the
    feature-transfer bytes it drives) without changing any per-edge
    marginal.  Surviving edges carry Horvitz–Thompson importance weights
    ``w_e / pi_c`` so aggregations stay unbiased.
    """
    if k <= 0:
        raise ShapeError(f"fanout k must be positive, got {k}")
    rng = rng if rng is not None else rnd.new_rng()
    csc = to_csc(matrix, ctx)
    deg = np.diff(csc.indptr).astype(np.int64)
    pi_col = np.ones(csc.shape[1], dtype=np.float64)
    occupied = deg > 0
    pi_col[occupied] = np.minimum(1.0, float(k) / deg[occupied])
    pi_edge = np.repeat(pi_col, deg)
    # One shared uniform per row node — the correlated-Bernoulli core.
    u = rng.random(csc.shape[0])
    keep = u[csc.rows] < pi_edge
    picks = np.flatnonzero(keep).astype(INDEX_DTYPE)
    kept = keep.astype(INDEX_DTYPE)
    csum = np.zeros(csc.nnz + 1, dtype=INDEX_DTYPE)
    np.cumsum(kept, out=csum[1:])
    indptr = csum[csc.indptr].astype(INDEX_DTYPE)
    base_vals = (
        np.ones(len(picks), dtype=np.float64)
        if csc.values is None
        else csc.values[picks].astype(np.float64)
    )
    out = CSC(
        indptr=indptr,
        rows=csc.rows[picks],
        values=(base_vals / pi_edge[picks]).astype(np.float32),
        shape=csc.shape,
        edge_ids=(picks if csc.edge_ids is None else csc.edge_ids[picks]),
    )
    ctx.record(
        "labor_sample",
        bytes_read=csc.shape[1] * 2 * _ITEM
        + csc.nnz * (_ITEM + (0 if csc.values is None else _VAL)),
        bytes_written=out.nbytes(),
        flops=csc.nnz * 2.0,  # threshold compare + HT reweight per edge
        tasks=max(csc.nnz, 1),  # edge-parallel candidate scan
    )
    return out


def fused_extract_individual_sample(
    graph_csc: CSC,
    frontiers: np.ndarray,
    k: int,
    probs_edge_values: np.ndarray | None = None,
    *,
    replace: bool = False,
    rng: np.random.Generator | None = None,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> CSC:
    """Extract-Select fusion: sample neighbors directly from the graph.

    Semantically identical to ``individual_sample(A[:, frontiers], k)``
    but the extracted subgraph is never written to memory: the kernel
    reads only the frontier index ranges and writes only the sampled
    edges, which is the memory saving Figure 10's "C" bar measures.
    """
    rng = rng if rng is not None else rnd.new_rng()
    frontiers = np.asarray(frontiers, dtype=INDEX_DTYPE)
    starts = graph_csc.indptr[frontiers]
    lengths = graph_csc.indptr[frontiers + 1] - starts
    sub_indptr = _indptr_from_counts(lengths)

    # Only a biased race reads the candidates' weights; an unbiased one
    # never gathers the frontier ranges at all.
    if probs_edge_values is not None:
        source = np.asarray(probs_edge_values)
    elif graph_csc._has_nonuniform_values():
        source = graph_csc.values
    else:
        source = None
    bias = (
        None
        if source is None
        else source[gather_ranges(starts, lengths)].astype(np.float64)
    )
    picks_local, counts = _pick_per_segment(sub_indptr, bias, k, replace, rng)
    # Picks are grouped by frontier: shift each group from its extracted
    # range back to the frontier's range in the graph.
    picks = picks_local + np.repeat(starts - sub_indptr[:-1], counts)
    out = CSC(
        indptr=_indptr_from_counts(counts),
        rows=graph_csc.rows[picks],
        values=None if graph_csc.values is None else graph_csc.values[picks],
        shape=(graph_csc.shape[0], len(frontiers)),
        edge_ids=(
            picks
            if graph_csc.edge_ids is None
            else graph_csc.edge_ids[picks]
        ),
    )
    # Fused accounting: indptr lookups + sampled output only. The bias
    # scan (when biased) still reads the candidate edges once, and pays
    # the same 2 flops/edge (key generation + race compare) the unfused
    # individual_sample charges — fusion saves memory, not arithmetic.
    read = len(frontiers) * 2 * _ITEM + (
        int(lengths.sum()) * _VAL if bias is not None else 0
    )
    graph_read = read + out.nnz * _ITEM
    ctx.record(
        "fused_extract_individual_sample",
        bytes_read=graph_read,
        bytes_written=out.nbytes(),
        flops=float(lengths.sum()) * (2.0 if bias is not None else 1.0),
        tasks=max(int(lengths.sum()), 1),  # edge-parallel
        graph_bytes=graph_read,
    )
    return out


def fused_extract_reduce(
    graph_csc: CSC,
    frontiers: np.ndarray,
    op: str,
    axis: int,
    *,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> np.ndarray:
    """Extract-Reduce fusion: reduce ``A[:, frontiers]`` without
    materializing it.

    After the pre-processing pass rewrites LADIES's bias computation to
    ``M[:, frontiers].sum(axis=0)``, this kernel computes the per-row (or
    per-column) reduction straight from the graph's CSC ranges — reading
    only the frontier columns' edges and writing only the output vector.
    """
    frontiers = np.asarray(frontiers, dtype=INDEX_DTYPE)
    starts = graph_csc.indptr[frontiers]
    lengths = graph_csc.indptr[frontiers + 1] - starts
    flat = gather_ranges(starts, lengths)
    vals = (
        np.ones(len(flat), dtype=np.float64)
        if graph_csc.values is None
        else graph_csc.values[flat].astype(np.float64)
    )
    if axis == 0:
        if op != "sum":
            raise ShapeError(f"fused extract-reduce supports sum, got {op!r}")
        out = np.bincount(
            graph_csc.rows[flat], weights=vals, minlength=graph_csc.shape[0]
        ).astype(np.float32)
        out_len = graph_csc.shape[0]
    elif axis == 1:
        csum = np.zeros(len(vals) + 1, dtype=np.float64)
        np.cumsum(vals, out=csum[1:])
        sub_indptr = np.zeros(len(frontiers) + 1, dtype=INDEX_DTYPE)
        np.cumsum(lengths, out=sub_indptr[1:])
        out = (csum[sub_indptr[1:]] - csum[sub_indptr[:-1]]).astype(np.float32)
        out_len = len(frontiers)
    else:
        raise ShapeError(f"reduce axis must be 0 or 1, got {axis}")
    read = len(frontiers) * 2 * _ITEM + len(flat) * (_ITEM + _VAL)
    ctx.record(
        "fused_extract_reduce",
        bytes_read=read,
        bytes_written=out_len * _VAL,
        flops=float(len(flat)) * 2.0,
        tasks=max(len(flat), 1),
        graph_bytes=read,
    )
    return out


def collective_sample(
    matrix: SparseFormat,
    k: int,
    node_probs: np.ndarray | None = None,
    *,
    replace: bool = False,
    rng: np.random.Generator | None = None,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> CollectiveResult:
    """Layer-wise sampling: draw ``k`` row nodes jointly, then restrict.

    ``node_probs`` is a vector over the matrix's rows; when omitted, the
    per-edge bias (1 for unweighted) is aggregated per row, as the paper
    specifies.  The returned matrix is compacted to ``K x T`` with
    ``selected_rows`` holding the chosen (local) row indices.
    """
    if k <= 0:
        raise ShapeError(f"layer width k must be positive, got {k}")
    rng = rng if rng is not None else rnd.new_rng()
    csc = to_csc(matrix, ctx)
    if node_probs is None:
        from repro.sparse import reduce_rows

        node_probs = reduce_rows(csc, "sum", ctx).astype(np.float64)
    else:
        node_probs = np.asarray(node_probs, dtype=np.float64)
        if node_probs.shape != (csc.shape[0],):
            raise ShapeError(
                f"node_probs shape {node_probs.shape} != rows ({csc.shape[0]},)"
            )
    if replace:
        selected, rounds = _distinct_rows_with_replacement(node_probs, k, rng)
    else:
        selected = np.sort(rnd.weighted_choice_without_replacement(node_probs, k, rng))
        rounds = 1
    sub = _relabel(csc, selected, 0)
    ctx.record(
        "collective_sample",
        bytes_read=node_probs.nbytes
        + csc.nnz * (_ITEM + (_VAL if csc.values is not None else 0)),
        bytes_written=sub.nbytes() + selected.nbytes,
        flops=csc.shape[0] * rounds + csc.nnz,
        tasks=max(csc.nnz, 1),
    )
    return CollectiveResult(matrix=sub, selected_rows=selected)


def _distinct_rows_with_replacement(
    node_probs: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """With-replacement draws repeated until ``k`` distinct rows land.

    A single batch of ``k`` draws deduplicated would silently shrink the
    layer below ``k``; redrawing until ``k`` distinct rows accumulate
    keeps the layer width while staying a with-replacement process.  The
    distinct-row sequence this produces is distributed exactly as
    successive weighted draws without replacement (Efraimidis–Spirakis),
    so the replace=True layer matches the race-select path the
    super-batch kernel always uses.  Returns the sorted distinct rows
    and the number of draw rounds (for cost accounting).
    """
    avail = int(np.count_nonzero(node_probs > 0))
    target = min(k, avail)
    chosen = np.zeros(len(node_probs), dtype=bool)
    count = 0
    rounds = 0
    while count < target:
        rounds += 1
        draws = rnd.weighted_choice_with_replacement(node_probs, k, rng)
        fresh = draws[~chosen[draws]]
        # First occurrence per row, in draw order, capped at the deficit
        # — extra distinct rows in the same round must not slip in.
        _, first = np.unique(fresh, return_index=True)
        fresh = fresh[np.sort(first)][: target - count]
        chosen[fresh] = True
        count += len(fresh)
    return np.flatnonzero(chosen).astype(INDEX_DTYPE), max(rounds, 1)


def _resolve_edge_bias(
    csc: CSC, probs: SparseFormat | np.ndarray | None
) -> np.ndarray | None:
    """Normalize the ``probs`` argument to a per-edge float array or None."""
    if probs is None:
        if csc._has_nonuniform_values():
            return csc.values.astype(np.float64)
        return None
    if isinstance(probs, np.ndarray):
        if probs.shape != (csc.nnz,):
            raise ShapeError(
                f"per-edge probs shape {probs.shape} != nnz ({csc.nnz},)"
            )
        return probs.astype(np.float64)
    if probs.nnz != csc.nnz or probs.shape != csc.shape:
        raise ShapeError("probs matrix topology differs from target matrix")
    probs_csc = to_csc(probs)
    return edge_values(probs_csc).astype(np.float64)


def _pick_per_segment(
    indptr: np.ndarray,
    bias: np.ndarray | None,
    k: int,
    replace: bool,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat edge positions selected for every indptr segment, grouped by
    segment, and how many each segment got."""
    n_seg = len(indptr) - 1
    nnz = int(indptr[-1])
    if nnz == 0:
        return np.empty(0, dtype=INDEX_DTYPE), np.zeros(n_seg, dtype=INDEX_DTYPE)
    if replace:
        if bias is None:
            seg_ids, offsets = rnd.segmented_uniform_with_replacement(
                np.diff(indptr), k, rng
            )
            picks = (indptr[seg_ids] + offsets).astype(INDEX_DTYPE)
        else:
            picks = _segmented_biased_with_replacement(indptr, bias, k, rng)
            seg_ids = _segments_of(picks, indptr)
        return picks, np.bincount(seg_ids, minlength=n_seg)
    keys = _edge_keys(nnz, bias, rng)
    picks, counts = rnd._race_select_counts(keys, indptr, k)
    return picks.astype(INDEX_DTYPE, copy=False), counts


def _segmented_biased_with_replacement(
    indptr: np.ndarray, bias: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Inverse-CDF draws per segment, vectorized across segments."""
    csum = np.zeros(len(bias) + 1, dtype=np.float64)
    np.cumsum(bias, out=csum[1:])
    seg_totals = csum[indptr[1:]] - csum[indptr[:-1]]
    nonempty = np.flatnonzero(seg_totals > 0)
    if len(nonempty) == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    seg_ids = np.repeat(nonempty, k)
    targets = csum[indptr[seg_ids]] + rng.random(len(seg_ids)) * seg_totals[seg_ids]
    picks = np.searchsorted(csum, targets, side="right") - 1
    np.clip(picks, indptr[seg_ids], indptr[seg_ids + 1] - 1, out=picks)
    return picks.astype(INDEX_DTYPE)


def _segments_of(flat_positions: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Segment index owning each flat position."""
    return (np.searchsorted(indptr, flat_positions, side="right") - 1).astype(
        INDEX_DTYPE
    )


def _build_csc_from_picks(
    csc: CSC, picks: np.ndarray, counts: np.ndarray
) -> CSC:
    """Assemble the sampled CSC given flat edge positions (segment-sorted)
    and the number of them in each column."""
    return CSC(
        indptr=_indptr_from_counts(counts),
        rows=csc.rows[picks],
        values=None if csc.values is None else csc.values[picks],
        shape=csc.shape,
        edge_ids=(
            picks if csc.edge_ids is None else csc.edge_ids[picks]
        ),
    )


def uniform_walk_step(
    graph_csc: CSC,
    frontiers: np.ndarray,
    rng: np.random.Generator | None = None,
    ctx: ExecutionContext = NULL_CONTEXT,
    bias_edge_values: np.ndarray | None = None,
) -> np.ndarray:
    """One random-walk step: pick one in-neighbor per frontier.

    Returns the next node per frontier, with ``-1`` for dead ends
    (frontiers without in-edges).  Used by DeepWalk/Node2Vec/PinSAGE.

    The uniform pick draws what ``segmented_uniform_with_replacement(
    lengths, 1, rng)`` would — one ``rng.random`` per frontier with
    in-edges, in frontier order — without its k-way repeat.
    """
    rng = rng if rng is not None else rnd.new_rng()
    frontiers = np.asarray(frontiers, dtype=INDEX_DTYPE)
    starts = graph_csc.indptr[frontiers]
    lengths = graph_csc.indptr[frontiers + 1] - starts
    total = int(lengths.sum())
    nxt = np.full(len(frontiers), -1, dtype=INDEX_DTYPE)
    if bias_edge_values is None:
        moving = np.flatnonzero(lengths > 0)
        if len(moving):
            span = lengths[moving]
            offsets = (rng.random(len(moving)) * span).astype(INDEX_DTYPE)
            # Guard against u * length rounding up onto the length.
            np.minimum(offsets, span - 1, out=offsets)
            nxt[moving] = graph_csc.rows[starts[moving] + offsets]
    else:
        flat = gather_ranges(starts, lengths)
        sub_indptr = np.zeros(len(frontiers) + 1, dtype=INDEX_DTYPE)
        np.cumsum(lengths, out=sub_indptr[1:])
        picks = _segmented_biased_with_replacement(
            sub_indptr, np.asarray(bias_edge_values, dtype=np.float64)[flat], 1, rng
        )
        seg = _segments_of(picks, sub_indptr)
        nxt[seg] = graph_csc.rows[flat[picks]]
    # Uniform picks read indptr plus the one chosen row per frontier;
    # the biased inverse-CDF scan reads every candidate edge's row id
    # and weight before picking, and must be charged for all of them.
    if bias_edge_values is None:
        read = len(frontiers) * 2 * _ITEM + len(frontiers) * _ITEM
    else:
        read = len(frontiers) * 2 * _ITEM + total * (_ITEM + _VAL)
    ctx.record(
        "walk_step",
        bytes_read=read,
        bytes_written=nxt.nbytes,
        flops=float(max(total, 1)),
        tasks=max(total, 1),  # alias-table lanes per edge
        graph_bytes=read,
    )
    return nxt
