"""Select-step kernels: individual (node-wise) and collective (layer-wise).

These implement the two Select operators of Table 4:

* ``individual_sample(K, probs)`` — every frontier (column) independently
  samples up to ``K`` of its in-edges, probability proportional to the
  per-edge ``probs``; omitted ``probs`` bias by the matrix's values when
  they vary and are uniform only when they do not (ROADMAP direction 5);
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
from repro.errors import ShapeError, check_count, check_ids
from repro.sparse import (
    CSC,
    INDEX_DTYPE,
    SparseFormat,
    edge_values,
    to_csc,
)
from repro.sparse.compact import _relabel
from repro.sparse.formats import (
    FrontierRanges,
    _indptr_from_counts,
    frontier_ranges,
    gather_ranges,
)

_ITEM = 8
_VAL = 4


@dataclasses.dataclass
class CollectiveResult:
    """Output of a collective sample: the ``K x T`` matrix + row ids."""

    matrix: CSC
    selected_rows: np.ndarray


def _check_real_probs(probs: np.ndarray) -> None:
    """Refuse complex, string or object ``probs``, before any draw."""
    if probs.dtype.kind not in "biuf":
        raise ShapeError(f"probs must be real numbers, got dtype {probs.dtype}")


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
    same topology or as a raw per-edge array; omitted, it is the matrix's
    own values whenever they vary, and the sample is uniform only when
    they do not (:func:`_resolve_edge_bias`).  Edges keep their original
    values in the output.  Columns with fewer than ``k`` (positively
    weighted) edges return what they have when sampling without
    replacement.
    """
    check_count("fanout k", k)
    rng = rng if rng is not None else rnd.new_rng()
    csc = to_csc(matrix, ctx)
    bias = _resolve_edge_bias(csc, probs)
    out, _ = _select(
        csc, csc.indptr[:-1], np.diff(csc.indptr), bias, k, replace, rng
    )
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
    check_count("fanout k", k)
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
    edges, which is the memory saving Figure 10's "C" bar measures.  Both
    run one select (:func:`_select`), this one over the frontiers' ranges
    in the graph.
    """
    check_count("fanout k", k)
    frontiers = check_ids("frontier", frontiers, graph_csc.shape[1])
    probs = None if probs_edge_values is None else np.asarray(probs_edge_values)
    bias = _resolve_edge_bias(graph_csc, probs)
    rng = rng if rng is not None else rnd.new_rng()
    starts = graph_csc.indptr[frontiers]
    lengths = graph_csc.indptr[frontiers + 1] - starts
    out, total = _select(graph_csc, starts, lengths, bias, k, replace, rng)
    # Fused accounting: indptr lookups + sampled output only. The bias
    # scan (when biased) still reads the candidate edges once, and pays
    # the same 2 flops/edge (key generation + race compare) the unfused
    # individual_sample charges — fusion saves memory, not arithmetic.
    read = len(frontiers) * 2 * _ITEM + (total * _VAL if bias is not None else 0)
    graph_read = read + out.nnz * _ITEM
    ctx.record(
        "fused_extract_individual_sample",
        bytes_read=graph_read,
        bytes_written=out.nbytes(),
        flops=float(total) * (2.0 if bias is not None else 1.0),
        tasks=max(total, 1),  # edge-parallel
        graph_bytes=graph_read,
    )
    return out


def _select(
    csc: CSC,
    starts: np.ndarray,
    lengths: np.ndarray,
    weights: np.ndarray | None,
    k: int,
    replace: bool,
    rng: np.random.Generator,
) -> tuple[CSC, int]:
    """The Select of both node-wise samplers: up to ``k`` of the edges in
    every range ``[starts, starts + lengths)`` of ``csc``, biased by their
    ``weights`` (uniform when None), as a CSC with one column per range;
    and how many candidate edges the ranges hold.

    A weighted race without replacement draws its Exp(1) keys in
    candidate order.  When the pool engages it streams: the calling
    thread draws chunks of ranges of about one race block each, in
    order, and submits each to the pool before drawing the next; a worker
    gathers the chunk's weights, keys and race-selects it
    (:func:`_race_chunk`).  Otherwise it draws once, keys the draws
    chunk by chunk and selects once.  Chunks exist only from the pool
    floor, ``2 * _RACE_BLOCK_ELEMS`` candidates, up; below it the ranges
    are one chunk.  The uniform race draws ``rng.random(total)``.
    """
    indptr = _indptr_from_counts(lengths)
    total = int(indptr[-1])
    # Each range's offset from its candidates' place to its edges in ``csc``.
    shift = starts - indptr[:-1]
    chunks = [(0, len(lengths))]
    if weights is not None and not replace and total >= 2 * rnd._RACE_BLOCK_ELEMS:
        # Range bounds of chunks of about one race block of candidates.
        bounds = np.searchsorted(
            indptr, np.arange(0, total, rnd._RACE_BLOCK_ELEMS)
        ).tolist() + [len(lengths)]
        chunks = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    if len(chunks) > 1 and rnd._pool_engages(len(chunks), total):
        pool = rnd._host_pool()
        futures = [
            pool.submit(
                _race_chunk,
                rng.standard_exponential(int(indptr[b] - indptr[a])),
                weights, starts[a:b], lengths[a:b], k,
            )
            for a, b in chunks
        ]
        pieces = [future.result() for future in futures]
        picks = np.concatenate([picks for picks, _ in pieces])
        counts = np.concatenate([counts for _, counts in pieces])
    else:
        if total == 0:
            local = np.empty(0, dtype=INDEX_DTYPE)
            counts = np.zeros(len(lengths), dtype=INDEX_DTYPE)
        elif replace:
            if weights is None:
                seg_ids, local = rnd.segmented_uniform_with_replacement(
                    lengths, k, rng
                )
                local += indptr[seg_ids]
            else:
                bias = weights[gather_ranges(starts, lengths)].astype(np.float64)
                local = _segmented_biased_with_replacement(indptr, bias, k, rng)
                seg_ids = _segments_of(local, indptr)
            counts = np.bincount(seg_ids, minlength=len(lengths))
        else:
            if weights is None:
                keys = rng.random(total)
            else:
                keys = rng.standard_exponential(total)
                # Chunk by chunk: one gather of every candidate's weight
                # costs more time and memory than the chunks' cache-sized
                # ones.  A candidate's edge is its place plus its range's
                # shift: ``gather_ranges`` over the pointer already built.
                for a, b in chunks:
                    lo, hi = indptr[a], indptr[b]
                    edges = np.repeat(shift[a:b], lengths[a:b]) + np.arange(lo, hi)
                    rnd._race_keys_in_place(keys[lo:hi], weights[edges])
            local = rnd.segmented_race_select(keys, indptr, k)
            counts = rnd._pick_counts(local, indptr, np.minimum(lengths, k))
        # Picks are grouped by range: shift each group from its place
        # among the candidates back to its range in ``csc``.
        picks = local + np.repeat(shift, counts)
    out = CSC(
        indptr=_indptr_from_counts(counts),
        rows=csc.rows[picks],
        values=None if csc.values is None else csc.values[picks],
        shape=(csc.shape[0], len(lengths)),
        edge_ids=picks if csc.edge_ids is None else csc.edge_ids[picks],
    )
    return out, total


def _race_chunk(
    draws: np.ndarray,
    weights: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One streamed chunk of a weighted race, on a pool worker: turn the
    chunk's draws into keys in place from its ranges' ``weights``,
    race-select the ranges (untraced, on this thread) and return their
    picks' positions in ``weights`` and the count per range."""
    rnd._race_keys_in_place(draws, weights[gather_ranges(starts, lengths)])
    indptr = _indptr_from_counts(lengths)
    cap = np.minimum(lengths, k)
    picks = rnd._race_select(draws, indptr, lengths, cap)
    counts = rnd._pick_counts(picks, indptr, cap)
    return picks + np.repeat(starts - indptr[:-1], counts), counts


def fused_extract_reduce(
    graph_csc: CSC,
    frontiers: np.ndarray | FrontierRanges,
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
    ``frontiers`` may be the ranges the hop's column slice of a matrix
    with the same topology already gathered.
    """
    if op != "sum":
        raise ShapeError(f"fused extract-reduce supports sum, got {op!r}")
    if axis not in (0, 1):
        raise ShapeError(f"reduce axis must be 0 or 1, got {axis}")
    ranges = frontier_ranges(graph_csc, frontiers)
    flat = ranges.flat
    vals = (
        np.ones(len(flat), dtype=np.float64)
        if graph_csc.values is None
        else graph_csc.values[flat].astype(np.float64)
    )
    if axis == 0:
        out = np.bincount(
            ranges.gathered, weights=vals, minlength=graph_csc.shape[0]
        ).astype(np.float32)
        out_len = graph_csc.shape[0]
    else:
        csum = np.zeros(len(vals) + 1, dtype=np.float64)
        np.cumsum(vals, out=csum[1:])
        sub_indptr = _indptr_from_counts(ranges.lengths)
        out = (csum[sub_indptr[1:]] - csum[sub_indptr[:-1]]).astype(np.float32)
        out_len = len(ranges.ids)
    read = len(ranges.ids) * 2 * _ITEM + len(flat) * (_ITEM + _VAL)
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

    ``replace=True`` draws the same layer: redrawing with replacement
    until ``k`` distinct rows land is successive sampling, whose row set
    is distributed as the exponential race's.
    """
    check_count("fanout k", k)
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
    selected = np.sort(rnd.weighted_choice_without_replacement(node_probs, k, rng))
    sub = _relabel(csc, selected, 0)
    ctx.record(
        "collective_sample",
        bytes_read=node_probs.nbytes
        + csc.nnz * (_ITEM + (_VAL if csc.values is not None else 0)),
        bytes_written=sub.nbytes() + selected.nbytes,
        flops=csc.shape[0] + csc.nnz,
        tasks=max(csc.nnz, 1),
    )
    return CollectiveResult(matrix=sub, selected_rows=selected)


def _resolve_edge_bias(
    csc: CSC, probs: SparseFormat | np.ndarray | None
) -> np.ndarray | None:
    """The per-edge weights ``probs`` names, in their own dtype, or None
    for a uniform select.

    Omitted ``probs`` are the matrix's own values whenever they vary, so
    a weighted graph is sampled biased (ROADMAP direction 5).
    """
    if probs is None:
        return csc.values if csc._has_nonuniform_values() else None
    if isinstance(probs, np.ndarray):
        if probs.shape != (csc.nnz,):
            raise ShapeError(
                f"per-edge probs shape {probs.shape} != nnz ({csc.nnz},)"
            )
        values = probs
    else:
        if probs.nnz != csc.nnz or probs.shape != csc.shape:
            raise ShapeError("probs matrix topology differs from target matrix")
        values = edge_values(to_csc(probs))
    _check_real_probs(values)
    return values


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


def uniform_walk_step(
    graph_csc: CSC,
    frontiers: np.ndarray,
    rng: np.random.Generator | None = None,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> np.ndarray:
    """One random-walk step: pick one uniform in-neighbor per frontier.

    Returns the next node per frontier, with ``-1`` for dead ends
    (frontiers without in-edges).  Used by DeepWalk/Node2Vec/PinSAGE.

    The uniform pick draws what ``segmented_uniform_with_replacement(
    lengths, 1, rng)`` would — one ``rng.random`` per frontier with
    in-edges, in frontier order — without its k-way repeat.  Frontiers
    must be node ids; anything else is refused before any draw or launch.
    Node2Vec's biased step is its own (``repro.algorithms.node2vec``).
    """
    frontiers = check_ids("frontier", frontiers, graph_csc.shape[1])
    rng = rng if rng is not None else rnd.new_rng()
    starts = graph_csc.indptr[frontiers]
    lengths = graph_csc.indptr[frontiers + 1] - starts
    nxt = np.full(len(frontiers), -1, dtype=INDEX_DTYPE)
    moving = np.flatnonzero(lengths > 0)
    nxt[moving] = _walk_draw(
        graph_csc, frontiers[moving], lengths[moving], len(frontiers), rng, ctx
    )
    return nxt


def _walk_draw(
    graph_csc: CSC,
    nodes: np.ndarray,
    lengths: np.ndarray,
    num_frontiers: int,
    rng: np.random.Generator,
    ctx: ExecutionContext,
) -> np.ndarray:
    """The uniform walk-step kernel, unchecked: one in-neighbor of every
    node in ``nodes``, each of which has ``lengths`` (> 0) in-edges.

    The walk driver's walkers at dead ends have left before this draw, so
    it draws exactly once per moving walker; the launch is still charged
    as a step over all ``num_frontiers`` live walkers.
    """
    # ``u < 1`` is at most ``1 - 2**-53``, so ``u * length`` rounds to
    # below ``length`` for every length under ``2**53``: no clamp needed.
    offsets = (rng.random(len(nodes)) * lengths).astype(INDEX_DTYPE)
    nxt = graph_csc.rows[graph_csc.indptr[nodes] + offsets]
    # Uniform picks read indptr plus the one chosen row per frontier; one
    # lane per candidate edge.
    read = num_frontiers * 3 * _ITEM
    lanes = max(int(lengths.sum()), 1)
    ctx.record(
        "walk_step",
        bytes_read=read,
        bytes_written=num_frontiers * _ITEM,
        flops=float(lanes),
        tasks=lanes,
        graph_bytes=read,
    )
    return nxt
