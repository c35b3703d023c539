"""Node2Vec: second-order biased random walks (Grover & Leskovec, 2016).

Table 2 row: node-wise, *dynamic* bias, fanout 1 — "a neighbor's bias is
1/q, 1/p or 1 based on the previous frontier".  Given the walker sits at
``c`` having arrived from ``p``, a candidate ``x`` gets bias:

* ``1/p_param`` if ``x == p`` (return),
* ``1``        if ``x`` is adjacent to ``p`` (triangle step),
* ``1/q_param`` otherwise (exploration).

Adjacency tests look each candidate up in its walker's own slice of the
CSC — the previous node's in-neighbor list — the strategy a GPU kernel
uses (a binary search per candidate; the launch is charged for one in
the full sorted edge list).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.algorithms import walks
from repro.algorithms.base import DEFAULT_WALK_LENGTH, Algorithm, AlgorithmInfo
from repro.core.matrix import Matrix
from repro.core.sampling import _segmented_biased_with_replacement, _segments_of
from repro.device import ExecutionContext
from repro.sparse import CSC, INDEX_DTYPE
from repro.sparse.formats import gather_ranges

_ITEM = 8


def _adjacent_to_previous(
    csc: CSC, cand: np.ndarray, lengths: np.ndarray, prev: np.ndarray
) -> np.ndarray:
    """Per candidate: is it an in-neighbor of its walker's previous node?

    Both sides are keyed ``walker * n + node``: the haystack is the
    walkers' ``prev`` columns gathered from the CSC, already sorted when
    rows are sorted within a column, and the candidates arrive in the same
    walker-major order, so the search scans instead of jumping around a
    sorted table of every edge.
    """
    n = csc.shape[0]
    walkers = np.arange(len(prev), dtype=INDEX_DTYPE)
    starts = csc.indptr[prev]
    degrees = csc.indptr[prev + 1] - starts
    haystack = np.repeat(walkers, degrees) * n + csc.rows[gather_ranges(starts, degrees)]
    if np.any(haystack[1:] < haystack[:-1]):
        haystack.sort()
    needles = np.repeat(walkers, lengths) * n + cand
    pos = np.minimum(np.searchsorted(haystack, needles), len(haystack) - 1)
    return haystack[pos] == needles


def node2vec_step(
    p: float,
    q: float,
    csc: CSC,
    history: np.ndarray,
    alive: np.ndarray,
    rng: np.random.Generator,
    ctx: ExecutionContext,
) -> np.ndarray:
    """The second-order step, bias computed for every candidate at once."""
    if len(history) == 1:
        # First step has no previous frontier: uniform.
        return walks.uniform_step(csc, history, alive, rng, ctx)
    cur, prev = history[-1][alive], history[-2][alive]
    starts = csc.indptr[cur]
    lengths = csc.indptr[cur + 1] - starts
    cand = csc.rows[gather_ranges(starts, lengths)]
    bias = np.full(len(cand), 1.0 / q)
    bias[_adjacent_to_previous(csc, cand, lengths, prev)] = 1.0
    bias[cand == np.repeat(prev, lengths)] = 1.0 / p
    sub_indptr = np.zeros(len(cur) + 1, dtype=INDEX_DTYPE)
    np.cumsum(lengths, out=sub_indptr[1:])
    picks = _segmented_biased_with_replacement(sub_indptr, bias, 1, rng)
    nxt = np.full(len(cur), -1, dtype=INDEX_DTYPE)
    nxt[_segments_of(picks, sub_indptr)] = cand[picks]
    read = len(cur) * 3 * _ITEM + int(lengths.sum()) * 2 * _ITEM
    ctx.record(
        "node2vec_step",
        bytes_read=read,
        bytes_written=nxt.nbytes,
        flops=float(lengths.sum()) * np.log2(max(csc.nnz, 2)),  # binary searches
        tasks=max(len(cur), 1),
        graph_bytes=read,
    )
    return nxt


@dataclasses.dataclass
class Node2Vec(Algorithm):
    """Node2Vec: the walk driver with the second-order step."""

    walk_length: int = DEFAULT_WALK_LENGTH
    p: float = 2.0
    q: float = 0.5

    info = AlgorithmInfo(
        "node2vec", "node-wise", "dynamic", False,
        "Second-order walk biased 1/p, 1, 1/q by previous hop",
    )

    def direct(self, graph: Matrix) -> walks.WalkPipeline:
        step = functools.partial(node2vec_step, self.p, self.q)
        return walks.WalkPipeline(
            graph, self.walk_length, functools.partial(walks.walk, step=step)
        )
