"""Walk-machinery tests: drivers, restart counting, top-k, induction."""

from __future__ import annotations

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import deepwalk_step, walks
from repro.algorithms.node2vec import _adjacent_to_previous, node2vec_step
from repro.algorithms.walks import (
    WalkResult,
    induce_subgraph,
    restart_walk_visit_counts,
    top_k_per_segment,
    uniform_walk,
)
from repro.core import new_rng
from repro.core.matrix import from_edges
from repro.core.sampling import _segmented_biased_with_replacement, _segments_of
from repro.device import NULL_CONTEXT, ExecutionContext, V100
from repro.errors import ShapeError
from repro.sampler import compile_sampler
from repro.sparse import INDEX_DTYPE
from repro.sparse.formats import gather_ranges

from tests.conftest import to_dense

_ITEM = 8


class TestUniformWalk:
    def test_every_step_follows_an_edge(self, small_graph):
        result = uniform_walk(small_graph, np.arange(25), 10, rng=new_rng(0))
        dense = to_dense(small_graph)
        trace = result.trace
        assert trace.shape == (11, 25)
        for t in range(10):
            for w in range(25):
                cur, nxt = trace[t, w], trace[t + 1, w]
                if cur >= 0 and nxt >= 0:
                    assert dense[nxt, cur] != 0

    def test_dead_walkers_stay_dead(self, small_graph):
        result = uniform_walk(small_graph, np.arange(25), 8, rng=new_rng(1))
        trace = result.trace
        for w in range(25):
            dead_from = np.flatnonzero(trace[:, w] == -1)
            if len(dead_from):
                assert np.all(trace[dead_from[0] :, w] == -1)

    def test_deepwalk_step_is_one_walk_step(self):
        """The matrix-form DeepWalk layer (GraphSAGE's with ``K=1``),
        compiled, picks the same next node per seed as one step of the
        walk lane's driver from the same generator state.  The graph is
        unweighted: on a weighted one ``individual_sample`` biases by the
        edge values."""
        rng = np.random.default_rng(3)
        n = 60
        src = np.concatenate([np.roll(np.arange(n), 1), rng.integers(0, n, 240)])
        dst = np.concatenate([np.arange(n), rng.integers(0, n, 240)])
        keys = np.unique(src * n + dst)
        graph = from_edges(keys // n, keys % n, n)
        seeds = np.arange(0, n, 2)
        sampler = compile_sampler(deepwalk_step, graph, seeds, debug=True)
        sampled, frontiers = sampler.run(seeds, rng=new_rng(7))
        rows, cols, _ = sampled.to_coo_arrays()
        picked = dict(zip(cols.tolist(), rows.tolist()))
        walked = uniform_walk(graph, seeds, 1, rng=new_rng(7)).trace[1]
        assert [picked[s] for s in seeds.tolist()] == walked.tolist()
        np.testing.assert_array_equal(frontiers, np.unique(walked))

    def test_charges_one_launch_per_step(self, small_graph):
        ctx = ExecutionContext(V100)
        uniform_walk(small_graph, np.arange(10), 7, ctx=ctx, rng=new_rng(3))
        steps = [l for l in ctx.launches if l.name == "walk_step"]
        assert len(steps) == 7


# ----------------------------------------------------------------------
# The walk driver and steps as they were until dead-end walkers left the
# live set before each draw, kept verbatim as the oracle: every step
# filled a -1 array for all live walkers and the driver filtered it.
# ----------------------------------------------------------------------
def _oracle_walk(graph, seeds, walk_length, step, *, ctx=NULL_CONTEXT, rng=None):
    seeds = np.asarray(seeds, dtype=INDEX_DTYPE)
    if walk_length < 0:
        raise ShapeError(f"walk length must be >= 0, got {walk_length}")
    num_nodes = graph.shape[1]  # a walker's node indexes the CSC's columns
    bad = seeds[(seeds < -1) | (seeds >= num_nodes)]
    if len(bad):
        raise ShapeError(f"walk seed {int(bad[0])} is outside [-1, {num_nodes})")
    rng = rng if rng is not None else new_rng(None)
    csc = graph.get("csc")
    trace = np.full((walk_length + 1, len(seeds)), -1, dtype=INDEX_DTYPE)
    trace[0] = seeds
    alive = np.flatnonzero(seeds >= 0)
    for t in range(walk_length):
        if len(alive) == 0:
            break
        nxt = step(csc, trace[: t + 1], alive, rng, ctx)
        trace[t + 1][alive] = nxt
        alive = alive[nxt >= 0]
    return WalkResult(trace=trace)


def _oracle_walk_step(graph_csc, frontiers, rng=None, ctx=NULL_CONTEXT):
    rng = rng if rng is not None else new_rng()
    frontiers = np.asarray(frontiers, dtype=INDEX_DTYPE)
    starts = graph_csc.indptr[frontiers]
    lengths = graph_csc.indptr[frontiers + 1] - starts
    total = int(lengths.sum())
    nxt = np.full(len(frontiers), -1, dtype=INDEX_DTYPE)
    moving = np.flatnonzero(lengths > 0)
    if len(moving):
        span = lengths[moving]
        offsets = (rng.random(len(moving)) * span).astype(INDEX_DTYPE)
        # Guard against u * length rounding up onto the length.
        np.minimum(offsets, span - 1, out=offsets)
        nxt[moving] = graph_csc.rows[starts[moving] + offsets]
    # Uniform picks read indptr plus the one chosen row per frontier.
    read = len(frontiers) * 2 * _ITEM + len(frontiers) * _ITEM
    ctx.record(
        "walk_step",
        bytes_read=read,
        bytes_written=nxt.nbytes,
        flops=float(max(total, 1)),
        tasks=max(total, 1),
        graph_bytes=read,
    )
    return nxt


def _oracle_uniform_step(csc, history, alive, rng, ctx):
    return _oracle_walk_step(csc, history[-1][alive], rng=rng, ctx=ctx)


def _oracle_node2vec_step(p, q, csc, history, alive, rng, ctx):
    if len(history) == 1:
        # First step has no previous frontier: uniform.
        return _oracle_uniform_step(csc, history, alive, rng, ctx)
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


def _oracle_restart_step(restart_prob, csc, history, alive, rng, ctx):
    nxt = _oracle_uniform_step(csc, history, alive, rng, ctx)
    # Stranded walkers restart too, so no walker ever dies.
    home = (rng.random(len(alive)) < restart_prob) | (nxt < 0)
    nxt[home] = history[0][alive[home]]
    return nxt


_RESTART_PROB = 0.3
_NUM_WALKS = 2


def _ledger(ctx):
    return [dataclasses.astuple(launch) for launch in ctx.launches]


def _oracle_run(kind, graph, seeds, walk_length, seed):
    """The oracle's trace, generator end state and launch ledger."""
    ctx, rng = ExecutionContext(V100), new_rng(seed)
    step = {
        "uniform": _oracle_uniform_step,
        "node2vec": functools.partial(_oracle_node2vec_step, 2.0, 0.5),
        "restart": functools.partial(_oracle_restart_step, _RESTART_PROB),
    }[kind]
    if kind == "restart":
        seeds = np.repeat(seeds, _NUM_WALKS)
    trace = _oracle_walk(graph, seeds, walk_length, step, ctx=ctx, rng=rng).trace
    return trace, rng.bit_generator.state, _ledger(ctx)


def _walk_run(kind, graph, seeds, walk_length, seed):
    """The same through ``kind``'s public entry, with the trace read off
    the one driver it runs."""
    ctx, rng = ExecutionContext(V100), new_rng(seed)
    traces = []

    def recorded(*args, **kwargs):
        result = _WALK(*args, **kwargs)
        traces.append(result.trace)
        return result

    with mock.patch.object(walks, "walk", recorded):
        if kind == "uniform":
            uniform_walk(graph, seeds, walk_length, ctx=ctx, rng=rng)
        elif kind == "node2vec":
            step = functools.partial(node2vec_step, 2.0, 0.5)
            walks.walk(graph, seeds, walk_length, step, ctx=ctx, rng=rng)
        else:
            restart_walk_visit_counts(
                graph, seeds, num_walks=_NUM_WALKS, walk_length=walk_length,
                restart_prob=_RESTART_PROB, ctx=ctx, rng=rng,
            )
    (trace,) = traces
    return trace, rng.bit_generator.state, _ledger(ctx)


_WALK = walks.walk


def _graph(n, edges):
    return from_edges(
        np.array([e[0] for e in edges], dtype=INDEX_DTYPE),
        np.array([e[1] for e in edges], dtype=INDEX_DTYPE),
        n,
    )


#: Node 0 is the one node with in-edges: every other walker is stranded
#: before the first draw.
_STRANDED = _graph(6, [(1, 0), (2, 0)])


@st.composite
def _walk_cases(draw):
    """A sparse random graph — most nodes have no in-edges — and seeds
    that mix live nodes, dead ends and dead (``-1``) walkers."""
    n = draw(st.integers(1, 25))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=n, unique=True)
    )
    seeds = np.array(
        draw(st.lists(st.integers(-1, n - 1), max_size=20)), dtype=INDEX_DTYPE
    )
    walk_length, seed = draw(st.integers(0, 12)), draw(st.integers(0, 2**16))
    return _graph(n, edges), seeds, walk_length, seed


class TestWalkDriverOracle:
    @pytest.mark.parametrize("kind", ["uniform", "node2vec", "restart"])
    @given(case=_walk_cases())
    @example(case=(_STRANDED, np.array([1, 2, -1, 3, 5]), 4, 7))
    @example(case=(_STRANDED, np.array([0, -1, 4, 0]), 0, 8))
    @example(case=(_STRANDED, np.array([0, 0, 3, -1]), 1, 9))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_filtering_driver(self, kind, case):
        """Dropping dead-end walkers before the draw is the same walk:
        every trace entry, every draw (the generator ends in the same
        state) and every launch record of the driver that filled a -1
        array and filtered it — walk lengths 0 and 1, ``-1`` seeds and a
        batch stranded at step 0 included."""
        got = _walk_run(kind, *case)
        want = _oracle_run(kind, *case)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert got[2] == want[2]


class TestRestartWalks:
    def test_counts_are_positive_and_owned(self, small_graph):
        owner, node, count = restart_walk_visit_counts(
            small_graph,
            np.array([1, 2, 3]),
            num_walks=5,
            walk_length=4,
            restart_prob=0.3,
            rng=new_rng(4),
        )
        assert len(owner) == len(node) == len(count)
        assert np.all(count > 0)
        assert set(np.unique(owner)) <= {0, 1, 2}
        # owner array is sorted (segment order for top-k).
        assert np.all(np.diff(owner) >= 0)

    def test_total_visits_bounded_by_steps(self, small_graph):
        frontiers = np.array([1, 2])
        owner, node, count = restart_walk_visit_counts(
            small_graph,
            frontiers,
            num_walks=4,
            walk_length=6,
            restart_prob=0.5,
            rng=new_rng(5),
        )
        assert count.sum() == len(frontiers) * 4 * 6

    def test_high_restart_keeps_walkers_home(self, small_graph):
        owner, node, count = restart_walk_visit_counts(
            small_graph,
            np.array([7]),
            num_walks=10,
            walk_length=10,
            restart_prob=0.95,
            rng=new_rng(6),
        )
        # With near-certain restart, the source dominates the visits.
        by_node = dict(zip(node.tolist(), count.tolist()))
        assert by_node.get(7, 0) > 0.5 * count.sum()


class TestTopKPerSegment:
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.floats(0, 100)),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_python_reference(self, items, k):
        items.sort(key=lambda p: p[0])
        seg = np.array([p[0] for p in items])
        score = np.array([p[1] for p in items])
        keep = top_k_per_segment(seg, score, k)
        # Reference: per segment, the k largest scores (as multisets).
        picked: dict[int, list[float]] = {}
        for idx in keep:
            picked.setdefault(int(seg[idx]), []).append(float(score[idx]))
        for s in np.unique(seg):
            expected = sorted(
                (float(v) for g, v in items if g == s), reverse=True
            )[:k]
            assert sorted(picked.get(int(s), []), reverse=True) == pytest.approx(
                expected
            )

    def test_empty(self):
        out = top_k_per_segment(np.array([]), np.array([]), 3)
        assert len(out) == 0

    def test_matches_the_lexsort_position_for_position(self):
        """``top_k_per_segment`` rides ``segmented_race_select``; the
        lexsort it replaced stays here as the oracle — same indices in
        the same order, ties and gaps in the segment ids included."""
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(0, 60))
            segment = np.sort(rng.integers(0, 12, n)) * 3  # ids with gaps
            score = rng.integers(0, 4, n).astype(np.float64)  # tie-heavy
            k = int(rng.integers(0, 6))
            np.testing.assert_array_equal(
                top_k_per_segment(segment, score, k),
                _top_k_by_lexsort(segment, score, k),
            )


def _top_k_by_lexsort(segment, score, k):
    """The body ``top_k_per_segment`` had up to PR 18, verbatim."""
    if len(segment) == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((-score, segment))
    seg_sorted = segment[order]
    # Rank of each item within its segment after sorting by -score.
    boundaries = np.flatnonzero(np.diff(seg_sorted)) + 1
    starts = np.concatenate([[0], boundaries])
    seg_start_of = np.repeat(starts, np.diff(np.concatenate([starts, [len(seg_sorted)]])))
    rank = np.arange(len(seg_sorted)) - seg_start_of
    return order[rank < k]


class TestInduceSubgraph:
    def test_matches_dense_oracle(self, small_graph):
        nodes = np.array([2, 5, 8, 13])
        induced = induce_subgraph(small_graph, nodes)
        np.testing.assert_allclose(
            to_dense(induced),
            to_dense(small_graph)[np.ix_(nodes, nodes)],
            rtol=1e-6,
        )
        np.testing.assert_array_equal(induced.column(), nodes)

    def test_charges_context(self, small_graph):
        ctx = ExecutionContext(V100)
        induce_subgraph(small_graph, np.arange(10), ctx=ctx)
        assert ctx.launch_count() >= 2  # column slice + row slice
