"""Walk-machinery tests: drivers, restart counting, top-k, induction."""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import walks
from repro.algorithms.node2vec import node2vec_step
from repro.algorithms.walks import (
    WalkResult,
    induce_subgraph,
    restart_walk_visit_counts,
    top_k_per_segment,
    uniform_walk,
)
from repro.core import new_rng
from repro.core.matrix import from_edges
from repro.device import NULL_CONTEXT, ExecutionContext, V100
from repro.sparse import INDEX_DTYPE

from tests.conftest import to_dense


class TestUniformWalk:
    def test_every_step_follows_an_edge(self, small_graph):
        result = uniform_walk(small_graph, np.arange(25), 10, rng=new_rng(0))
        dense = to_dense(small_graph)
        trace = result.trace
        assert result.walk_length == 10
        assert result.num_walkers == 25
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

    def test_visited_nodes(self, small_graph):
        result = uniform_walk(small_graph, np.array([3]), 5, rng=new_rng(2))
        visited = result.visited_nodes()
        assert 3 in visited
        assert np.all(visited >= 0)

    def test_charges_one_launch_per_step(self, small_graph):
        ctx = ExecutionContext(V100)
        uniform_walk(small_graph, np.arange(10), 7, ctx=ctx, rng=new_rng(3))
        steps = [l for l in ctx.launches if l.name == "walk_step"]
        assert len(steps) == 7


# ----------------------------------------------------------------------
# The walk loop ``walks.walk`` had until it carried its live walkers,
# kept verbatim as the oracle: it re-derived them from the trace.
# ----------------------------------------------------------------------
def _trace_walk(graph, seeds, walk_length, step, *, ctx=NULL_CONTEXT, rng=None):
    rng = rng if rng is not None else new_rng(None)
    csc = graph.get("csc")
    seeds = np.asarray(seeds, dtype=INDEX_DTYPE)
    trace = np.full((walk_length + 1, len(seeds)), -1, dtype=INDEX_DTYPE)
    trace[0] = seeds
    for t in range(walk_length):
        alive = np.flatnonzero(trace[t] >= 0)
        if len(alive) == 0:
            break
        trace[t + 1][alive] = step(csc, trace[: t + 1], alive, rng, ctx)
    return WalkResult(trace=trace)


_WALK = walks.walk


def _walk_run(driver, kind, graph, seeds, walk_length, seed):
    """``kind``'s public entry with ``walks.walk`` bound to ``driver``:
    the trace, the generator's end state and the launch ledger."""
    ctx = ExecutionContext(V100)
    rng = new_rng(seed)
    traces = []

    def recorded(*args, **kwargs):
        result = driver(*args, **kwargs)
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
                graph, seeds, num_walks=2, walk_length=walk_length,
                restart_prob=0.3, ctx=ctx, rng=rng,
            )
    ledger = [
        (l.name, l.bytes_read, l.bytes_written, l.flops, l.tasks)
        for l in ctx.launches
    ]
    (trace,) = traces
    return trace, rng.bit_generator.state, ledger


@st.composite
def _walk_cases(draw):
    """A sparse random graph — dead ends (no in-edges) are common — and
    seeds that mix live nodes, dead ends and dead (``-1``) walkers."""
    n = draw(st.integers(1, 25))
    edges = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=3 * n, unique=True)
    )
    graph = from_edges(
        np.array([e[0] for e in edges], dtype=INDEX_DTYPE),
        np.array([e[1] for e in edges], dtype=INDEX_DTYPE),
        n,
    )
    seeds = np.array(
        draw(st.lists(st.integers(-1, n - 1), max_size=20)), dtype=INDEX_DTYPE
    )
    return graph, seeds, draw(st.integers(0, 12)), draw(st.integers(0, 2**16))


class TestWalkDriverOracle:
    @pytest.mark.parametrize("kind", ["uniform", "node2vec", "restart"])
    @given(case=_walk_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_trace_rederiving_loop(self, kind, case):
        """Carrying the live set forward is the same walk: every trace
        entry, every draw (the generator ends in the same state) and every
        launch record the loop that re-read the trace each step gave."""
        got = _walk_run(_WALK, kind, *case)
        want = _walk_run(_trace_walk, kind, *case)
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
