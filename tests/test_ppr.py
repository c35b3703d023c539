"""PPR tests: power iteration, forward push, and the ShaDow PPR variant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core import new_rng
from repro.core.matrix import from_edges
from repro.core.ppr import global_pagerank, push_ppr, topk_ppr_neighbors
from repro.device import ExecutionContext, V100
from repro.errors import GSamplerError, ShapeError


@pytest.fixture
def ring_with_hub():
    """A 20-node ring plus a hub that every node points to."""
    n = 21
    hub = 20
    src = list(range(20)) + list(range(20))
    dst = [(i + 1) % 20 for i in range(20)] + [hub] * 20
    # Edges point *into* columns: also give the hub out-edges so the walk
    # from the hub has somewhere to go.
    src += [hub] * 4
    dst += [0, 5, 10, 15]
    return from_edges(src, dst, n), hub


class TestGlobalPagerank:
    def test_sums_to_one(self, small_graph):
        rank = global_pagerank(small_graph)
        assert rank.sum() == pytest.approx(1.0, rel=1e-4)
        assert np.all(rank >= 0)

    def test_hub_gets_highest_rank(self, ring_with_hub):
        graph, hub = ring_with_hub
        rank = global_pagerank(graph)
        assert rank.argmax() == hub

    def test_damping_validated(self, small_graph):
        with pytest.raises(ShapeError):
            global_pagerank(small_graph, damping=1.5)

    def test_charges_the_context(self, small_graph):
        ctx = ExecutionContext(V100)
        global_pagerank(small_graph, ctx=ctx)
        assert ctx.elapsed > 0
        assert any(l.name == "global_pagerank" for l in ctx.launches)


class TestPushPPR:
    def test_mass_conservation(self, small_graph):
        p = push_ppr(small_graph, 3, epsilon=1e-6)
        # Estimates plus leftover residual equal the unit of mass; with a
        # tight epsilon nearly all mass lands in the estimate.
        assert 0.5 < p.sum() <= 1.0 + 1e-5

    def test_source_holds_most_mass(self, small_graph):
        p = push_ppr(small_graph, 7, alpha=0.5, epsilon=1e-6)
        assert p.argmax() == 7

    def test_locality(self, ring_with_hub):
        graph, _hub = ring_with_hub
        p = push_ppr(graph, 0, alpha=0.3, epsilon=1e-5)
        # Ring nodes far from the source (and not the hub's out-targets)
        # receive (almost) nothing.
        assert p[0] > p[10]

    def test_source_validated(self, small_graph):
        with pytest.raises(ShapeError):
            push_ppr(small_graph, 10_000)
        with pytest.raises(ShapeError):
            push_ppr(small_graph, 0, alpha=0.0)

    def test_isolated_source(self):
        graph = from_edges([0], [1], 5)
        p = push_ppr(graph, 3)  # node 3 has no in-edges
        assert p[3] == pytest.approx(1.0)
        assert p.sum() == pytest.approx(1.0)


class TestTopkNeighbors:
    def test_excludes_source_and_bounds_k(self, small_graph):
        top = topk_ppr_neighbors(small_graph, 5, 8)
        assert 5 not in top
        assert len(top) <= 8

    def test_empty_for_isolated_source(self):
        graph = from_edges([0], [1], 5)
        assert len(topk_ppr_neighbors(graph, 3, 4)) == 0


class TestShaDowPPRVariant:
    def test_ppr_bias_builds_localized_subgraph(self, small_graph):
        algo = make_algorithm("shadow", bias="ppr", ppr_k=6)
        pipe = algo.build(small_graph, np.arange(4))
        out = pipe.sample_batch(np.arange(4), rng=new_rng(0))
        assert set(out.seeds.tolist()) <= set(out.nodes.tolist())
        # Pool bounded by seeds + k PPR nodes per seed.
        assert len(out.nodes) <= 4 + 4 * 6
        assert out.matrix.shape == (len(out.nodes), len(out.nodes))

    def test_invalid_bias_rejected(self):
        with pytest.raises(GSamplerError, match="bias"):
            make_algorithm("shadow", bias="metis")
