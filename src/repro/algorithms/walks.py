"""Shared random-walk machinery for the walk-based algorithms.

DeepWalk, Node2Vec, GraphSAINT, PinSAGE, and HetGNN all build on the same
primitive: repeatedly pick one in-neighbor per walker.  :func:`walk` is
the one step loop — an algorithm is the *step* it passes (uniform,
second-order, restarting) — and :class:`WalkPipeline` the one pipeline
around it; the restart-walk hop, visit counting, top-k selection and
subgraph induction the walk algorithms finish with live here too.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

import numpy as np

from repro.algorithms.base import Pipeline
from repro.core import new_rng, sampling
from repro.core.matrix import Matrix
from repro.core.random import segmented_race_select
from repro.device import NULL_CONTEXT, ExecutionContext
from repro.errors import check_count, check_ids, check_real
from repro.sparse import COO, CSC, INDEX_DTYPE, to_csc


@dataclasses.dataclass
class WalkResult:
    """A batch of random walks.

    ``trace[t, w]`` is walker ``w``'s node after ``t`` steps (row 0 is the
    seed); ``-1`` marks walkers stranded at a dead end.
    """

    trace: np.ndarray

    @property
    def walk_length(self) -> int:
        return self.trace.shape[0] - 1

    @property
    def num_walkers(self) -> int:
        return self.trace.shape[1]

    def visited_nodes(self) -> np.ndarray:
        """Unique non-dead nodes touched by any walker."""
        flat = self.trace[self.trace >= 0]
        return np.unique(flat)


#: The walk parameters an algorithm may take, checked when it is made.
WALK_PARAMETERS = ("walk_length", "num_walks", "restart_prob")


def check_walk_parameters(
    *,
    walk_length: object = 0,
    num_walks: object = 0,
    restart_prob: object = 0.0,
) -> None:
    """Refuse a walk parameter no walk can run with, before any draw.

    ``restart_prob`` is a real number (a bool is not) in ``[0, 1]``.
    """
    check_count("walk length", walk_length, low=0)
    check_count("num_walks", num_walks, low=0)
    check_real("restart_prob", restart_prob, "[0, 1]")


#: One walk step: ``step(csc, degree, history, alive, nodes, rng, ctx) ->
#: (moved, nxt)``.  ``alive`` are the live walkers, ``nodes`` their current
#: nodes and ``degree`` the graph's in-degree table; the step returns the
#: walkers that moved, in ``alive``'s order, and the nodes they moved to —
#: every other walker is stranded.  ``history`` is the trace so far:
#: ``history[-2]`` holds every walker's previous node (second-order
#: steps), ``history[0]`` the origins (restarts).
Step = Callable[
    [
        CSC,
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.random.Generator,
        ExecutionContext,
    ],
    tuple[np.ndarray, np.ndarray],
]


def walk(
    graph: Matrix,
    seeds: np.ndarray,
    walk_length: int,
    step: Step,
    *,
    ctx: ExecutionContext = NULL_CONTEXT,
    rng: np.random.Generator | None = None,
) -> WalkResult:
    """The walk driver: ``step`` the live walkers ``walk_length`` times.

    A ``-1`` seed is a walker that is dead from the start.  The driver
    carries the live walkers and their current nodes from each step's
    result; a walker the step does not move stays dead.  Seeds are checked
    here, once: every later node is one the step read out of the graph.
    """
    check_count("walk length", walk_length, low=0)
    # A walker's node indexes the CSC's columns.
    seeds = check_ids("walk seed", seeds, graph.shape[1], low=-1)
    rng = rng if rng is not None else new_rng(None)
    csc = graph.get("csc")
    degree = csc.col_degrees()
    trace = np.full((walk_length + 1, len(seeds)), -1, dtype=INDEX_DTYPE)
    trace[0] = seeds
    alive = np.flatnonzero(seeds >= 0)
    nodes = seeds[alive]
    for t in range(walk_length):
        if len(alive) == 0:
            break
        alive, nodes = step(csc, degree, trace[: t + 1], alive, nodes, rng, ctx)
        trace[t + 1][alive] = nodes
    return WalkResult(trace=trace)


def movers(
    degree: np.ndarray, alive: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The live walkers that can move — their node has in-edges — with
    their nodes and in-degrees; the rest leave before the step draws."""
    lengths = degree[nodes]
    can = lengths.nonzero()[0]
    if len(can) == len(nodes):
        return alive, nodes, lengths
    return alive[can], nodes[can], lengths[can]


def uniform_step(
    csc: CSC,
    degree: np.ndarray,
    history: np.ndarray,
    alive: np.ndarray,
    nodes: np.ndarray,
    rng: np.random.Generator,
    ctx: ExecutionContext,
) -> tuple[np.ndarray, np.ndarray]:
    """First-order uniform step: the fused walk-step kernel."""
    moved, cur, lengths = movers(degree, alive, nodes)
    return moved, sampling._walk_draw(csc, cur, lengths, len(alive), rng, ctx)


def uniform_walk(
    graph: Matrix,
    seeds: np.ndarray,
    walk_length: int,
    *,
    ctx: ExecutionContext = NULL_CONTEXT,
    rng: np.random.Generator | None = None,
) -> WalkResult:
    """Vanilla random walk (DeepWalk's sampler): one kernel per step."""
    return walk(graph, seeds, walk_length, uniform_step, ctx=ctx, rng=rng)


class WalkPipeline(Pipeline):
    """Runs whole walk batches through a walk function.

    ``walk_fn`` has :func:`uniform_walk`'s signature.  Walkers are
    independent, so a super-batch is literal concatenation — walk once,
    sharing every kernel launch across batches, and split.  ``finalize``
    turns each ``WalkResult`` into the algorithm's sample (GraphSAINT's
    induction) and, coupling a batch's walkers, rules super-batching out.
    """

    def __init__(
        self,
        graph: Matrix,
        walk_length: int,
        walk_fn: Callable[..., WalkResult],
        *,
        finalize: Callable[[Matrix, WalkResult, ExecutionContext], object]
        | None = None,
    ) -> None:
        self.graph = graph
        self.walk_length = walk_length
        self.walk_fn = walk_fn
        self.finalize = finalize
        self.supports_superbatch = finalize is None

    def sample_batch(
        self,
        seeds: np.ndarray,
        *,
        ctx: ExecutionContext = NULL_CONTEXT,
        rng: np.random.Generator | None = None,
    ) -> object:
        result = self.walk_fn(self.graph, seeds, self.walk_length, ctx=ctx, rng=rng)
        if self.finalize is not None:
            return self.finalize(self.graph, result, ctx)
        return result

    def sample_superbatch(
        self,
        seed_batches: Sequence[np.ndarray],
        *,
        ctx: ExecutionContext = NULL_CONTEXT,
        rng: np.random.Generator | None = None,
    ) -> list[WalkResult]:
        if not self.supports_superbatch:
            return super().sample_superbatch(seed_batches, ctx=ctx, rng=rng)
        merged = self.sample_batch(
            np.concatenate([np.asarray(b, dtype=INDEX_DTYPE) for b in seed_batches]),
            ctx=ctx,
            rng=rng,
        )
        cuts = np.cumsum([len(b) for b in seed_batches])[:-1]
        return [WalkResult(part) for part in np.split(merged.trace, cuts, axis=1)]


def restart_walk_visit_counts(
    graph: Matrix,
    frontiers: np.ndarray,
    *,
    num_walks: int,
    walk_length: int,
    restart_prob: float,
    ctx: ExecutionContext = NULL_CONTEXT,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random walks with restart; returns per-(frontier, node) visit counts.

    This is PinSAGE's neighborhood construction: ``num_walks`` walkers per
    frontier, each restarting at its origin with probability
    ``restart_prob``, and every visit to a node is counted toward that
    frontier.  Returns ``(frontier_idx, node, count)`` flat arrays.
    """
    check_walk_parameters(
        walk_length=walk_length, num_walks=num_walks, restart_prob=restart_prob
    )
    frontiers = np.asarray(frontiers)  # the driver checks them as seeds
    owner = np.repeat(np.arange(len(frontiers), dtype=INDEX_DTYPE), num_walks)

    def restart_step(csc, degree, history, alive, nodes, rng, ctx):
        can = degree[nodes] > 0
        _, moved_to = uniform_step(csc, degree, history, alive, nodes, rng, ctx)
        # Stranded walkers restart too, so no walker ever dies.
        home = (rng.random(len(alive)) < restart_prob) | ~can
        nxt = history[0][alive]
        nxt[~home] = moved_to[~home[can]]
        return alive, nxt

    trace = walk(
        graph, np.repeat(frontiers, num_walks), walk_length, restart_step,
        ctx=ctx, rng=rng,
    ).trace
    n = graph.shape[0]
    uniq, counts = np.unique(owner * n + trace[1:], return_counts=True)
    return (
        (uniq // n).astype(INDEX_DTYPE),
        (uniq % n).astype(INDEX_DTYPE),
        counts.astype(INDEX_DTYPE),
    )


def top_k_per_segment(
    segment: np.ndarray, score: np.ndarray, k: int
) -> np.ndarray:
    """Indices of the ``k`` highest-scored items within every segment.

    ``segment`` must be sorted ascending (as returned by the visit
    counter) and ``score`` finite; ties keep the earlier item.  Used to
    pick the top-T visited neighbors in PinSAGE and the per-type top-k in
    HetGNN.  The selection is a race on ``-score``.
    """
    bounds = np.flatnonzero(np.diff(segment)) + 1
    indptr = np.concatenate([[0], bounds, [len(segment)]])
    return segmented_race_select(-np.asarray(score), indptr, k)


def restart_walk_hop(
    graph: Matrix,
    frontiers: np.ndarray,
    ctx: ExecutionContext,
    rng: np.random.Generator,
    *,
    num_walks: int,
    walk_length: int,
    restart_prob: float,
    top_k: int,
    node_types: np.ndarray | None = None,
) -> tuple[Matrix, np.ndarray]:
    """One PinSAGE/HetGNN hop: restart walks, then the ``top_k`` most
    visited nodes per frontier — or, with ``node_types``, per (frontier,
    type), so each type contributes its own top-k to the neighborhood.

    Returns the bipartite importance matrix (visited node -> frontier,
    weighted by visit count) and its nodes, the next frontiers.
    """
    owner, node, count = restart_walk_visit_counts(
        graph,
        frontiers,
        num_walks=num_walks,
        walk_length=walk_length,
        restart_prob=restart_prob,
        ctx=ctx,
        rng=rng,
    )
    segment = owner
    if node_types is not None:
        segment = owner * (int(node_types.max(initial=0)) + 1) + node_types[node]
    order = np.argsort(segment, kind="stable")
    keep = order[
        top_k_per_segment(segment[order], count[order].astype(np.float64), top_k)
    ]
    coo = COO(
        rows=node[keep],
        cols=owner[keep],
        values=count[keep].astype(np.float32),
        shape=(graph.shape[0], len(frontiers)),
    )
    matrix = Matrix(
        to_csc(coo), col_ids=np.asarray(frontiers, dtype=INDEX_DTYPE), ctx=ctx
    )
    return matrix, np.unique(node[keep])


def induce_subgraph(
    graph: Matrix,
    nodes: np.ndarray,
    *,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> Matrix:
    """The subgraph of ``graph`` induced by ``nodes`` (rows and columns).

    GraphSAINT, SEAL, and ShaDow all finish with an induced subgraph; with
    the matrix API it is simply a column slice followed by a row slice.
    """
    nodes = np.asarray(nodes, dtype=INDEX_DTYPE)
    with_ctx = Matrix(
        graph.any_storage(),
        row_ids=graph.row_ids,
        col_ids=graph.col_ids,
        ctx=ctx,
        is_base_graph=graph.is_base_graph,
    )
    return with_ctx[nodes, nodes]
