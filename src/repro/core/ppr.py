"""Personalized PageRank (PPR): the static bias behind SEAL and ShaDow.

Table 2 lists SEAL and ShaDow as sampling neighbors "with uniform or PPR
bias", and Section 4.2 names pre-computed PPR scores as a canonical
pre-processing target.  Two estimators are provided:

* :func:`global_pagerank` — power iteration over the whole graph; a
  frontier-invariant vector the pre-processing pass can hoist;
* :func:`push_ppr` — the Andersen-Chung-Lang forward-push algorithm for
  *personalized* scores from a single source, used per seed when a
  localized ranking is needed (ShaDow's PPR neighborhoods).

Both operate on the in-edge convention of this package: ``A[u, v]`` is
``u -> v``, so random-walk mass flows from ``v`` backwards over columns —
matching how sampling traverses in-neighborhoods.
"""

from __future__ import annotations

import numpy as np

from repro.core.matrix import Matrix
from repro.device import NULL_CONTEXT, ExecutionContext
from repro.errors import ShapeError, check_count, check_real
from repro.sparse import VALUE_DTYPE

_ITEM = 8
_VAL = 4


def global_pagerank(
    graph: Matrix,
    *,
    damping: float = 0.85,
    max_iterations: int = 50,
    tolerance: float = 1e-8,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> np.ndarray:
    """PageRank over the reversed edges (importance as a *neighbor*).

    Each iteration is one SpMM against the column-normalized adjacency;
    iterations stop at ``tolerance`` in L1.  The result sums to one.
    """
    check_real("damping", damping, "(0, 1)")
    max_iterations = check_count("max_iterations", max_iterations)
    check_real("tolerance", tolerance, "[0, inf)")
    n = graph.shape[0]
    if n == 0:
        return np.zeros(0, dtype=VALUE_DTYPE)
    # Column-normalize: every frontier distributes rank equally (or by
    # weight) over its in-neighbors.
    col_mass = graph.sum(axis=1).astype(np.float64)
    norm = Matrix(
        graph.any_storage(), ctx=NULL_CONTEXT
    ).div(np.maximum(col_mass, 1e-12).astype(np.float32), axis=1)
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    teleport = (1.0 - damping) / n
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        spread = norm @ rank.astype(np.float32)
        # Dangling frontiers (no in-edges) teleport their mass.
        dangling = float(rank[col_mass <= 0].sum()) / n
        new_rank = teleport + damping * (spread.astype(np.float64) + dangling)
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < tolerance:
            break
    ctx.record(
        "global_pagerank",
        bytes_read=iterations * graph.nnz * (_ITEM + _VAL),
        bytes_written=iterations * n * _VAL,
        flops=2.0 * iterations * graph.nnz,
        tasks=max(graph.nnz, 1),
    )
    total = rank.sum()
    return (rank / total if total > 0 else rank).astype(VALUE_DTYPE)


def push_ppr(
    graph: Matrix,
    source: int,
    *,
    alpha: float = 0.15,
    epsilon: float = 1e-4,
    max_pushes: int = 100_000,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> np.ndarray:
    """Forward-push personalized PageRank from one source node.

    Standard ACL push: maintain ``(p, r)`` with ``p`` the estimate and
    ``r`` the residual; repeatedly push any node whose residual exceeds
    ``epsilon * degree``.  Touches only the source's neighborhood, which
    is what makes per-seed PPR affordable.
    """
    check_real("alpha", alpha, "(0, 1)")
    check_real("epsilon", epsilon, "(0, inf)")
    max_pushes = check_count("max_pushes", max_pushes)
    source = check_count("source", source, low=0)
    n = graph.shape[0]
    if source >= n:
        raise ShapeError(f"source {source} out of range for {n} nodes")
    csc = graph.get("csc")
    degrees = np.diff(csc.indptr)
    p = np.zeros(n, dtype=np.float64)
    r = np.zeros(n, dtype=np.float64)
    r[source] = 1.0
    queue = [source]
    queued = np.zeros(n, dtype=bool)
    queued[source] = True
    pushes = 0
    touched = 0
    while queue and pushes < max_pushes:
        u = queue.pop()
        queued[u] = False
        deg = int(degrees[u])
        if deg == 0:
            # Dead end: all residual becomes estimate.
            p[u] += r[u]
            r[u] = 0.0
            continue
        if r[u] < epsilon * deg:
            continue
        pushes += 1
        p[u] += alpha * r[u]
        share = (1.0 - alpha) * r[u] / deg
        r[u] = 0.0
        neighbors = csc.rows[csc.indptr[u] : csc.indptr[u + 1]]
        touched += len(neighbors)
        np.add.at(r, neighbors, share)
        for v in np.unique(neighbors):
            if not queued[v] and r[v] >= epsilon * max(degrees[v], 1):
                queue.append(int(v))
                queued[v] = True
    ctx.record(
        "push_ppr",
        bytes_read=touched * (_ITEM + _VAL) + pushes * 3 * _VAL,
        bytes_written=touched * _VAL,
        flops=float(touched) * 2.0,
        tasks=max(touched, 1),
    )
    return p.astype(VALUE_DTYPE)


def topk_ppr_neighbors(
    graph: Matrix,
    source: int,
    k: int,
    *,
    alpha: float = 0.15,
    epsilon: float = 1e-4,
    ctx: ExecutionContext = NULL_CONTEXT,
) -> np.ndarray:
    """The ``k`` highest-PPR nodes around ``source`` (excluding itself).

    This is ShaDow's PPR-neighborhood construction: the subgraph for a
    seed is induced over its top-k PPR nodes instead of a sampled tree.
    """
    k = check_count("k", k, low=0)
    scores = push_ppr(graph, source, alpha=alpha, epsilon=epsilon, ctx=ctx)
    scores[source] = 0.0
    positive = int(np.count_nonzero(scores > 0))
    take = min(k, positive)
    if take == 0:
        return np.empty(0, dtype=np.int64)
    top = np.argpartition(scores, -take)[-take:]
    return np.sort(top).astype(np.int64)
