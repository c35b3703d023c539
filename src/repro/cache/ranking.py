"""Shared degree-order ranking for feature-residency policies.

:class:`~repro.cache.tiered.TieredFeatureStore` pins rows along one
hotness order: score nodes (by in-degree, in the standard policy),
optionally demote rows outside the replica's owned shard below every
owned row, and stable-argsort descending so ties break toward lower node
ids.  The ranking accepts a *refreshable* degree array: after graph
mutation a :class:`~repro.dynamic.DeltaGraph` hands its live degrees to
:meth:`~repro.cache.tiered.TieredFeatureStore.rerank` and admission
re-ranks against current hotness instead of the seed-time snapshot.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

__all__ = ["degree_order", "graph_degrees"]


def degree_order(
    scores: np.ndarray, *, owned_mask: np.ndarray | None = None
) -> np.ndarray:
    """Node ids sorted hottest-first, ties toward lower ids.

    ``owned_mask`` implements the sharded-replica policy: owned nodes
    keep their score, every non-owned node is scored below the coldest
    owned node (-1 against non-negative degrees), so the budget goes to
    rows the replica will actually be asked for while non-owned rows
    stay admissible last.  The input array is never mutated.
    """
    scores = np.asarray(scores).astype(np.float64)
    if owned_mask is not None:
        owned_mask = np.asarray(owned_mask, dtype=bool)
        if owned_mask.shape != scores.shape:
            raise ShapeError(
                f"owned mask shape {owned_mask.shape} != scores "
                f"shape {scores.shape}"
            )
        scores = scores.copy()
        scores[~owned_mask] = -1.0
    return np.argsort(-scores, kind="stable")


def graph_degrees(graph) -> np.ndarray:
    """In-degree per node of a graph :class:`~repro.core.matrix.Matrix`.

    The standard hotness score: CSC column degrees, the same array the
    workload generators use, so cache residency and request skew agree
    on which nodes are hot.
    """
    return np.diff(graph.get("csc").indptr)
