"""SEAL: enclosing-subgraph extraction for link prediction (Zhang & Chen, 2018).

Table 2 row: node-wise, static bias — "each frontier samples neighbors
with uniform or PPR bias and then induce a subgraph using all the sampled
nodes".  For every candidate link ``(u, v)``, SEAL extracts the h-hop
enclosing subgraph around the pair, induces it, and labels each node with
its Double-Radius Node Labeling (DRNL) — a function of its distances to
``u`` and ``v`` — before handing it to a graph classifier.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.algorithms import walks
from repro.algorithms.base import Algorithm, AlgorithmInfo, Pipeline
from repro.core import new_rng
from repro.core.matrix import Matrix
from repro.device import NULL_CONTEXT, ExecutionContext
from repro.sparse import INDEX_DTYPE


@dataclasses.dataclass
class SealSample:
    """One enclosing subgraph with DRNL structural labels."""

    pair: tuple[int, int]
    nodes: np.ndarray
    matrix: Matrix
    drnl_labels: np.ndarray


def _hop_neighborhood(
    graph: Matrix,
    roots: np.ndarray,
    hops: int,
    fanout: int,
    ctx: ExecutionContext,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled h-hop ball around ``roots``: (nodes, hop-distance)."""
    frontier = np.asarray(roots, dtype=INDEX_DTYPE)
    dist = {int(r): 0 for r in frontier}
    for hop in range(1, hops + 1):
        if len(frontier) == 0:
            break
        with_ctx = Matrix(
            graph.any_storage(), ctx=ctx, is_base_graph=graph.is_base_graph
        )
        sub = with_ctx.slice_cols(frontier)
        sampled = sub.individual_sample(fanout, rng=rng)
        nxt = sampled.row()
        fresh = [int(n) for n in nxt if int(n) not in dist]
        for n in fresh:
            dist[n] = hop
        frontier = np.asarray(fresh, dtype=INDEX_DTYPE)
    nodes = np.fromiter(dist.keys(), dtype=INDEX_DTYPE)
    hops_arr = np.fromiter(dist.values(), dtype=INDEX_DTYPE)
    order = np.argsort(nodes)
    return nodes[order], hops_arr[order]


def drnl_labels(du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Double-Radius Node Labeling from distances to the two endpoints."""
    d = du + dv
    labels = 1 + np.minimum(du, dv) + (d // 2) * ((d // 2) + (d % 2) - 1)
    labels[(du == 0) & (dv == 0)] = 1
    return labels.astype(INDEX_DTYPE)


class SEALPipeline(Pipeline):
    """Per-link enclosing-subgraph extraction."""

    def __init__(self, graph: Matrix, hops: int, fanout: int) -> None:
        self.graph = graph
        self.hops = hops
        self.fanout = fanout

    def sample_batch(
        self,
        seeds: np.ndarray,
        *,
        ctx: ExecutionContext = NULL_CONTEXT,
        rng: np.random.Generator | None = None,
    ) -> list[SealSample]:
        """``seeds`` is a flat array of node pairs: [u0, v0, u1, v1, ...]."""
        rng = rng if rng is not None else new_rng(None)
        pairs = np.asarray(seeds, dtype=INDEX_DTYPE).reshape(-1, 2)
        out: list[SealSample] = []
        for u, v in pairs:
            nodes_u, du = _hop_neighborhood(
                self.graph, np.array([u]), self.hops, self.fanout, ctx, rng
            )
            nodes_v, dv = _hop_neighborhood(
                self.graph, np.array([v]), self.hops, self.fanout, ctx, rng
            )
            nodes = np.union1d(nodes_u, nodes_v)
            # Distances to u/v over the union (unreached := hops + 1).
            du_full = np.full(len(nodes), self.hops + 1, dtype=INDEX_DTYPE)
            dv_full = np.full(len(nodes), self.hops + 1, dtype=INDEX_DTYPE)
            du_full[np.searchsorted(nodes, nodes_u)] = du
            dv_full[np.searchsorted(nodes, nodes_v)] = dv
            induced = walks.induce_subgraph(self.graph, nodes, ctx=ctx)
            out.append(
                SealSample(
                    pair=(int(u), int(v)),
                    nodes=nodes,
                    matrix=induced,
                    drnl_labels=drnl_labels(du_full, dv_full),
                )
            )
        return out


@dataclasses.dataclass
class SEAL(Algorithm):
    """SEAL: ``hops``-hop sampled balls around both endpoints of a link."""

    hops: int = 2
    fanout: int = 10

    info = AlgorithmInfo(
        "seal", "node-wise", "static", True,
        "h-hop enclosing subgraphs with DRNL labels for links",
    )

    def direct(self, graph: Matrix) -> SEALPipeline:
        return SEALPipeline(graph, self.hops, self.fanout)
