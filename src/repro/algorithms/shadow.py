"""ShaDow-GNN: decoupled subgraph sampling (Zeng et al., NeurIPS 2021).

Table 2 row: node-wise, static bias — "each frontier samples neighbors
with uniform or PPR bias and then induce a subgraph using all the sampled
nodes".  The experiments use depth 2 with fanout 10.

The pipeline runs a GraphSAGE-style expansion to collect each batch's
node pool, then *induces* the subgraph over the pooled nodes — the
finalize-step pattern the paper says requires a global graph view (and
which vertex-centric systems cannot express).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.algorithms import walks
from repro.algorithms.base import Algorithm, AlgorithmInfo
from repro.algorithms.graphsage import graphsage_layer
from repro.core import GraphSample
from repro.core.matrix import Matrix
from repro.core.ppr import topk_ppr_neighbors
from repro.device import ExecutionContext
from repro.errors import GSamplerError


@dataclasses.dataclass
class ShadowSample:
    """An induced, localized subgraph around a batch of seeds."""

    seeds: np.ndarray
    nodes: np.ndarray
    matrix: Matrix  # induced adjacency over ``nodes`` (local x local)
    expansion: GraphSample  # the fanout expansion that chose the nodes


@dataclasses.dataclass
class ShaDow(Algorithm):
    """Fanout (or PPR) expansion + induced subgraph.

    ``bias="uniform"`` expands by ``depth`` stacked GraphSAGE layers;
    ``bias="ppr"`` runs no layer and pools each seed's top-``ppr_k``
    personalized-PageRank neighborhood instead — the two variants Table 2
    names for ShaDow.  Induction couples the whole batch, so there is no
    super-batch path.
    """

    fanout: int = 10
    depth: int = 2
    bias: str = "uniform"
    ppr_k: int = 20

    info = AlgorithmInfo(
        "shadow", "node-wise", "static", True,
        "Fanout expansion then per-batch induced subgraph",
    )
    layer = staticmethod(graphsage_layer)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.bias not in ("uniform", "ppr"):
            raise GSamplerError(
                f"ShaDow bias must be 'uniform' or 'ppr', got {self.bias!r}"
            )

    def programs(self) -> tuple[list[dict], int]:
        depth = self.depth if self.bias == "uniform" else 0
        return [{"K": self.fanout}] * depth, 1

    def finalize(
        self, graph: Matrix, expansion: GraphSample, ctx: ExecutionContext
    ) -> ShadowSample:
        """Induce the subgraph over the nodes the expansion pooled."""
        if self.bias == "ppr":
            pools = [expansion.seeds] + [
                topk_ppr_neighbors(graph, int(seed), self.ppr_k, ctx=ctx)
                for seed in expansion.seeds
            ]
            nodes = np.unique(np.concatenate(pools))
        else:
            nodes = expansion.all_nodes
        return ShadowSample(
            seeds=expansion.seeds,
            nodes=nodes,
            matrix=walks.induce_subgraph(graph, nodes, ctx=ctx),
            expansion=expansion,
        )
