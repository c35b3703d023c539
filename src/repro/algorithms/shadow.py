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
from repro.algorithms.base import (
    Algorithm,
    AlgorithmInfo,
    Pipeline,
)
from repro.algorithms.graphsage import graphsage_layer
from repro.core import GraphSample, new_rng
from repro.core.matrix import Matrix
from repro.device import NULL_CONTEXT, ExecutionContext
from repro.sampler import CompiledSampler, OptimizationConfig, compile_sampler


@dataclasses.dataclass
class ShadowSample:
    """An induced, localized subgraph around a batch of seeds."""

    seeds: np.ndarray
    nodes: np.ndarray
    matrix: Matrix  # induced adjacency over ``nodes`` (local x local)
    expansion: GraphSample  # the fanout expansion that chose the nodes

    @property
    def num_edges(self) -> int:
        return self.matrix.nnz


class ShaDowPipeline(Pipeline):
    """Fanout (or PPR) expansion + induced subgraph.

    ``bias="uniform"`` expands by stacked uniform fanout layers;
    ``bias="ppr"`` selects each seed's top-k personalized-PageRank
    neighborhood instead — the two variants Table 2 names for ShaDow.
    """

    supports_superbatch = False  # induction couples the whole batch

    def __init__(
        self,
        graph: Matrix,
        samplers: list[CompiledSampler],
        *,
        bias: str = "uniform",
        ppr_k: int = 20,
    ) -> None:
        self.graph = graph
        self.samplers = samplers
        self.bias = bias
        self.ppr_k = ppr_k

    def _expand_uniform(
        self,
        seeds: np.ndarray,
        ctx: ExecutionContext,
        rng: np.random.Generator,
    ) -> GraphSample:
        from repro.core import SampledLayer

        frontiers = np.asarray(seeds)
        layers = []
        for sampler in self.samplers:
            matrix, nxt = sampler.run(frontiers, ctx=ctx, rng=rng)
            layers.append(
                SampledLayer(matrix=matrix, input_nodes=frontiers, output_nodes=nxt)
            )
            frontiers = nxt
        return GraphSample(seeds=np.asarray(seeds), layers=layers)

    def _expand_ppr(self, seeds: np.ndarray, ctx: ExecutionContext) -> np.ndarray:
        from repro.core.ppr import topk_ppr_neighbors

        pools = [np.asarray(seeds)]
        for seed in np.asarray(seeds):
            pools.append(
                topk_ppr_neighbors(self.graph, int(seed), self.ppr_k, ctx=ctx)
            )
        return np.unique(np.concatenate(pools))

    def sample_batch(
        self,
        seeds: np.ndarray,
        *,
        ctx: ExecutionContext = NULL_CONTEXT,
        rng: np.random.Generator | None = None,
    ) -> ShadowSample:
        rng = rng if rng is not None else new_rng(None)
        if self.bias == "ppr":
            nodes = self._expand_ppr(seeds, ctx)
            expansion = GraphSample(seeds=np.asarray(seeds), layers=[])
        else:
            expansion = self._expand_uniform(seeds, ctx, rng)
            nodes = expansion.all_nodes
        induced = walks.induce_subgraph(self.graph, nodes, ctx=ctx)
        return ShadowSample(
            seeds=np.asarray(seeds),
            nodes=nodes,
            matrix=induced,
            expansion=expansion,
        )


class ShaDow(Algorithm):
    """ShaDow-GNN algorithm factory."""

    info = AlgorithmInfo(
        name="shadow",
        category="node-wise",
        bias="static",
        fanout_gt_one=True,
        description="Fanout expansion then per-batch induced subgraph",
    )

    def __init__(
        self,
        fanout: int = 10,
        depth: int = 2,
        bias: str = "uniform",
        ppr_k: int = 20,
    ) -> None:
        if bias not in ("uniform", "ppr"):
            raise ValueError(f"ShaDow bias must be 'uniform' or 'ppr', got {bias!r}")
        self.fanout = fanout
        self.depth = depth
        self.bias = bias
        self.ppr_k = ppr_k

    def build(
        self,
        graph: Matrix,
        example_seeds: np.ndarray,
        *,
        features: np.ndarray | None = None,
        config: OptimizationConfig | None = None,
    ) -> ShaDowPipeline:
        samplers = [
            compile_sampler(
                graphsage_layer,
                graph,
                example_seeds,
                constants={"K": self.fanout},
                config=config,
            )
            for _ in range(self.depth)
        ]
        return ShaDowPipeline(
            graph, samplers, bias=self.bias, ppr_k=self.ppr_k
        )
