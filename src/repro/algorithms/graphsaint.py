"""GraphSAINT random-walk sampler (Zeng et al., ICLR 2020).

Table 2 row: node-wise, uniform — "conduct vanilla random walk and induce
subgraph according to sampled nodes".  A batch of root nodes each runs a
short walk; the union of visited nodes induces the training subgraph, and
per-node/per-edge sampling probabilities yield the normalization
coefficients GraphSAINT uses to debias its estimator.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.algorithms import walks
from repro.algorithms.base import Algorithm, AlgorithmInfo
from repro.core.matrix import Matrix
from repro.device import ExecutionContext


@dataclasses.dataclass
class SaintSample:
    """A GraphSAINT training subgraph with normalization weights."""

    roots: np.ndarray
    nodes: np.ndarray
    matrix: Matrix
    #: Per-node inclusion counts over the walk batch: the basis of
    #: GraphSAINT's loss/aggregation normalization.
    node_counts: np.ndarray


def saint_finalize(
    graph: Matrix, result: walks.WalkResult, ctx: ExecutionContext
) -> SaintSample:
    """Walk batch -> visited-node pool -> induced subgraph."""
    flat = result.trace[result.trace >= 0]
    nodes, counts = np.unique(flat, return_counts=True)
    return SaintSample(
        roots=result.trace[0],
        nodes=nodes,
        matrix=walks.induce_subgraph(graph, nodes, ctx=ctx),
        node_counts=counts,
    )


@dataclasses.dataclass
class GraphSAINT(Algorithm):
    """GraphSAINT (random-walk variant): a short uniform walk, then induce."""

    walk_length: int = 4

    info = AlgorithmInfo(
        "graphsaint", "node-wise", "uniform", False,
        "Random-walk pooling plus induced training subgraph",
    )

    def direct(self, graph: Matrix) -> walks.WalkPipeline:
        return walks.WalkPipeline(
            graph, self.walk_length, walks.uniform_walk, finalize=saint_finalize
        )
