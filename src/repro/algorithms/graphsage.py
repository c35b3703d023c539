"""GraphSAGE neighbor sampling (Hamilton et al., NeurIPS 2017).

Table 2 row: node-wise, uniform bias, fanout > 1 — "each frontier
independently and uniformly samples fanout neighbors".  This is the
canonical simple algorithm of the paper (Figure 3a): extract, skip
compute, individual-sample, finalize.  The experiments use 3 layers with
fanouts (5, 10, 15) and batch size 1024, matching the DGL/PyG examples.

gSampler's Extract-Select fusion collapses the two operators into a
single kernel that samples straight from the graph's CSC — the dominant
optimization in Figure 10's GraphSAGE columns.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.algorithms.base import (
    DEFAULT_SAGE_FANOUTS,
    Algorithm,
    AlgorithmInfo,
    LayeredPipeline,
)
from repro.core.matrix import Matrix
from repro.sampler import OptimizationConfig, compile_sampler


def graphsage_layer(A, frontiers, K):
    """Figure 3(a) of the paper, verbatim."""
    sub_A = A[:, frontiers]
    sample_A = sub_A.individual_sample(K)
    return sample_A, sample_A.row()


class GraphSAGE(Algorithm):
    """GraphSAGE algorithm factory."""

    info = AlgorithmInfo(
        name="graphsage",
        category="node-wise",
        bias="uniform",
        fanout_gt_one=True,
        description="Uniform per-frontier fanout sampling",
    )

    def __init__(self, fanouts: Sequence[int] = DEFAULT_SAGE_FANOUTS) -> None:
        self.fanouts = tuple(fanouts)

    def build(
        self,
        graph: Matrix,
        example_seeds: np.ndarray,
        *,
        features: np.ndarray | None = None,
        config: OptimizationConfig | None = None,
    ) -> LayeredPipeline:
        samplers = [
            compile_sampler(
                graphsage_layer,
                graph,
                example_seeds,
                constants={"K": k},
                config=config,
            )
            for k in self.fanouts
        ]
        return LayeredPipeline(samplers, supports_superbatch=True)
