"""DeepWalk: vanilla uniform random walks (Perozzi et al., KDD 2014).

Table 2 row: node-wise, uniform bias, fanout 1 — "uniformly sample a
neighbor of the frontier at each step".  The paper uses walk length 80
following the original configuration.

In the matrix API a walk step is ``A[:, frontier].individual_sample(1)``;
gSampler's Extract-Select fusion turns that into the fused walk-step
kernel, which is what the pipeline below launches directly.
"""

from __future__ import annotations

import dataclasses

from repro.algorithms import walks
from repro.algorithms.base import DEFAULT_WALK_LENGTH, Algorithm, AlgorithmInfo
from repro.core.matrix import Matrix


def deepwalk_step(A, frontiers, K=1):
    """One walk step in matrix form (the traceable ECSF layer).

    With ``K=1`` GraphSAGE's layer degenerates into a random walk, as the
    paper notes; this function exists to demonstrate that and for the
    LoC/usability benchmark.
    """
    sub_A = A[:, frontiers]
    sample_A = sub_A.individual_sample(K, replace=True)
    return sample_A, sample_A.row()


@dataclasses.dataclass
class DeepWalk(Algorithm):
    """DeepWalk: the walk driver with the uniform (fused walk-step) step."""

    walk_length: int = DEFAULT_WALK_LENGTH

    info = AlgorithmInfo(
        "deepwalk", "node-wise", "uniform", False,
        "Vanilla random walk, uniform neighbor per step",
    )

    def direct(self, graph: Matrix) -> walks.WalkPipeline:
        return walks.WalkPipeline(graph, self.walk_length, walks.uniform_walk)
