"""LADIES: layer-dependent importance sampling (Zou et al., NeurIPS 2019).

Table 2 row: layer-wise, dynamic bias — "the sampling bias of a node is
the sum of its squared edge weights to the frontiers; edge weights of the
sampled subgraph are divided by sampling bias".

This is the paper's running example (Figures 2, 3b, 5c): the bias
computation is two lines in matrix form, the select step is a collective
sample over the candidate rows, and the finalize step debiases the edge
weights (divide by the node's selection bias, then normalize each
frontier's column to sum to one).

Under gSampler's passes, ``sub_A ** 2`` is hoisted to a pre-computed
``M = A ** 2`` (pre-processing), and the two finalize operators fuse into
an Edge-MapReduce + Edge-Map pair.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    DEFAULT_LAYER_WIDTH,
    Algorithm,
    AlgorithmInfo,
    LayeredPipeline,
)
from repro.core.matrix import Matrix
from repro.sampler import OptimizationConfig, compile_sampler


def ladies_layer(A, frontiers, K):
    """Figure 3(b) of the paper (axis conventions per our API docs)."""
    sub_A = A[:, frontiers]
    row_probs = (sub_A ** 2).sum(axis=0)
    sample_A = sub_A.collective_sample(K, row_probs)
    select_probs = row_probs[sample_A.row()]
    sample_A = sample_A.div(select_probs, axis=0)
    sample_A = sample_A.div(sample_A.sum(axis=1), axis=1)
    return sample_A, sample_A.row()


class LADIES(Algorithm):
    """LADIES algorithm factory."""

    info = AlgorithmInfo(
        name="ladies",
        category="layer-wise",
        bias="dynamic",
        fanout_gt_one=True,
        description="Layer-wise sampling biased by squared edge weights",
    )

    def __init__(
        self, layer_width: int = DEFAULT_LAYER_WIDTH, num_layers: int = 3
    ) -> None:
        self.layer_width = layer_width
        self.num_layers = num_layers

    def build(
        self,
        graph: Matrix,
        example_seeds: np.ndarray,
        *,
        features: np.ndarray | None = None,
        config: OptimizationConfig | None = None,
    ) -> LayeredPipeline:
        sampler = compile_sampler(
            ladies_layer,
            graph,
            example_seeds,
            constants={"K": self.layer_width},
            config=config,
        )
        return LayeredPipeline(
            [sampler] * self.num_layers, supports_superbatch=True
        )
