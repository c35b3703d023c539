"""LABOR variance-reduced neighbor sampling (Balin & Catalyurek, 2023).

LABOR replaces GraphSAGE's independent per-frontier draws with
*correlated* Bernoulli inclusion: every frontier admits each in-edge
with probability ``min(1, K / deg)`` — the same expected fanout — but
all frontiers share one uniform variate per neighbor node, so frontiers
with common neighbors tend to admit the *same* rows.  The union frontier
(and the feature-transfer bytes it drives) shrinks, while Horvitz–
Thompson edge weights ``1 / pi`` keep every aggregation unbiased at the
same per-edge marginals as ``individual_sample``.

Through the Matrix/ECSF lens the program is GraphSAGE's with the Select
operator swapped: extract, skip compute, labor-sample, finalize.
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


def labor_layer(A, frontiers, K):
    """One LABOR layer: shared-coin Bernoulli select over the slice."""
    sub_A = A[:, frontiers]
    sample_A = sub_A.labor_sample(K)
    return sample_A, sample_A.row()


class Labor(Algorithm):
    """LABOR algorithm factory (drop-in for GraphSAGE pipelines)."""

    info = AlgorithmInfo(
        name="labor",
        category="node-wise",
        bias="uniform",
        fanout_gt_one=True,
        description="Correlated-Bernoulli variance-reduced fanout sampling",
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
                labor_layer,
                graph,
                example_seeds,
                constants={"K": k},
                config=config,
            )
            for k in self.fanouts
        ]
        return LayeredPipeline(samplers, supports_superbatch=True)
