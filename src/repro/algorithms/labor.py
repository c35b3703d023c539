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

import dataclasses
from collections.abc import Sequence

from repro.algorithms.base import (
    DEFAULT_SAGE_FANOUTS,
    Algorithm,
    AlgorithmInfo,
    per_fanout,
)


def labor_layer(A, frontiers, K):
    """One LABOR layer: shared-coin Bernoulli select over the slice."""
    sub_A = A[:, frontiers]
    sample_A = sub_A.labor_sample(K)
    return sample_A, sample_A.row()


@dataclasses.dataclass
class Labor(Algorithm):
    """LABOR (drop-in for GraphSAGE pipelines)."""

    fanouts: Sequence[int] = DEFAULT_SAGE_FANOUTS

    info = AlgorithmInfo(
        "labor", "node-wise", "uniform", True,
        "Correlated-Bernoulli variance-reduced fanout sampling",
    )
    layer = staticmethod(labor_layer)
    programs = per_fanout
    superbatch = True
