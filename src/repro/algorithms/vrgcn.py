"""VR-GCN: variance-reduced neighbor sampling (Chen et al., ICML 2018).

Table 2 row: node-wise, uniform, fanout > 1.  VR-GCN samples a *small*
uniform fanout like GraphSAGE but keeps the estimator unbiased by
control variates on historical activations: each sampled edge is scaled
by the frontier's full neighborhood mass so the sampled aggregation
matches the full aggregation in expectation.

In matrix form the scaling needs the full ``sub_A`` degree *before*
selection — a compute step between extract and select, which is why
Extract-Select fusion does not apply here (the subgraph is genuinely
needed).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.algorithms.base import Algorithm, AlgorithmInfo, per_fanout


def vrgcn_layer(A, frontiers, K):
    """Uniform fanout with control-variate edge scaling."""
    sub_A = A[:, frontiers]
    full_mass = sub_A.sum(axis=1)        # per-frontier full neighborhood mass
    sample_A = sub_A.individual_sample(K)
    sampled_mass = sample_A.sum(axis=1)  # per-frontier sampled mass
    # Rescale so each frontier's sampled edges sum to its full mass.
    sample_A = sample_A.div(sampled_mass, axis=1).mul(full_mass, axis=1)
    return sample_A, sample_A.row()


@dataclasses.dataclass
class VRGCN(Algorithm):
    """VR-GCN: GraphSAGE's shape with a deliberately small fanout."""

    fanouts: Sequence[int] = (2, 2)

    info = AlgorithmInfo(
        "vrgcn", "node-wise", "uniform", True,
        "Small uniform fanout with variance-reduction scaling",
    )
    layer = staticmethod(vrgcn_layer)
    programs = per_fanout
    superbatch = True
