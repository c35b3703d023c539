"""FastGCN: degree-based layer-wise importance sampling (Chen et al., 2018).

Table 2 row: layer-wise, *static* bias — "the sampling bias of a node is
its degree".  FastGCN's importance distribution is q(u) ∝ ||A[:, u]||²,
which for an unweighted graph is the squared degree; because it does not
depend on the frontiers, gSampler's pre-processing pass hoists the whole
bias computation out of the per-batch program (Section 4.2, case 1).

The sampled layer is debiased like LADIES: edge weights are divided by
the selected nodes' bias so the layer estimator stays unbiased.
"""

from __future__ import annotations

import dataclasses

from repro.algorithms.base import (
    DEFAULT_LAYER_WIDTH,
    Algorithm,
    AlgorithmInfo,
    shared_width,
)


def fastgcn_layer(A, frontiers, K):
    """One FastGCN layer: static degree² bias, collective sample, debias."""
    sub_A = A[:, frontiers]
    degree = A.sum(axis=0)          # frontier-invariant: hoisted at compile
    node_probs = degree * degree
    sample_A = sub_A.collective_sample(K, node_probs)
    select_probs = node_probs[sample_A.row()]
    sample_A = sample_A.div(select_probs, axis=0)
    return sample_A, sample_A.row()


@dataclasses.dataclass
class FastGCN(Algorithm):
    """FastGCN: LADIES's shape with a frontier-invariant bias."""

    layer_width: int = DEFAULT_LAYER_WIDTH
    num_layers: int = 3

    info = AlgorithmInfo(
        "fastgcn", "layer-wise", "static", True,
        "Layer-wise sampling biased by node degree",
    )
    layer = staticmethod(fastgcn_layer)
    programs = shared_width
    superbatch = True
