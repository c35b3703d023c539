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

import dataclasses

from repro.algorithms.base import (
    DEFAULT_LAYER_WIDTH,
    Algorithm,
    AlgorithmInfo,
    shared_width,
)


def ladies_layer(A, frontiers, K):
    """Figure 3(b) of the paper (axis conventions per our API docs)."""
    sub_A = A[:, frontiers]
    row_probs = (sub_A ** 2).sum(axis=0)
    sample_A = sub_A.collective_sample(K, row_probs)
    select_probs = row_probs[sample_A.row()]
    sample_A = sample_A.div(select_probs, axis=0)
    sample_A = sample_A.div(sample_A.sum(axis=1), axis=1)
    return sample_A, sample_A.row()


@dataclasses.dataclass
class LADIES(Algorithm):
    """LADIES: one ``layer_width`` program shared by every layer."""

    layer_width: int = DEFAULT_LAYER_WIDTH
    num_layers: int = 3

    info = AlgorithmInfo(
        "ladies", "layer-wise", "dynamic", True,
        "Layer-wise sampling biased by squared edge weights",
    )
    layer = staticmethod(ladies_layer)
    programs = shared_width
    superbatch = True
