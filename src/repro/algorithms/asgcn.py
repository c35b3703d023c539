"""AS-GCN: adaptive layer-wise sampling (Huang et al., NeurIPS 2018).

Table 2 row: layer-wise, dynamic bias — "sampling bias of edges are
computed using a trainable model updated by gradients".  AS-GCN learns a
linear scorer ``g(x) = relu(x @ w_att)`` over node features; a candidate
node's importance combines its learned score with its (weighted)
connectivity to the current frontiers, and sampled layers are debiased by
the selection probability.

The scorer weights are *trainable state*: the pipeline reads them from a
parameter store each batch, so a trainer can update them between batches.
Like PASS, this marks the algorithm model-driven — but since AS-GCN's
update happens between batches (not inside the sample), the paper still
super-batches it; we follow suit.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.algorithms.base import (
    DEFAULT_LAYER_WIDTH,
    Algorithm,
    AlgorithmInfo,
    shared_width,
)


def asgcn_layer(A, frontiers, K, features, w_att):
    """One AS-GCN layer: learned score x connectivity, then debias."""
    sub_A = A[:, frontiers]
    scores = (features @ w_att).relu() + 0.01   # per-node learned importance
    connectivity = sub_A.sum(axis=0)            # candidate-to-frontier mass
    node_probs = connectivity * scores
    sample_A = sub_A.collective_sample(K, node_probs)
    select_probs = node_probs[sample_A.row()]
    sample_A = sample_A.div(select_probs, axis=0)
    return sample_A, sample_A.row()


@dataclasses.dataclass
class ASGCN(Algorithm):
    """AS-GCN: a layer-wise program reading the trainable scorer ``w_att``."""

    layer_width: int = DEFAULT_LAYER_WIDTH
    num_layers: int = 3
    seed: int = 2023
    w_att: np.ndarray | None = dataclasses.field(default=None, init=False)

    info = AlgorithmInfo(
        "asgcn", "layer-wise", "dynamic", True,
        "Adaptive layer-wise sampling with a learned scorer",
    )
    layer = staticmethod(asgcn_layer)
    programs = shared_width
    tensors = ("w_att",)
    superbatch = True

    def init_tensors(self, feature_dim: int) -> None:
        if self.w_att is None or self.w_att.shape != (feature_dim,):
            rng = np.random.default_rng(self.seed)
            self.w_att = rng.standard_normal(feature_dim).astype(np.float32) * 0.1

    def apply_gradient(self, grad: np.ndarray, lr: float = 1e-3) -> None:
        """Trainer hook: update the scorer between batches."""
        assert self.w_att is not None
        self.w_att = (self.w_att - lr * grad.astype(np.float32)).astype(np.float32)
