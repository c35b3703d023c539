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

import numpy as np

from repro.algorithms.base import (
    DEFAULT_LAYER_WIDTH,
    Algorithm,
    AlgorithmInfo,
    LayeredPipeline,
)
from repro.core.matrix import Matrix
from repro.sampler import OptimizationConfig, compile_sampler


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


class ASGCN(Algorithm):
    """AS-GCN algorithm factory."""

    info = AlgorithmInfo(
        name="asgcn",
        category="layer-wise",
        bias="dynamic",
        fanout_gt_one=True,
        description="Adaptive layer-wise sampling with a learned scorer",
    )

    def __init__(
        self,
        layer_width: int = DEFAULT_LAYER_WIDTH,
        num_layers: int = 3,
        seed: int = 2023,
    ) -> None:
        self.layer_width = layer_width
        self.num_layers = num_layers
        self.seed = seed
        self.w_att: np.ndarray | None = None

    def build(
        self,
        graph: Matrix,
        example_seeds: np.ndarray,
        *,
        features: np.ndarray | None = None,
        config: OptimizationConfig | None = None,
    ) -> LayeredPipeline:
        if features is None:
            raise ValueError("AS-GCN requires node features")
        rng = np.random.default_rng(self.seed)
        if self.w_att is None or self.w_att.shape != (features.shape[1],):
            self.w_att = rng.standard_normal(features.shape[1]).astype(
                np.float32
            ) * 0.1
        sampler = compile_sampler(
            asgcn_layer,
            graph,
            example_seeds,
            constants={"K": self.layer_width},
            tensors={"features": features, "w_att": self.w_att},
            config=config,
        )

        def tensors_fn() -> dict[str, np.ndarray]:
            assert self.w_att is not None
            return {"features": features, "w_att": self.w_att}

        return LayeredPipeline(
            [sampler] * self.num_layers,
            tensors_fn=tensors_fn,
            supports_superbatch=True,
        )

    def apply_gradient(self, grad: np.ndarray, lr: float = 1e-3) -> None:
        """Trainer hook: update the scorer between batches."""
        assert self.w_att is not None
        self.w_att = (self.w_att - lr * grad.astype(np.float32)).astype(np.float32)
