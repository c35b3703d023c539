"""PASS: learnable attention-based neighbor sampling (Yoon et al., KDD 2021).

Table 2 row: node-wise, dynamic bias, fanout 1-per-draw — "sampling bias
of edges are computed using trainable model parameters".  PASS trains
three projection matrices: W1 and W2 map endpoint features into two
attention spaces whose per-edge inner products give two attention scores,
the uniform-normalized adjacency gives a third, and W3 (softmaxed) mixes
the three into the final sampling bias (Figure 3c of the paper).

The per-edge inner products are SDDMM kernels; the three attention
matrices share ``sub_A``'s topology, so gSampler's Edge-Map fusion
collapses the mixing chain into a single kernel (Figure 5b).

PASS updates its parameters *inside* training, so the paper excludes it
from super-batch sampling; we do the same.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.algorithms.base import Algorithm, AlgorithmInfo


def pass_layer(A, frontiers, K, features, W1, W2, W3):
    """Figure 3(c) of the paper, with SDDMM for the edge attention."""
    sub_A = A[:, frontiers]
    B = features                    # features of every candidate row node
    C = features[frontiers]         # features of the frontier columns
    A1 = sub_A.sddmm(B @ W1, C @ W1)
    A2 = sub_A.sddmm(B @ W2, C @ W2)
    A3 = sub_A.div(sub_A.sum(axis=1), axis=1)
    mix = W3.softmax()
    att_A = (A1.scale(mix, 0) + A2.scale(mix, 1) + A3.scale(mix, 2)).relu()
    sample_A = sub_A.individual_sample(K, att_A)
    return sample_A, sample_A.row()


@dataclasses.dataclass
class PASS(Algorithm):
    """PASS: holds the trainable projections ``W1``, ``W2`` and mix ``W3``.

    It updates them with training gradients, so ``superbatch`` stays
    False: the paper excludes such algorithms from super-batching.
    """

    fanout: int = 10
    num_layers: int = 2
    dim: int = 16
    seed: int = 2023
    W1: np.ndarray | None = dataclasses.field(default=None, init=False)
    W2: np.ndarray | None = dataclasses.field(default=None, init=False)
    W3: np.ndarray = dataclasses.field(
        default_factory=lambda: np.zeros(3, dtype=np.float32), init=False
    )

    info = AlgorithmInfo(
        "pass", "node-wise", "dynamic", True,
        "Attention-biased fanout sampling with trainable weights",
    )
    layer = staticmethod(pass_layer)
    tensors = ("W1", "W2", "W3")

    def programs(self) -> tuple[list[dict], int]:
        return [{"K": self.fanout}], self.num_layers

    def init_tensors(self, feature_dim: int) -> None:
        if self.W1 is None or self.W1.shape[0] != feature_dim:
            rng = np.random.default_rng(self.seed)
            scale = 1.0 / np.sqrt(feature_dim)
            self.W1, self.W2 = (
                (rng.standard_normal((feature_dim, self.dim)) * scale).astype(
                    np.float32
                )
                for _ in range(2)
            )

    def apply_gradients(
        self,
        g1: np.ndarray,
        g2: np.ndarray,
        g3: np.ndarray,
        lr: float = 1e-3,
    ) -> None:
        """Trainer hook: REINFORCE-style update of the projections."""
        assert self.W1 is not None and self.W2 is not None
        self.W1 = (self.W1 - lr * g1).astype(np.float32)
        self.W2 = (self.W2 - lr * g2).astype(np.float32)
        self.W3 = (self.W3 - lr * g3).astype(np.float32)
