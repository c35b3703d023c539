"""Bandit-driven neighbor sampling: GCN-BS and Thanos.

Table 2 rows: node-wise, dynamic bias — "sampling bias of edges are
updated with reward computed by bandit solvers".  Both algorithms keep a
per-edge weight table; each batch samples neighbors proportionally to the
current weights, training computes a reward per used edge (how much that
neighbor reduced the aggregation variance), and a bandit update adjusts
the weights:

* **GCN-BS** uses a UCB-style additive update,
* **Thanos** uses an EXP3-style multiplicative update.

The shared machinery lives in :class:`BanditPipeline`; the two algorithms
differ only in their ``update`` rule.  Because the weight table changes
between batches, these algorithms are excluded from super-batching.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.algorithms.base import Algorithm, AlgorithmInfo, LayeredPipeline
from repro.core import GraphSample
from repro.core.matrix import Matrix
from repro.device import ExecutionContext
from repro.errors import GSamplerError, ShapeError


def _ucb(weights: np.ndarray, eids: np.ndarray, step: np.ndarray) -> None:
    """GCN-BS: additive update toward high-reward arms."""
    np.add.at(weights, eids, step)
    np.clip(weights, 1e-6, None, out=weights)


def _exp3(weights: np.ndarray, eids: np.ndarray, step: np.ndarray) -> None:
    """Thanos: multiplicative-weights (EXP3) update."""
    np.multiply.at(weights, eids, np.exp(np.clip(step, -5.0, 5.0)))
    np.clip(weights, 1e-6, 1e6, out=weights)


UPDATE_RULES = {"ucb": _ucb, "exp3": _exp3}


class BanditPipeline(LayeredPipeline):
    """Weight-table-driven fanout sampling with a pluggable update rule."""

    def __init__(
        self,
        graph: Matrix,
        fanouts: tuple[int, ...],
        update_rule: str,
        *,
        lr: float = 0.1,
    ) -> None:
        if update_rule not in UPDATE_RULES:
            raise GSamplerError(
                f"unknown bandit rule {update_rule!r}; available: {sorted(UPDATE_RULES)}"
            )
        super().__init__([functools.partial(self.hop, k) for k in fanouts])
        self.graph = graph
        self.fanouts = fanouts
        self.update_rule = update_rule
        self.lr = lr
        #: The bandit state: one positive weight per graph edge.
        self.edge_weights = np.ones(graph.nnz, dtype=np.float64)

    def hop(
        self,
        k: int,
        frontiers: np.ndarray,
        ctx: ExecutionContext,
        rng: np.random.Generator,
    ) -> tuple[Matrix, np.ndarray]:
        """Slice the frontiers' columns, sample ``k`` by current weight."""
        base = Matrix(self.graph.any_storage(), ctx=ctx, is_base_graph=True)
        sub = base.slice_cols(frontiers)
        sampled = sub.individual_sample(
            k, self.edge_weights[sub.edge_ids()], rng=rng
        )
        # ``row()`` is charged twice per layer, as it always was here (the
        # layer's output nodes and the next frontiers were two calls);
        # dropping the first moves both bandit ledgers, so it waits for a
        # PR that re-pins.
        sampled.row()
        return sampled, sampled.row()

    def apply_rewards(
        self, sample: GraphSample, rewards_per_layer: list[np.ndarray]
    ) -> None:
        """Bandit update: adjust the used edges' weights by their reward."""
        edge_ids = [layer.matrix.edge_ids() for layer in sample.layers]
        if [len(r) for r in rewards_per_layer] != [len(e) for e in edge_ids]:
            raise ShapeError(
                f"rewards lengths {[len(r) for r in rewards_per_layer]} != "
                f"sampled edges per layer {[len(e) for e in edge_ids]}"
            )
        for eids, rewards in zip(edge_ids, rewards_per_layer):
            UPDATE_RULES[self.update_rule](self.edge_weights, eids, self.lr * rewards)


@dataclasses.dataclass
class GCNBS(Algorithm):
    """GCN-BS: bandit sampling with UCB-style additive updates."""

    fanouts: tuple[int, ...] = (5, 10)

    info = AlgorithmInfo(
        "gcn_bs", "node-wise", "dynamic", True,
        "Bandit fanout sampling, additive (UCB) weight updates",
    )
    update_rule = "ucb"

    def direct(self, graph: Matrix) -> BanditPipeline:
        return BanditPipeline(graph, self.fanouts, self.update_rule)


@dataclasses.dataclass
class Thanos(GCNBS):
    """Thanos: bandit sampling with EXP3-style multiplicative updates."""

    info = AlgorithmInfo(
        "thanos", "node-wise", "dynamic", True,
        "Bandit fanout sampling, multiplicative (EXP3) updates",
    )
    update_rule = "exp3"
