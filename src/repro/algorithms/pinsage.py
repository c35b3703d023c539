"""PinSAGE: importance-based neighborhoods via random walks (Ying et al., 2018).

Table 2 row: node-wise, uniform walks with restarts — "random walks ...
using restarts, select top-k visited neighbors as sampled nodes".  Each
frontier launches short restarting walks; the most-visited nodes become
its neighborhood, with visit counts as importance weights (PinSAGE's
importance pooling).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.algorithms import walks
from repro.algorithms.base import Algorithm, AlgorithmInfo, LayeredPipeline
from repro.core.matrix import Matrix
from repro.device import ExecutionContext


@dataclasses.dataclass
class PinSAGE(Algorithm):
    """PinSAGE: a restart-walk hop keeping the ``top_t`` visited nodes."""

    num_walks: int = 10
    walk_length: int = 3
    restart_prob: float = 0.5
    top_t: int = 10
    num_layers: int = 2

    info = AlgorithmInfo(
        "pinsage", "node-wise", "uniform", False,
        "Restart walks, top-T visited nodes as neighbors",
    )

    def hop(
        self,
        graph: Matrix,
        frontiers: np.ndarray,
        ctx: ExecutionContext,
        rng: np.random.Generator,
    ) -> tuple[Matrix, np.ndarray]:
        """Visit counts become importance weights, normalized per frontier."""
        matrix, nxt = walks.restart_walk_hop(
            graph,
            frontiers,
            ctx,
            rng,
            num_walks=self.num_walks,
            walk_length=self.walk_length,
            restart_prob=self.restart_prob,
            top_k=self.top_t,
        )
        return matrix.div(matrix.sum(axis=1), axis=1), nxt

    def direct(self, graph: Matrix) -> LayeredPipeline:
        return LayeredPipeline([functools.partial(self.hop, graph)] * self.num_layers)
