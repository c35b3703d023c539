"""HetGNN: heterogeneous neighbor sampling via restart walks (Zhang et al., 2019).

Table 2 row: node-wise, uniform, walk-based — "random walks following a
meta-path (with node/edge types) or using restarts, select top-k visited
neighbors".  HetGNN groups the visited nodes of restarting walks *by node
type* and keeps the top-k per type, so every frontier ends up with a
type-balanced neighborhood.

Node types come from the caller (synthetic types by default, since our
stand-in graphs are homogeneous); each edge type could equally be modeled
as its own sparse matrix, which is how gSampler treats heterogeneous
graphs (Section 4.5).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.algorithms import walks
from repro.algorithms.base import Algorithm, AlgorithmInfo, LayeredPipeline
from repro.core.matrix import Matrix
from repro.sparse import INDEX_DTYPE


@dataclasses.dataclass
class HetGNN(Algorithm):
    """HetGNN: a restart-walk hop keeping ``k_per_type`` nodes per type.

    Set ``node_types`` (one type id per node) before ``build`` to use real
    types; by default ids are hashed into ``num_types`` synthetic ones.
    """

    num_types: int = 3
    num_walks: int = 10
    walk_length: int = 3
    restart_prob: float = 0.5
    k_per_type: int = 5
    num_layers: int = 2
    node_types: np.ndarray | None = dataclasses.field(default=None, init=False)

    info = AlgorithmInfo(
        "hetgnn", "node-wise", "uniform", False,
        "Restart walks, top-k visited neighbors per node type",
    )

    def direct(self, graph: Matrix) -> LayeredPipeline:
        node_types = self.node_types
        if node_types is None:
            # Synthetic homogeneous stand-in: hash ids into types.
            node_types = np.arange(graph.shape[0]) % self.num_types
        hop = functools.partial(
            walks.restart_walk_hop,
            graph,
            num_walks=self.num_walks,
            walk_length=self.walk_length,
            restart_prob=self.restart_prob,
            top_k=self.k_per_type,
            node_types=np.asarray(node_types, dtype=INDEX_DTYPE),
        )
        return LayeredPipeline([hop] * self.num_layers)
