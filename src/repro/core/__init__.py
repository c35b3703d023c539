"""Core of the reproduction: the matrix-centric API and ECSF model."""

from repro.core.ecsf import (
    GraphSample,
    SampledLayer,
    Step,
    minibatches,
)
from repro.core.hetero import HeteroGraph, hetero_from_typed_edges
from repro.core.matrix import Matrix, from_edges
from repro.core.ppr import global_pagerank, push_ppr, topk_ppr_neighbors
from repro.core.random import new_rng
from repro.core.sampling import (
    CollectiveResult,
    collective_sample,
    fused_extract_individual_sample,
    individual_sample,
    uniform_walk_step,
)

__all__ = [
    "CollectiveResult",
    "GraphSample",
    "HeteroGraph",
    "Matrix",
    "SampledLayer",
    "Step",
    "collective_sample",
    "from_edges",
    "global_pagerank",
    "fused_extract_individual_sample",
    "hetero_from_typed_edges",
    "individual_sample",
    "minibatches",
    "new_rng",
    "push_ppr",
    "topk_ppr_neighbors",
    "uniform_walk_step",
]
