"""The Extract-Compute-Select-Finalize (ECSF) programming model.

Section 3 of the paper observes that every graph-sampling algorithm is a
stack of layers, each decomposable into four steps:

1. **Extract** — slice the subgraph between the frontiers and their
   neighbors (``sub_A = A[:, frontiers]``);
2. **Compute** — derive per-edge/per-node sampling bias (may be empty);
3. **Select** — ``individual_sample`` or ``collective_sample``;
4. **Finalize** — adjust the sample (edge re-weighting, subgraph
   induction) and produce the next layer's frontiers.

This module provides the step vocabulary (:mod:`repro.ir.ops` files every
operator a user program can write under one of the four) and the
layer-stacking driver shared by all algorithm implementations.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.matrix import Matrix
from repro.errors import ShapeError
from repro.sparse.formats import sorted_unique


class Step(enum.Enum):
    """The four ECSF steps."""

    EXTRACT = "extract"
    COMPUTE = "compute"
    SELECT = "select"
    FINALIZE = "finalize"


@dataclasses.dataclass
class SampledLayer:
    """One layer of a graph sample.

    ``matrix`` is the sampled bipartite block between ``output_nodes``
    (rows, the newly sampled nodes) and ``input_nodes`` (columns, the
    frontiers that requested them), all in original graph ids.
    """

    matrix: Matrix
    input_nodes: np.ndarray
    output_nodes: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.matrix.nnz


@dataclasses.dataclass
class GraphSample:
    """A complete multi-layer graph sample for one mini-batch.

    ``layers[0]`` is the layer closest to the seeds.  ``all_nodes`` is the
    union of every layer's nodes — what a trainer gathers features for.
    """

    seeds: np.ndarray
    layers: list[SampledLayer]

    @property
    def all_nodes(self) -> np.ndarray:
        parts = [self.seeds]
        for layer in self.layers:
            parts.append(layer.output_nodes)
        return sorted_unique(np.concatenate(parts))

    @property
    def num_edges(self) -> int:
        return sum(layer.num_edges for layer in self.layers)


#: Signature of a one-layer sampler: (A, frontiers, fanout) -> (sample, next).
OneLayerFn = Callable[[Matrix, np.ndarray, int], tuple[Matrix, np.ndarray]]


def run_layers(
    graph: Matrix,
    seeds: np.ndarray,
    fanouts: Sequence[int],
    one_layer: OneLayerFn,
) -> GraphSample:
    """Stack ``one_layer`` over ``fanouts``, threading frontiers through.

    This is the driver every ECSF algorithm shares; only ``one_layer``
    differs between algorithms.  Layers stop early if a frontier set
    becomes empty (all walks hit dead ends).
    """
    frontiers = np.asarray(seeds)
    layers: list[SampledLayer] = []
    for fanout in fanouts:
        if len(frontiers) == 0:
            break
        sample, next_frontiers = one_layer(graph, frontiers, fanout)
        layers.append(
            SampledLayer(
                matrix=sample,
                input_nodes=frontiers,
                output_nodes=next_frontiers,
            )
        )
        frontiers = next_frontiers
    return GraphSample(seeds=np.asarray(seeds), layers=layers)


def minibatches(
    node_ids: np.ndarray,
    batch_size: int,
    *,
    shuffle: bool = True,
    rng: np.random.Generator | None = None,
    drop_last: bool = False,
) -> list[np.ndarray]:
    """Split seed nodes into mini-batches for one epoch."""
    if batch_size < 1:
        raise ShapeError(f"batch size must be >= 1, got {batch_size}")
    node_ids = np.asarray(node_ids)
    if shuffle:
        rng = rng if rng is not None else np.random.default_rng()
        node_ids = rng.permutation(node_ids)
    batches = []
    for start in range(0, len(node_ids), batch_size):
        batch = node_ids[start : start + batch_size]
        if drop_last and len(batch) < batch_size:
            break
        batches.append(batch)
    return batches
