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
per-layer sample records; the layer-stacking driver every algorithm
shares is :class:`repro.algorithms.base.LayeredPipeline`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING

import numpy as np

from repro.core.matrix import Matrix
from repro.errors import check_count
from repro.sparse.formats import sorted_unique

if TYPE_CHECKING:
    from repro.ir.superbatch_ops import SplitPiece


class Step(enum.Enum):
    """The four ECSF steps."""

    EXTRACT = "extract"
    COMPUTE = "compute"
    SELECT = "select"
    FINALIZE = "finalize"


class SampledLayer:
    """One layer of a graph sample.

    ``matrix`` is the sampled bipartite block between ``output_nodes``
    (rows, the newly sampled nodes) and ``input_nodes`` (columns, the
    frontiers that requested them), all in original graph ids.  It may be
    handed in unbuilt, as a super-batch piece
    (:class:`~repro.ir.superbatch_ops.SplitPiece`): the piece is resolved
    on the first read of ``matrix``, so code that reads only the node sets
    never builds it.
    """

    def __init__(
        self,
        matrix: "Matrix | SplitPiece",
        input_nodes: np.ndarray,
        output_nodes: np.ndarray,
    ) -> None:
        self._matrix = matrix
        self.input_nodes = input_nodes
        self.output_nodes = output_nodes

    @property
    def matrix(self) -> Matrix:
        if not isinstance(self._matrix, Matrix):
            self._matrix = self._matrix.matrix
        return self._matrix

    @property
    def num_edges(self) -> int:
        return self._matrix.nnz


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


def minibatches(
    node_ids: np.ndarray,
    batch_size: int,
    *,
    shuffle: bool = True,
    rng: np.random.Generator | None = None,
    drop_last: bool = False,
) -> list[np.ndarray]:
    """Split seed nodes into mini-batches for one epoch."""
    check_count("batch size", batch_size)
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
