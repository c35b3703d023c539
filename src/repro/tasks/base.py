"""Task abstraction: what a workload *is*, decoupled from how it samples.

Every layer of the stack historically assumed node classification over
node-id seeds.  A :class:`Task` owns the three places that assumption
leaked:

* **seed generation** — which ids an epoch iterates (node ids for
  classification, positive-edge ids for link prediction) and how a
  mini-batch of them becomes sampler seeds;
* **minibatch materialization** — graphbolt-style
  :func:`unique_and_compact_node_pairs` compaction from raw node pairs
  to a unique seed set plus local-index pairs;
* **model head + loss** — softmax cross-entropy over class logits
  versus binary scoring of compacted node pairs.

The trainer, pipelined executor, and serving replica all consume this
protocol; the default :class:`~repro.tasks.NodeClassificationTask`
reproduces the historical behaviour bit-for-bit (same arrays, same
float ops, zero extra RNG draws), so every pinned fingerprint holds.
"""

from __future__ import annotations

import abc
import dataclasses

import numpy as np

from repro.core.ecsf import GraphSample
from repro.datasets import Dataset
from repro.sparse.formats import sorted_unique


@dataclasses.dataclass(frozen=True)
class TaskBatch:
    """One materialized mini-batch in task-defined units.

    ``nodes`` is what the sampling pipeline seeds from: unique int64
    node ids.  For pair tasks, ``pos_pairs`` / ``neg_pairs`` are
    ``(P, 2)`` arrays of *local* indices into ``nodes`` (the compacted
    id space), so the model head never touches global ids.
    """

    nodes: np.ndarray
    pos_pairs: np.ndarray | None = None
    neg_pairs: np.ndarray | None = None

    @property
    def num_pairs(self) -> int:
        pos = 0 if self.pos_pairs is None else len(self.pos_pairs)
        neg = 0 if self.neg_pairs is None else len(self.neg_pairs)
        return pos + neg


def unique_and_compact_node_pairs(
    pos_pairs: np.ndarray,
    neg_pairs: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Compact raw node pairs to a unique seed set plus local indices.

    Mirrors graphbolt's ``unique_and_compact_node_pairs``: the union of
    all endpoint ids becomes the (sorted, unique, int64) seed array, and
    each pair is rewritten to positions within it.  Round-trip contract:
    ``seeds[compacted] == original`` for both pair sets.
    """
    pos_pairs = np.asarray(pos_pairs, dtype=np.int64).reshape(-1, 2)
    endpoints = [pos_pairs.ravel()]
    if neg_pairs is not None:
        neg_pairs = np.asarray(neg_pairs, dtype=np.int64).reshape(-1, 2)
        endpoints.append(neg_pairs.ravel())
    seeds = sorted_unique(np.concatenate(endpoints))
    compacted_pos = np.searchsorted(seeds, pos_pairs)
    compacted_neg = (
        None if neg_pairs is None else np.searchsorted(seeds, neg_pairs)
    )
    return seeds, compacted_pos, compacted_neg


class Task(abc.ABC):
    """Workload protocol threaded through training, pipeline, and serve."""

    #: Registry name; also the ``--task`` CLI value and ``WorkloadSpec.task``.
    name: str = ""

    @abc.abstractmethod
    def prepare(self, dataset: Dataset) -> None:
        """Bind task state derived from the dataset (edge sets, caches)."""

    @abc.abstractmethod
    def train_units(self, dataset: Dataset) -> np.ndarray:
        """Ids an epoch iterates (node ids, positive-edge ids, ...)."""

    @abc.abstractmethod
    def materialize(
        self, units: np.ndarray, rng: np.random.Generator
    ) -> TaskBatch:
        """Turn one mini-batch of train units into sampler seeds."""

    @abc.abstractmethod
    def output_dim(self, dataset: Dataset) -> int:
        """Width of the model's final layer for this task."""

    @abc.abstractmethod
    def loss_and_metric(
        self,
        model,
        sample: GraphSample,
        features: np.ndarray,
        batch: TaskBatch,
        dataset: Dataset,
    ) -> tuple[float, np.ndarray, float]:
        """Forward + loss; returns ``(loss, grad_wrt_logits, metric)``.

        The caller owns ``zero_grad``/``backward``/``step`` so optimizer
        mechanics stay task-agnostic.
        """

    # ------------------------------------------------------------------
    def verify_check(self, *, trials: int = 200, alpha: float = 0.01,
                     seed: int = 0):
        """Oracle hook: the statistical check guarding this task's path.

        Node classification is covered by the per-algorithm equivalence
        sweep; pair tasks override this with their bespoke check.
        """
        from repro.verify import verify_algorithm

        return verify_algorithm(
            "graphsage", trials=trials, alpha=alpha, seed=seed
        )
