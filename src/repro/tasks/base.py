"""Task abstraction: what a workload *is*, decoupled from how it samples.

Every layer of the stack historically assumed node classification over
node-id seeds.  A :class:`Task` owns the four places that assumption
leaked:

* **seed generation** — which ids an epoch iterates (node ids for
  classification, positive-edge ids for link prediction) and how a
  mini-batch of them becomes sampler seeds;
* **minibatch materialization** — graphbolt-style
  :func:`unique_and_compact_node_pairs` compaction from raw node pairs
  to a unique seed set plus local-index pairs;
* **model head + loss** — softmax cross-entropy over class logits
  versus binary scoring of compacted node pairs;
* **request payloads** — what the units an online request draws *are*
  (nodes, or positive edges plus forged negatives), what it ships, and
  which sampler seeds a replica makes of it (the ``request_*`` hooks).

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

    #: Registry name; also the ``--task`` CLI value and the serving
    #: session's ``task=``.
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
    # Serving: what a request's payload means
    # ------------------------------------------------------------------
    def request_edges(self, graph) -> tuple[np.ndarray, np.ndarray] | None:
        """``(src, dst)`` arrays :meth:`request_units` ranks; ``None``
        when requests draw nodes."""
        return None

    @abc.abstractmethod
    def request_units(
        self,
        num_nodes: int,
        hotness: np.ndarray | None = None,
        edges: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Bind the served graph; every unit id a request may draw,
        hottest first (ties toward lower ids)."""

    @abc.abstractmethod
    def request_payload(
        self, units: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """The int64 payload a request drawing ``units`` ships."""

    @abc.abstractmethod
    def request_seeds(self, payload: np.ndarray) -> tuple[np.ndarray, int]:
        """Sampler seeds of one payload (or several, concatenated), and
        the candidate pairs it asks to have scored (0 for node tasks)."""
