"""Default task: node classification, bit-identical to the legacy path.

This class exists so the trainer/serve refactor has a seam, not to
change behaviour: ``train_units`` returns the *same* ``train_ids``
array, ``materialize`` passes the mini-batch through untouched (no copy,
no RNG draw), and ``loss_and_metric`` performs exactly the float
operations the pre-task trainer inlined — so losses, accuracies, and
every pinned serve/cluster fingerprint stay bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.ecsf import GraphSample
from repro.datasets import Dataset
from repro.tasks.base import Task, TaskBatch


class NodeClassificationTask(Task):
    """Cross-entropy over class logits at each seed node."""

    name = "node"

    def prepare(self, dataset: Dataset) -> None:
        pass  # everything needed lives on the dataset already

    def train_units(self, dataset: Dataset) -> np.ndarray:
        return dataset.train_ids

    def materialize(
        self, units: np.ndarray, rng: np.random.Generator
    ) -> TaskBatch:
        # Pass-through: seeds ARE the units; sharing the array (no copy)
        # keeps the sampler's input object identical to the legacy path.
        return TaskBatch(nodes=units)

    def output_dim(self, dataset: Dataset) -> int:
        return dataset.num_classes

    # -- serving: a payload is the sorted seed nodes themselves ----------
    def request_units(self, num_nodes, hotness=None, edges=None) -> np.ndarray:
        if hotness is None:
            return np.arange(num_nodes, dtype=np.int64)
        return np.argsort(-hotness.astype(np.float64), kind="stable")

    def request_payload(
        self, units: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return np.sort(units).astype(np.int64)

    def request_seeds(self, payload: np.ndarray) -> tuple[np.ndarray, int]:
        return payload, 0

    def loss_and_metric(
        self,
        model,
        sample: GraphSample,
        features: np.ndarray,
        batch: TaskBatch,
        dataset: Dataset,
    ) -> tuple[float, np.ndarray, float]:
        # Imported here, not at module level: the trainer imports this
        # task while ``repro.learning`` is itself mid-import.
        from repro.learning.nn import accuracy, softmax_cross_entropy

        labels = dataset.labels[sample.seeds]
        logits = model.forward(sample, features)
        loss, grad = softmax_cross_entropy(logits, labels)
        return loss, grad, accuracy(logits, labels)
