"""End-to-end training loop: sampling + GNN training under one clock.

Reproduces the measurement protocol behind Table 1 (fraction of training
time spent sampling) and Table 8 (end-to-end time and accuracy): every
mini-batch is sampled by a pipeline (its kernels land on the shared
execution context), features for the sampled nodes are gathered (a
memory-traffic launch), and the model's forward/backward are charged as
dense-compute launches sized by their true FLOP counts.  Accuracy is
real — the model actually trains on the synthetic labels.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.algorithms.base import Pipeline
from repro.cache.gather import plan_gather, record_gather
from repro.core import GraphSample, minibatches, new_rng
from repro.datasets import Dataset
from repro.device import DeviceSpec, ExecutionContext
from repro.learning.models import SampledGNN
from repro.learning.nn import SGD
from repro.tasks import NodeClassificationTask, Task, TaskBatch


@dataclasses.dataclass
class TrainResult:
    """Outcome of a training run with the paper's cost split."""

    epochs: int
    final_accuracy: float
    final_loss: float
    total_seconds: float
    sampling_seconds: float
    training_seconds: float
    accuracy_history: list[float]

    @property
    def sampling_fraction(self) -> float:
        """Table 1's metric: share of end-to-end time spent sampling."""
        if self.total_seconds == 0:
            return 0.0
        return self.sampling_seconds / self.total_seconds


class Trainer:
    """Mini-batch trainer wiring a sampling pipeline to a sampled GNN."""

    def __init__(
        self,
        pipeline: Pipeline,
        model: SampledGNN,
        dataset: Dataset,
        *,
        device: DeviceSpec,
        train_device: DeviceSpec | None = None,
        batch_size: int = 1024,
        lr: float = 0.05,
        seed: int = 0,
        task: Task | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.model = model
        self.dataset = dataset
        #: Bytes of one feature row, the unit every gather is charged in.
        feats = dataset.features
        self.row_bytes = feats.shape[1] * feats.dtype.itemsize
        #: Device running the *sampling* kernels. Training compute runs on
        #: ``train_device`` (default: same device) — the paper's CPU rows
        #: sample on the CPU but still train on the GPU.
        self.device = device
        self.train_device = train_device if train_device is not None else device
        self.batch_size = batch_size
        self.optimizer = SGD(model.parameters(), lr=lr)
        self.rng = new_rng(seed)
        #: Workload definition: what an epoch iterates, how a mini-batch
        #: becomes sampler seeds, and which head/loss trains on it.  The
        #: default reproduces the historical node-classification path
        #: bit-for-bit (same arrays, zero extra RNG draws).
        self.task = task if task is not None else NodeClassificationTask()
        self.task.prepare(dataset)

    # ------------------------------------------------------------------
    def _gather_features(
        self,
        sample: GraphSample,
        train_ctx: ExecutionContext,
        cache=None,
    ) -> None:
        """Charge the feature-gather transfer for one sampled batch.

        Memory traffic is proportional to the gathered rows, over PCIe
        when features live on the host.  With a
        :class:`~repro.cache.FeatureCache`, cached rows are served from
        device memory and only the misses cross PCIe — the numeric
        feature values are unchanged either way, so cached and uncached
        runs train identically.
        """
        plan = plan_gather(sample.all_nodes, cache)
        record_gather(train_ctx, plan, self.row_bytes)

    def _compute_batch(
        self,
        sample: GraphSample,
        train_ctx: ExecutionContext,
        batch: TaskBatch | None = None,
    ) -> tuple[float, float]:
        """Forward/backward/step for one batch, charged as dense compute.

        The task owns forward + loss (returning the gradient w.r.t. the
        model's outputs); optimizer mechanics stay here so they're
        task-agnostic.
        """
        feats = self.dataset.features
        gathered = len(sample.all_nodes)
        if batch is None:
            batch = TaskBatch(nodes=sample.seeds)
        loss, grad, metric = self.task.loss_and_metric(
            self.model, sample, feats, batch, self.dataset
        )
        self.model.zero_grad()
        self.model.backward(grad)
        self.optimizer.step()
        train_ctx.record(
            "train_fwd_bwd",
            flops=self.model.flops_per_sample(sample, feats.shape[1]),
            bytes_read=gathered * self.row_bytes * 3,
            bytes_written=gathered * self.row_bytes,
            tasks=max(gathered, 1),
        )
        return loss, metric

    def _train_batch(
        self,
        sample: GraphSample,
        train_ctx: ExecutionContext,
        batch: TaskBatch | None = None,
    ) -> tuple[float, float]:
        self._gather_features(sample, train_ctx)
        return self._compute_batch(sample, train_ctx, batch)

    # ------------------------------------------------------------------
    def train(
        self,
        epochs: int,
        *,
        max_batches_per_epoch: int | None = None,
    ) -> TrainResult:
        sample_ctx = ExecutionContext(
            self.device, graph_on_device=self.dataset.graph_on_device
        )
        train_ctx = ExecutionContext(
            self.train_device, graph_on_device=self.dataset.graph_on_device
        )
        acc_history: list[float] = []
        last_loss = float("nan")
        units = self.task.train_units(self.dataset)
        for _ in range(epochs):
            batches = minibatches(
                units, self.batch_size, shuffle=True, rng=self.rng
            )
            if max_batches_per_epoch is not None:
                batches = batches[:max_batches_per_epoch]
            epoch_acc: list[float] = []
            for batch in batches:
                task_batch = self.task.materialize(batch, self.rng)
                sample = self.pipeline.sample_batch(
                    task_batch.nodes, ctx=sample_ctx, rng=self.rng
                )
                loss, acc = self._train_batch(sample, train_ctx, task_batch)
                last_loss = loss
                epoch_acc.append(acc)
            acc_history.append(float(np.mean(epoch_acc)) if epoch_acc else 0.0)
        sampling = sample_ctx.elapsed
        training = train_ctx.elapsed
        return TrainResult(
            epochs=epochs,
            final_accuracy=acc_history[-1] if acc_history else 0.0,
            final_loss=last_loss,
            total_seconds=sampling + training,
            sampling_seconds=sampling,
            training_seconds=training,
            accuracy_history=acc_history,
        )
