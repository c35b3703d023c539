"""End-to-end training loop: sampling + GNN training under one schedule.

Reproduces the measurement protocol behind Table 1 (fraction of training
time spent sampling) and Table 8 (end-to-end time and accuracy): every
mini-batch is sampled by a pipeline (its kernels land on the sampling
context), features for the sampled nodes are gathered (a memory-traffic
launch), and the model's forward/backward are charged as dense-compute
launches sized by their true FLOP counts.  Accuracy is real — the model
actually trains on the synthetic labels.

:class:`Trainer`'s one epoch loop schedules every batch on the
``sample`` / ``transfer`` / ``compute`` queues and charges each gather
and compute launch to two training contexts (ledgers): an uncached one
and the configured feature store's.  :meth:`Trainer.train` reads the run
on both clocks — the serial one (summed busy time, uncached ledger) and
the pipelined one (the overlap's makespan, the store's ledger).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.algorithms.base import Pipeline
from repro.cache import CacheStats, FeatureSource, plan_gather
from repro.core import GraphSample, minibatches, new_rng
from repro.datasets import Dataset
from repro.device import DeviceSpec, ExecutionContext
from repro.errors import check_count, check_real
from repro.learning.models import SampledGNN
from repro.learning.nn import SGD
from repro.profile.spans import Profiler, maybe_span
from repro.tasks import NodeClassificationTask, Task, TaskBatch

#: How many batches the sampler may run ahead of the trainer; 2 is the
#: classic double-buffering depth (one batch in flight per stage).
DEFAULT_PREFETCH_DEPTH = 2


def check_run_shape(
    *,
    epochs: int = 1,
    batch_size: int = 1,
    max_batches: int | None = None,
    prefetch_depth: int = 1,
    seed: int = 0,
    lr: float = 1.0,
) -> None:
    """Refuse a run shape no epoch can honour with a ``ShapeError``.

    A knob the caller leaves out takes a value that passes;
    ``max_batches=None`` means every batch.
    """
    check_count("epochs", epochs)
    check_count("batch size", batch_size)
    if max_batches is not None:
        check_count("max batches", max_batches)
    check_count("prefetch depth", prefetch_depth)
    check_count("seed", seed, low=0)
    check_real("learning rate", lr, "(0, inf)")


@dataclasses.dataclass(frozen=True)
class QueueReport:
    """One queue's timeline summary for an epoch run."""

    queue: str
    device: str
    busy_seconds: float
    end_seconds: float
    launches: int


@dataclasses.dataclass
class TrainResult:
    """Outcome of a training run with the paper's cost split.

    ``sampling_seconds`` / ``training_seconds`` are the busy (occupied)
    seconds of the sampling and training contexts; ``total_seconds`` is
    the clock that read the run — their sum on the serial clock, the
    overlap makespan on the pipelined one, where the surplus *is* the
    overlap win.
    """

    epochs: int
    final_accuracy: float
    final_loss: float
    total_seconds: float
    sampling_seconds: float
    training_seconds: float
    accuracy_history: list[float]
    queue_reports: list[QueueReport] = dataclasses.field(default_factory=list)
    cache_stats: CacheStats | None = None

    @property
    def sampling_fraction(self) -> float:
        """Table 1's metric: share of end-to-end time spent sampling."""
        if self.total_seconds == 0:
            return 0.0
        return self.sampling_seconds / self.total_seconds

    @property
    def serialized_seconds(self) -> float:
        """What the queued work would cost with no overlap at all."""
        return sum(r.busy_seconds for r in self.queue_reports)


class Trainer:
    """Mini-batch trainer wiring a sampling pipeline to a sampled GNN.

    features:
        The feature table as the training device reaches it; ``None``
        (the default) is the uncached source, every row over PCIe.  Its
        pinned bytes are charged to the training context's memory pool.
    prefetch_depth:
        Staging-buffer bound: sampling of batch ``i`` may not start
        before compute of batch ``i - prefetch_depth`` finished.  Must
        be at least 1; 2 (the default) gives classic double buffering.
    prefetch:
        When True (the default), batch ``i+1``'s feature fetch overlaps
        batch ``i``'s compute — the async-prefetch loader.  False models
        a synchronous loader: a batch's fetch may not start until the
        previous batch's compute finished, which serializes the miss
        traffic the tiered store's overlap would otherwise hide.
    """

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
        features: FeatureSource | None = None,
        prefetch_depth: int = DEFAULT_PREFETCH_DEPTH,
        prefetch: bool = True,
    ) -> None:
        check_run_shape(
            batch_size=batch_size, prefetch_depth=prefetch_depth, seed=seed,
            lr=lr,
        )
        self.pipeline = pipeline
        self.model = model
        self.dataset = dataset
        if features is None:
            features = FeatureSource(dataset, cache_ratio=0.0)
        self.features = features
        #: Device running the *sampling* kernels. Training compute runs on
        #: ``train_device`` (default: same device) — the paper's CPU rows
        #: sample on the CPU but still train on the GPU.
        self.device = device
        self.train_device = train_device if train_device is not None else device
        self.batch_size = batch_size
        self.prefetch_depth = prefetch_depth
        self.prefetch = prefetch
        self.optimizer = SGD(model.parameters(), lr=lr)
        self.rng = new_rng(seed)
        #: Workload definition: what an epoch iterates, how a mini-batch
        #: becomes sampler seeds, and which head/loss trains on it.  The
        #: default reproduces the historical node-classification path
        #: bit-for-bit (same arrays, zero extra RNG draws).
        self.task = task if task is not None else NodeClassificationTask()
        self.task.prepare(dataset)

    # ------------------------------------------------------------------
    def _compute_batch(
        self, sample: GraphSample, batch: TaskBatch
    ) -> tuple[float, float, dict[str, float]]:
        """Forward/backward/step for one batch; returns loss, metric and
        the ``train_fwd_bwd`` launch's dense-compute cost.

        The task owns forward + loss (returning the gradient w.r.t. the
        model's outputs); optimizer mechanics stay here so they're
        task-agnostic.
        """
        feats = self.dataset.features
        row_bytes = self.features.row_bytes
        gathered = len(sample.all_nodes)
        loss, grad, metric = self.task.loss_and_metric(
            self.model, sample, feats, batch, self.dataset
        )
        self.model.zero_grad()
        self.model.backward(grad)
        self.optimizer.step()
        cost = dict(
            flops=self.model.flops_per_sample(sample, feats.shape[1]),
            bytes_read=gathered * row_bytes * 3,
            bytes_written=gathered * row_bytes,
            tasks=max(gathered, 1),
        )
        return loss, metric, cost

    def _train_context(self, features: FeatureSource) -> ExecutionContext:
        """A training context charging its gathers through ``features``.

        Compute launches declare no graph_bytes, so where the source
        places the feature table never changes their pricing.
        """
        return ExecutionContext(
            self.train_device,
            graph_on_device=features.table_on_device(
                self.dataset.graph_on_device
            ),
            memory=features.pool,
        )

    def _run(
        self,
        epochs: int,
        max_batches_per_epoch: int | None,
        profiler: Profiler | None,
    ) -> tuple[TrainResult, TrainResult]:
        """The one epoch loop; returns its ``(serial, pipelined)`` readings.

        Batch ``i``'s transfer waits on its sampling, its compute on its
        transfer, and sampling runs at most ``prefetch_depth`` batches
        ahead of compute.  Python runs serially under any schedule.

        Every gather and ``train_fwd_bwd`` launch is charged to two
        training contexts: the configured source's, whose schedule drives
        the loop and which the profiler sees, and an uncached one.
        ``ExecutionContext.record`` prices a launch without regard to its
        start, so the serial reading equals an uncached run's in every
        field but its queues' ``end_seconds``, which follow this run's
        schedule (nothing reads them).
        """
        features = self.features
        features.reset_stats()  # the source outlives a run; its tally does not
        uncached = FeatureSource(self.dataset, cache_ratio=0.0)
        sample_ctx = ExecutionContext(
            self.device, graph_on_device=self.dataset.graph_on_device
        )
        ledgers = [
            (source, self._train_context(source))
            for source in (features, uncached)
        ]
        (_, train_ctx), (_, serial_ctx) = ledgers
        if profiler is not None:
            profiler.attach(sample_ctx)
            train_ctx.profiler = profiler
        span = functools.partial(maybe_span, profiler)

        acc_history: list[float] = []
        last_loss = float("nan")
        units = self.task.train_units(self.dataset)
        for epoch in range(epochs):
            batches = minibatches(
                units, self.batch_size, shuffle=True, rng=self.rng
            )
            if max_batches_per_epoch is not None:
                batches = batches[:max_batches_per_epoch]
            epoch_acc: list[float] = []
            # Completion time of each batch's compute; the prefetch
            # window looks back ``prefetch_depth`` entries.
            compute_done: list[float] = []
            with span("epoch", "epoch", index=epoch, pipelined=True):
                for i, batch in enumerate(batches):
                    slot_free = (
                        compute_done[i - self.prefetch_depth]
                        if i >= self.prefetch_depth
                        else 0.0
                    )
                    with span(f"batch[{i}]", "batch", size=len(batch)):
                        task_batch = self.task.materialize(batch, self.rng)
                        with sample_ctx.on_queue("sample", not_before=slot_free):
                            sample = self.pipeline.sample_batch(
                                task_batch.nodes, ctx=sample_ctx, rng=self.rng
                            )
                        # A synchronous loader cannot start a batch's
                        # fetch until the previous compute finished; the
                        # async-prefetch default starts it the moment
                        # sampling lands.
                        fetch_after = sample_ctx.queue("sample").ready
                        if not self.prefetch and compute_done:
                            fetch_after = max(fetch_after, compute_done[-1])
                        landed = [
                            source.charge(
                                ctx,
                                plan_gather(sample.all_nodes, source.store),
                                not_before=fetch_after,
                            )
                            for source, ctx in ledgers
                        ]
                        loss, acc, cost = self._compute_batch(
                            sample, task_batch
                        )
                        for (_, ctx), transferred_at in zip(ledgers, landed):
                            with ctx.on_queue(
                                "compute", not_before=transferred_at
                            ):
                                ctx.record("train_fwd_bwd", **cost)
                        compute_done.append(train_ctx.queue("compute").ready)
                    last_loss = loss
                    epoch_acc.append(acc)
                if (attrs := features.epoch_attrs()) is not None:
                    with span(f"cache[{epoch}]", "cache", **attrs):
                        pass
            acc_history.append(float(np.mean(epoch_acc)) if epoch_acc else 0.0)

        def result(
            source: FeatureSource, ctx: ExecutionContext, total: float
        ) -> TrainResult:
            return TrainResult(
                epochs=epochs,
                final_accuracy=acc_history[-1] if acc_history else 0.0,
                final_loss=last_loss,
                total_seconds=total,
                sampling_seconds=sample_ctx.busy_seconds,
                training_seconds=ctx.busy_seconds,
                accuracy_history=list(acc_history),
                queue_reports=[
                    QueueReport(
                        queue=q.name,
                        device=c.device.name,
                        busy_seconds=q.busy_seconds,
                        end_seconds=q.ready,
                        launches=q.launches,
                    )
                    for c in (sample_ctx, ctx)
                    for q in c.queue_stats().values()
                ],
                cache_stats=source.stats(),
            )

        # A launch outside every named queue starts at its context's
        # makespan, so the pipelined clock is ``elapsed``, not a queue end.
        serial = result(
            uncached, serial_ctx,
            sample_ctx.busy_seconds + serial_ctx.busy_seconds,
        )
        pipelined = result(
            features, train_ctx, max(sample_ctx.elapsed, train_ctx.elapsed)
        )
        return serial, pipelined

    def train(
        self,
        epochs: int,
        *,
        max_batches_per_epoch: int | None = None,
        profiler: Profiler | None = None,
    ) -> tuple[TrainResult, TrainResult]:
        """Train ``epochs`` epochs once; return ``(serial, pipelined)``.

        The serial reading sums both contexts' busy time over the
        uncached ledger (Table 1's clock); the pipelined one is the
        overlap's makespan over the configured store's ledger.  The
        profiler sees the pipelined ledger.
        """
        check_run_shape(epochs=epochs, max_batches=max_batches_per_epoch)
        return self._run(epochs, max_batches_per_epoch, profiler)
