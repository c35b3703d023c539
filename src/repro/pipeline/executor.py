"""The pipelined epoch executor and its serial-vs-pipelined harness.

:class:`PipelinedTrainer` schedules every training epoch across three
simulated device queues:

* ``sample``   — the sampling pipeline's kernels (on the sampling device);
* ``transfer`` — per-batch feature gathers, PCIe-bound for host-resident
  features, with a :class:`~repro.cache.FeatureSource` short-circuiting
  hot rows to device memory;
* ``compute``  — the model's forward/backward launches.

Dependencies mirror a real prefetching loop: batch ``i``'s transfer
waits on its sampling, its compute waits on its transfer, queues
serialize internally, and sampling runs at most ``prefetch_depth``
batches ahead of compute (the staging-buffer bound).  Because the
schedule only moves *accounting* onto queue timelines — the Python
execution order is the serial one — sampled matrices, losses, and
trained weights are bit-identical to :class:`~repro.learning.Trainer`;
only the simulated clock changes, from the sum of stage times to the
makespan of their overlap.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.algorithms import TABLE8_PARAMS, make_algorithm
from repro.algorithms.base import Pipeline
from repro.cache import (
    DEFAULT_CACHE_RATIO,
    DEFAULT_HOST_TIER_RATIO,
    CacheStats,
    FeatureSource,
    plan_gather,
)
from repro.core import minibatches
from repro.datasets import Dataset
from repro.device import DeviceSpec, ExecutionContext
from repro.errors import ShapeError
from repro.learning.models import GraphSAGEModel, LadiesGCN, SampledGNN
from repro.learning.trainer import Trainer, TrainResult
from repro.profile.spans import Profiler, maybe_span
from repro.tasks import Task

#: How many batches the sampler may run ahead of the trainer; 2 is the
#: classic double-buffering depth (one batch in flight per stage).
DEFAULT_PREFETCH_DEPTH = 2


@dataclasses.dataclass(frozen=True)
class QueueReport:
    """One queue's timeline summary for an epoch run."""

    queue: str
    device: str
    busy_seconds: float
    end_seconds: float
    launches: int

    @property
    def utilization(self) -> float:
        """Occupied fraction of the full makespan this queue ran under."""
        return self.busy_seconds / self.end_seconds if self.end_seconds else 0.0


@dataclasses.dataclass
class PipelinedTrainResult(TrainResult):
    """A :class:`TrainResult` whose clock is the queue-overlap makespan.

    ``total_seconds`` is the max over queue end times;
    ``sampling_seconds``/``training_seconds`` are the busy (occupied)
    seconds of the sampling context and training context respectively,
    so they can sum to more than ``total_seconds`` — that surplus *is*
    the overlap win.
    """

    prefetch_depth: int = DEFAULT_PREFETCH_DEPTH
    queue_reports: list[QueueReport] = dataclasses.field(default_factory=list)
    cache_stats: CacheStats | None = None

    @property
    def serialized_seconds(self) -> float:
        """What the same work would cost with no overlap at all."""
        return sum(r.busy_seconds for r in self.queue_reports)

    @property
    def overlap_reduction(self) -> float:
        """Fractional time saved vs running the queues back-to-back."""
        serial = self.serialized_seconds
        if serial <= 0.0:
            return 0.0
        return 1.0 - self.total_seconds / serial


class PipelinedTrainer(Trainer):
    """Mini-batch trainer that overlaps sampling, transfer, and compute.

    Accepts everything :class:`~repro.learning.Trainer` does, plus:

    prefetch_depth:
        Staging-buffer bound: sampling of batch ``i`` may not start
        before compute of batch ``i - prefetch_depth`` finished.  Must
        be at least 1; 2 (the default) gives classic double buffering.
    cache_ratio, feature_tiers, host_tier_ratio, hbm_budget:
        The feature-store knobs, passed to the
        :class:`~repro.cache.FeatureSource` each :meth:`train` builds:
        the pinned bytes are charged to the training context's memory
        pool, so an over-large ratio is evicted down (or refused)
        against ``hbm_budget``.
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
        prefetch_depth: int = DEFAULT_PREFETCH_DEPTH,
        cache_ratio: float = DEFAULT_CACHE_RATIO,
        feature_tiers: bool = False,
        host_tier_ratio: float = DEFAULT_HOST_TIER_RATIO,
        hbm_budget: int | None = None,
        prefetch: bool = True,
        task: Task | None = None,
    ) -> None:
        if prefetch_depth < 1:
            raise ShapeError(
                f"prefetch depth must be at least 1, got {prefetch_depth}"
            )
        super().__init__(
            pipeline,
            model,
            dataset,
            device=device,
            train_device=train_device,
            batch_size=batch_size,
            lr=lr,
            seed=seed,
            task=task,
        )
        self.prefetch_depth = prefetch_depth
        self.cache_ratio = cache_ratio
        self.feature_tiers = feature_tiers
        self.host_tier_ratio = host_tier_ratio
        self.hbm_budget = hbm_budget
        self.prefetch = prefetch

    # ------------------------------------------------------------------
    def train(
        self,
        epochs: int,
        *,
        max_batches_per_epoch: int | None = None,
        profiler: Profiler | None = None,
    ) -> PipelinedTrainResult:
        sample_ctx = ExecutionContext(
            self.device, graph_on_device=self.dataset.graph_on_device
        )
        features = FeatureSource(
            self.dataset,
            cache_ratio=self.cache_ratio,
            feature_tiers=self.feature_tiers,
            host_tier_ratio=self.host_tier_ratio,
            hbm_budget=self.hbm_budget,
        )
        # Compute launches declare no graph_bytes, so where the source
        # places the feature table never changes their pricing.
        train_ctx = ExecutionContext(
            self.train_device,
            graph_on_device=features.table_on_device(
                self.dataset.graph_on_device
            ),
            memory=features.pool,
        )
        if profiler is not None:
            profiler.attach(sample_ctx)
            train_ctx.profiler = profiler

        span = functools.partial(maybe_span, profiler)

        acc_history: list[float] = []
        last_loss = float("nan")
        units = self.task.train_units(self.dataset)
        # Completion time of each batch's compute, indexed per epoch; the
        # prefetch window looks back ``prefetch_depth`` entries.
        for epoch in range(epochs):
            batches = minibatches(
                units, self.batch_size, shuffle=True, rng=self.rng
            )
            if max_batches_per_epoch is not None:
                batches = batches[:max_batches_per_epoch]
            epoch_acc: list[float] = []
            compute_done: list[float] = []
            with span("epoch", "epoch", index=epoch, pipelined=True):
                for i, batch in enumerate(batches):
                    # Staging-buffer bound: the sampler may run at most
                    # prefetch_depth batches ahead of the trainer.
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
                        sampled_at = sample_ctx.queue("sample").ready
                        # A synchronous loader cannot start a batch's
                        # fetch until the previous compute finished; the
                        # async-prefetch default starts it the moment
                        # sampling lands.
                        fetch_after = sampled_at
                        if not self.prefetch and compute_done:
                            fetch_after = max(sampled_at, compute_done[-1])
                        transferred_at = features.charge(
                            train_ctx,
                            plan_gather(sample.all_nodes, features.store),
                            not_before=fetch_after,
                        )
                        with train_ctx.on_queue(
                            "compute", not_before=transferred_at
                        ):
                            loss, acc = self._compute_batch(
                                sample, train_ctx, task_batch
                            )
                        compute_done.append(train_ctx.queue("compute").ready)
                    last_loss = loss
                    epoch_acc.append(acc)
                if (attrs := features.epoch_attrs()) is not None:
                    with span(f"cache[{epoch}]", "cache", **attrs):
                        pass
            acc_history.append(float(np.mean(epoch_acc)) if epoch_acc else 0.0)

        reports = [
            QueueReport(
                queue=q.name,
                device=ctx.device.name,
                busy_seconds=q.busy_seconds,
                end_seconds=q.ready,
                launches=q.launches,
            )
            for ctx in (sample_ctx, train_ctx)
            for q in ctx.queue_stats().values()
        ]
        return PipelinedTrainResult(
            epochs=epochs,
            final_accuracy=acc_history[-1] if acc_history else 0.0,
            final_loss=last_loss,
            total_seconds=max(sample_ctx.elapsed, train_ctx.elapsed),
            sampling_seconds=sample_ctx.busy_seconds,
            training_seconds=train_ctx.busy_seconds,
            accuracy_history=acc_history,
            prefetch_depth=self.prefetch_depth,
            queue_reports=reports,
            cache_stats=features.stats(),
        )


# ----------------------------------------------------------------------
# Serial-vs-pipelined comparison cell (CLI + benchmarks)
# ----------------------------------------------------------------------

#: The model each Table-8 workload trains (the ``pipeline`` command's
#: algorithm choices).
PIPELINE_MODELS: dict[str, type[SampledGNN]] = {
    "graphsage": GraphSAGEModel,
    "ladies": LadiesGCN,
}


def _build_model(
    algorithm: str, dataset: Dataset, seed: int, num_layers: int
) -> SampledGNN:
    return PIPELINE_MODELS[algorithm](
        dataset.features.shape[1],
        32,
        dataset.num_classes,
        num_layers=num_layers,
        rng=np.random.default_rng(seed),
    )


def run_pipeline_cell(
    algorithm: str,
    dataset: Dataset,
    *,
    device: DeviceSpec,
    train_device: DeviceSpec | None = None,
    epochs: int = 1,
    batch_size: int = 256,
    max_batches: int | None = 8,
    prefetch_depth: int = DEFAULT_PREFETCH_DEPTH,
    cache_ratio: float = DEFAULT_CACHE_RATIO,
    seed: int = 0,
    profiler: Profiler | None = None,
    feature_tiers: bool = False,
    host_tier_ratio: float = DEFAULT_HOST_TIER_RATIO,
    hbm_budget: int | None = None,
    prefetch: bool = True,
) -> tuple[TrainResult, PipelinedTrainResult]:
    """Train one cell twice — serial then pipelined — under equal seeds.

    Both runs construct their own identically-seeded model and RNG
    stream, so sampled batches and losses must match bit-for-bit; the
    only difference is the clock.  Returns ``(serial, pipelined)``.
    """
    if algorithm not in PIPELINE_MODELS:
        raise ShapeError(
            f"no trainable pipeline config for {algorithm!r}; "
            f"available: {sorted(PIPELINE_MODELS)}"
        )
    if epochs < 1 or batch_size < 1:
        raise ShapeError(
            f"epochs and batch size must be >= 1, got {epochs} and {batch_size}"
        )
    if max_batches is not None and max_batches < 1:
        raise ShapeError(f"max batches must be >= 1 or None, got {max_batches}")
    algo = make_algorithm(algorithm, **TABLE8_PARAMS[algorithm])
    example = dataset.train_ids[:batch_size]
    sampler = algo.build(dataset.graph, example)
    depth = len(sampler.samplers)  # the model is as deep as the sample

    serial_trainer = Trainer(
        sampler,
        _build_model(algorithm, dataset, seed, depth),
        dataset,
        device=device,
        train_device=train_device,
        batch_size=batch_size,
        seed=seed,
    )
    serial = serial_trainer.train(
        epochs, max_batches_per_epoch=max_batches
    )

    pipelined_trainer = PipelinedTrainer(
        algo.build(dataset.graph, example),
        _build_model(algorithm, dataset, seed, depth),
        dataset,
        device=device,
        train_device=train_device,
        batch_size=batch_size,
        seed=seed,
        prefetch_depth=prefetch_depth,
        cache_ratio=cache_ratio,
        feature_tiers=feature_tiers,
        host_tier_ratio=host_tier_ratio,
        hbm_budget=hbm_budget,
        prefetch=prefetch,
    )
    pipelined = pipelined_trainer.train(
        epochs, max_batches_per_epoch=max_batches, profiler=profiler
    )
    return serial, pipelined
