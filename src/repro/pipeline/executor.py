"""The pipelined epoch executor and its serial-vs-pipelined harness.

:class:`PipelinedTrainer` schedules every training epoch across three
simulated device queues:

* ``sample``   — the sampling pipeline's kernels (on the sampling device);
* ``transfer`` — per-batch feature gathers, PCIe-bound for host-resident
  features, with a :class:`~repro.cache.FeatureCache` short-circuiting
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
    FeatureCache,
    TieredFeatureStore,
    plan_gather,
    record_gather,
)
from repro.cache.gather import record_remote_gather
from repro.core import minibatches
from repro.datasets import Dataset
from repro.device import DeviceSpec, ExecutionContext, MemoryPool
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
    cache_ratio:
        Fraction of nodes whose feature rows are pinned on the training
        device (degree-ordered; see :class:`~repro.cache.FeatureCache`).
        ``0.0`` disables caching.  The pinned bytes are charged to the
        training context's memory pool, so an over-large ratio is
        evicted down (or refused) against that pool's capacity.
    feature_tiers:
        Serve feature rows through the multi-tier store
        (:class:`~repro.cache.TieredFeatureStore`) instead of the flat
        cache: the device tier's gathers stay on-device, the pinned-host
        band crosses PCIe as UVA traffic, and the remote tail runs as a
        ``fixed_seconds`` launch on its own ``remote`` queue, overlapped
        with the PCIe read.
    host_tier_ratio:
        Fraction of nodes in the pinned-host tier (tiered mode only).
    hbm_budget:
        Byte capacity of the training context's memory pool — the knob
        that caps the device tier below the working set.  ``None`` keeps
        the unbounded default.
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
    def _fetch_batch(
        self,
        sample,
        train_ctx: ExecutionContext,
        cache,
        fetch_after: float,
    ) -> float:
        """Charge one batch's feature fetch; returns its completion time.

        One ``feature_gather`` on ``transfer`` with the host band as UVA
        ``graph_bytes``; a flat or absent cache plans no remote rows, so
        that is its whole fetch.  A tiered store's remote tail runs on
        its own ``remote`` queue, so the batch's fetch completes at the
        *max* of the two wires.
        """
        plan = plan_gather(sample.all_nodes, cache)
        with train_ctx.on_queue("transfer", not_before=fetch_after):
            local = record_gather(train_ctx, plan, self.row_bytes)
        transferred_at = local.sim_end
        if plan.remote_rows > 0:
            with train_ctx.on_queue("remote", not_before=fetch_after):
                remote = record_remote_gather(
                    train_ctx, plan, self.row_bytes, cache.remote_tier
                )
            transferred_at = max(transferred_at, remote.sim_end)
        return transferred_at

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
        # Tiered mode prices the host-tier band as UVA traffic, so the
        # training context's "graph" (= the feature table) must be
        # host-resident regardless of where the topology lives; compute
        # launches declare no graph_bytes, so their pricing is unchanged.
        train_ctx = ExecutionContext(
            self.train_device,
            graph_on_device=(
                False if self.feature_tiers else self.dataset.graph_on_device
            ),
            memory=(
                MemoryPool(self.hbm_budget)
                if self.hbm_budget is not None
                else None
            ),
        )
        if profiler is not None:
            profiler.attach(sample_ctx)
            train_ctx.profiler = profiler
        cache: FeatureCache | TieredFeatureStore | None = None
        if self.feature_tiers and self.cache_ratio > 0.0:
            cache = TieredFeatureStore.from_dataset(
                self.dataset,
                pool=train_ctx.memory,
                device_ratio=self.cache_ratio,
                host_ratio=self.host_tier_ratio,
            )
        elif self.cache_ratio > 0.0:
            cache = FeatureCache.from_dataset(
                self.dataset, ratio=self.cache_ratio, pool=train_ctx.memory
            )

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
                        transferred_at = self._fetch_batch(
                            sample, train_ctx, cache, fetch_after
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
                if cache is not None:
                    stats = cache.epoch_stats()
                    attrs: dict[str, object] = dict(
                        hits=stats.hits,
                        misses=stats.misses,
                        hit_rate=round(stats.hit_rate, 4),
                        cached_rows=stats.cached_rows,
                    )
                    if self.feature_tiers:
                        attrs.update(
                            host_hits=stats.host_hits,
                            remote_hits=stats.remote_hits,
                            host_rows=stats.host_rows,
                        )
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
            cache_stats=cache.epoch_stats() if cache is not None else None,
        )


# ----------------------------------------------------------------------
# Serial-vs-pipelined comparison cell (CLI + benchmarks)
# ----------------------------------------------------------------------

#: The model each Table-8 workload trains.
_MODELS: dict[str, type[SampledGNN]] = {
    "graphsage": GraphSAGEModel,
    "ladies": LadiesGCN,
}


def _build_model(
    algorithm: str, dataset: Dataset, seed: int, num_layers: int
) -> SampledGNN:
    return _MODELS[algorithm](
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
    if algorithm not in _MODELS:
        raise ShapeError(
            f"no trainable pipeline config for {algorithm!r}; "
            f"available: {sorted(_MODELS)}"
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
