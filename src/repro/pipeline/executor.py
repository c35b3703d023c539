"""The pipelined trainer and its serial-vs-pipelined harness.

:class:`PipelinedTrainer` runs :class:`~repro.learning.Trainer`'s one
epoch loop — sampling on queue ``sample``, per-batch feature gathers on
``transfer`` (PCIe-bound for host-resident features, with a
:class:`~repro.cache.FeatureSource` short-circuiting hot rows to device
memory), forward/backward on ``compute`` — and reads its clock as the
makespan of the queues' overlap instead of the sum of their busy time.
The Python execution order is the serial one, so sampled matrices,
losses, and trained weights are bit-identical to the serial trainer's;
only the simulated clock changes.  :func:`run_pipeline_cell` therefore
trains a cell once and reads it on both clocks.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.algorithms import TABLE8_PARAMS, make_algorithm
from repro.algorithms.base import Pipeline
from repro.cache import (
    DEFAULT_CACHE_RATIO,
    DEFAULT_HOST_TIER_RATIO,
    FeatureSource,
)
from repro.datasets import Dataset
from repro.device import DeviceSpec
from repro.errors import ShapeError
from repro.learning.models import GraphSAGEModel, LadiesGCN, SampledGNN
from repro.learning.trainer import DEFAULT_PREFETCH_DEPTH, Trainer, TrainResult
from repro.profile.spans import Profiler
from repro.tasks import Task


class PipelinedTrainer(Trainer):
    """Mini-batch trainer that overlaps sampling, transfer, and compute.

    Accepts everything :class:`~repro.learning.Trainer` does, plus:

    prefetch_depth:
        Staging-buffer bound: sampling of batch ``i`` may not start
        before compute of batch ``i - prefetch_depth`` finished.  Must
        be at least 1; 2 (the default) gives classic double buffering.
    cache_ratio, feature_tiers, host_tier_ratio, hbm_budget:
        The feature-store knobs, passed to the trainer's
        :class:`~repro.cache.FeatureSource` (built, and so checked, here):
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

    #: Set by :func:`run_pipeline_cell` only: a list that :meth:`train`
    #: appends the same run's serial-clock result to (``Trainer._run``).
    _serial: list[TrainResult] | None = None

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
        self.prefetch = prefetch
        self.features = FeatureSource(
            dataset,
            cache_ratio=cache_ratio,
            feature_tiers=feature_tiers,
            host_tier_ratio=host_tier_ratio,
            hbm_budget=hbm_budget,
        )

    def train(
        self,
        epochs: int,
        *,
        max_batches_per_epoch: int | None = None,
        profiler: Profiler | None = None,
    ) -> TrainResult:
        """Train ``epochs`` epochs; the clock is the queues' makespan.

        A launch outside every named queue starts at its context's
        makespan, so the clock is ``elapsed``, not the max queue end.
        """
        return self._run(
            epochs, max_batches_per_epoch, profiler,
            lambda sample, train: max(sample.elapsed, train.elapsed),
            serial=self._serial,
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
) -> tuple[TrainResult, TrainResult]:
    """Train one cell once and read it on both clocks.

    One sampler, one model and one :class:`PipelinedTrainer` sample and
    train every batch once; each gather and compute launch is charged to
    two training contexts — an uncached one for the serial clock, the
    configured store for the pipelined one (``Trainer._run``).  Returns
    ``(serial, pipelined)``, each equal to what a standalone
    :class:`~repro.learning.Trainer` / :class:`PipelinedTrainer` run
    under the same seed reports; only the serial queues' ``end_seconds``
    follow the shared schedule.  The profiler sees the pipelined ledger.
    """
    if algorithm not in PIPELINE_MODELS:
        raise ShapeError(
            f"no trainable pipeline config for {algorithm!r}; "
            f"available: {sorted(PIPELINE_MODELS)}"
        )
    counts = {
        "epochs": epochs,
        "batch size": batch_size,
        "prefetch depth": prefetch_depth,
        "seed": seed,
    }
    if max_batches is not None:
        counts["max batches"] = max_batches
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral):
            raise ShapeError(f"{name} must be an integer, got {value!r}")
    if epochs < 1 or batch_size < 1:
        raise ShapeError(
            f"epochs and batch size must be >= 1, got {epochs} and {batch_size}"
        )
    if max_batches is not None and max_batches < 1:
        raise ShapeError(f"max batches must be >= 1 or None, got {max_batches}")
    if seed < 0:
        raise ShapeError(f"seed must be >= 0, got {seed}")
    algo = make_algorithm(algorithm, **TABLE8_PARAMS[algorithm])
    sampler = algo.build(dataset.graph, dataset.train_ids[:batch_size])
    depth = len(sampler.samplers)  # the model is as deep as the sample
    trainer = PipelinedTrainer(
        sampler,
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
    trainer._serial = []
    pipelined = trainer.train(
        epochs, max_batches_per_epoch=max_batches, profiler=profiler
    )
    (serial,) = trainer._serial
    return serial, pipelined
