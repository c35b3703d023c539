"""The serial-vs-pipelined comparison cell (CLI + benchmarks).

:func:`run_pipeline_cell` builds one sampler, one model, the configured
:class:`~repro.cache.FeatureSource` and one :class:`~repro.learning.Trainer`,
and trains the cell once: sampled matrices, losses and trained weights
are shared by the run's serial and pipelined readings.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import TABLE8_PARAMS, make_algorithm
from repro.cache import (
    DEFAULT_CACHE_RATIO,
    DEFAULT_HOST_TIER_RATIO,
    FeatureSource,
)
from repro.datasets import Dataset
from repro.device import DeviceSpec
from repro.errors import ShapeError
from repro.learning.models import GraphSAGEModel, LadiesGCN, SampledGNN
from repro.learning.trainer import (
    DEFAULT_PREFETCH_DEPTH,
    Trainer,
    TrainResult,
    check_run_shape,
)
from repro.profile.spans import Profiler

# Not exported: only perfbench's trace-target table (``perfbench/layers.py``)
# still names ``PipelinedTrainer.train`` here; re-pointing it deletes this.
PipelinedTrainer = Trainer

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
    """Train one cell once; return its ``(serial, pipelined)`` readings.

    ``cache_ratio``, ``feature_tiers``, ``host_tier_ratio`` and
    ``hbm_budget`` configure the pipelined ledger's feature store; the
    serial reading is always uncached (:meth:`Trainer.train`).
    """
    if algorithm not in PIPELINE_MODELS:
        raise ShapeError(
            f"no trainable pipeline config for {algorithm!r}; "
            f"available: {sorted(PIPELINE_MODELS)}"
        )
    check_run_shape(
        epochs=epochs, batch_size=batch_size, max_batches=max_batches,
        prefetch_depth=prefetch_depth, seed=seed,
    )
    features = FeatureSource(
        dataset,
        cache_ratio=cache_ratio,
        feature_tiers=feature_tiers,
        host_tier_ratio=host_tier_ratio,
        hbm_budget=hbm_budget,
    )
    algo = make_algorithm(algorithm, **TABLE8_PARAMS[algorithm])
    sampler = algo.build(dataset.graph, dataset.train_ids[:batch_size])
    depth = len(sampler.samplers)  # the model is as deep as the sample
    trainer = Trainer(
        sampler,
        _build_model(algorithm, dataset, seed, depth),
        dataset,
        device=device,
        train_device=train_device,
        batch_size=batch_size,
        seed=seed,
        features=features,
        prefetch_depth=prefetch_depth,
        prefetch=prefetch,
    )
    return trainer.train(
        epochs, max_batches_per_epoch=max_batches, profiler=profiler
    )
