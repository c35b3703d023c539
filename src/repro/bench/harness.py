"""Epoch-level measurement harness used by every benchmark.

The paper's unit of measurement is the *sampling time for an epoch*: one
pass over all frontier nodes in mini-batches (Section 5.1), averaged over
several epochs after a warm-up.  This module runs a (system, algorithm,
dataset, device) cell and returns both the simulated device time (the
headline metric, standing in for the paper's GPU wall clock) and host
wall time, plus launch/memory/occupancy statistics for Tables 5 and 9.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time

from repro.algorithms import make_algorithm
from repro.baselines import BaselineSystem, make_system
from repro.core import minibatches, new_rng
from repro.datasets import Dataset, load_dataset
from repro.device import DeviceSpec, ExecutionContext, get_device
from repro.errors import UnsupportedAlgorithmError, check_count
from repro.profile.spans import Profiler, maybe_span

#: Default mini-batch size (the DGL/PyG example configuration).
DEFAULT_BATCH_SIZE = 1024
#: Default super-batch multiple used by gSampler pipelines that allow it.
DEFAULT_SUPERBATCH = 4


@dataclasses.dataclass
class EpochStats:
    """Measured statistics for one epoch of sampling."""

    system: str
    algorithm: str
    dataset: str
    device: str
    sim_seconds: float
    wall_seconds: float
    launches: int
    peak_memory_bytes: int
    sm_percent: float
    num_batches: int

    def per_batch_ms(self) -> float:
        return 1e3 * self.sim_seconds / max(self.num_batches, 1)


def run_sampling_epoch(
    system: BaselineSystem,
    algorithm: str,
    dataset: Dataset,
    *,
    device: DeviceSpec,
    batch_size: int = DEFAULT_BATCH_SIZE,
    superbatch: int = DEFAULT_SUPERBATCH,
    seed: int = 0,
    max_batches: int | None = None,
    profiler: Profiler | None = None,
) -> EpochStats:
    """Run one sampling epoch and collect its statistics.

    Raises :class:`UnsupportedAlgorithmError` for N/A cells, mirroring
    the missing bars of Figures 7/8.  With ``profiler`` given, the run
    is traced as nested spans (``compile → pass:*`` during pipeline
    construction, ``epoch → batch → kernel:*`` during sampling) on both
    the host and simulated clocks; measured statistics are unaffected.
    """
    system.check_support(algorithm, dataset)
    rng = new_rng(seed)
    seeds = dataset.train_ids
    batches = minibatches(seeds, batch_size, shuffle=True, rng=rng)
    if max_batches is not None:
        batches = batches[:max_batches]

    span = functools.partial(maybe_span, profiler)

    activation = (
        profiler.activate() if profiler is not None else contextlib.nullcontext()
    )
    with activation:
        pipeline = system.build_pipeline(algorithm, dataset, batches[0])
        ctx = ExecutionContext(device, graph_on_device=dataset.graph_on_device)
        if profiler is not None:
            profiler.attach(ctx)
        # Measurement starts here: restart peak tracking so pool peaks
        # reached during pipeline construction / warmup probes against a
        # shared pool cannot leak into the epoch's memory column.
        ctx.reset(include_peak=True)
        use_superbatch = (
            system.config.superbatch
            and pipeline.supports_superbatch
            and superbatch > 1
        )
        start = time.perf_counter()
        with span(
            "epoch",
            "epoch",
            system=system.name,
            algorithm=algorithm,
            dataset=dataset.name,
            device=device.name,
        ):
            if use_superbatch:
                for index, lo in enumerate(range(0, len(batches), superbatch)):
                    group = batches[lo : lo + superbatch]
                    size = sum(len(b) for b in group)
                    with span(f"batch[{index}]", "batch", size=size):
                        pipeline.sample_superbatch(group, ctx=ctx, rng=rng)
            else:
                for index, batch in enumerate(batches):
                    with span(f"batch[{index}]", "batch", size=len(batch)):
                        pipeline.sample_batch(batch, ctx=ctx, rng=rng)
        wall = time.perf_counter() - start
    return EpochStats(
        system=system.name,
        algorithm=algorithm,
        dataset=dataset.name,
        device=device.name,
        sim_seconds=ctx.elapsed,
        wall_seconds=wall,
        launches=ctx.launch_count(),
        peak_memory_bytes=ctx.memory.peak_bytes,
        sm_percent=ctx.sm_utilization(),
        num_batches=len(batches),
    )


def measure_cell(
    system_name: str,
    algorithm: str,
    dataset_name: str,
    *,
    device_name: str = "v100",
    batch_size: int = DEFAULT_BATCH_SIZE,
    scale: float = 1.0,
    seed: int = 0,
    max_batches: int | None = None,
    superbatch: int = DEFAULT_SUPERBATCH,
    profiler: Profiler | None = None,
) -> EpochStats | None:
    """One cell of a comparison table; ``None`` marks an N/A cell.

    An unknown algorithm or system is not a cell at all: it raises
    :class:`~repro.errors.GSamplerError` before any dataset is loaded.
    """
    make_algorithm(algorithm)
    system = make_system(system_name)
    if max_batches is not None:
        check_count("max batches", max_batches)
    dataset = load_dataset(dataset_name, scale=scale)
    device = get_device(
        "cpu" if system.device_kind == "cpu" else device_name
    )
    try:
        return run_sampling_epoch(
            system,
            algorithm,
            dataset,
            device=device,
            batch_size=batch_size,
            seed=seed,
            max_batches=max_batches,
            superbatch=superbatch,
            profiler=profiler,
        )
    except UnsupportedAlgorithmError:
        return None


def speedup_over_best_baseline(
    rows: dict[str, float | None], reference: str
) -> float:
    """Paper Table 7 metric: reference time vs the best *other* system."""
    others = [v for k, v in rows.items() if k != reference and v is not None]
    if not others or rows.get(reference) in (None, 0):
        return float("nan")
    return min(others) / rows[reference]  # type: ignore[operator]
