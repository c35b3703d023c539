"""Benchmark harness: epoch measurement and table formatting."""

from repro.bench.harness import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_SUPERBATCH,
    EpochStats,
    measure_cell,
    normalize,
    run_sampling_epoch,
    speedup_over_best_baseline,
)
from repro.profile.report import format_table

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_SUPERBATCH",
    "EpochStats",
    "format_table",
    "measure_cell",
    "normalize",
    "run_sampling_epoch",
    "speedup_over_best_baseline",
]
