"""Benchmark-harness tests: epoch measurement and table helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import GSamplerSystem, make_system
from repro.bench import (
    EpochStats,
    format_table,
    measure_cell,
    run_sampling_epoch,
    speedup_over_best_baseline,
)
from repro.datasets import load_dataset
from repro.device import V100, get_device


@pytest.fixture(scope="module")
def pd():
    return load_dataset("pd", scale=0.1)


class TestRunEpoch:
    def test_epoch_stats_fields(self, pd):
        stats = run_sampling_epoch(
            GSamplerSystem(), "graphsage", pd, device=V100,
            batch_size=128, max_batches=3,
        )
        assert stats.system == "gSampler"
        assert stats.algorithm == "graphsage"
        assert stats.dataset == "pd"
        assert stats.num_batches == 3
        assert stats.sim_seconds > 0
        assert stats.wall_seconds > 0
        assert stats.launches > 0
        assert stats.per_batch_ms() == pytest.approx(
            stats.sim_seconds * 1e3 / 3
        )

    def test_superbatch_used_only_when_enabled(self, pd):
        from repro.sampler import OptimizationConfig

        on = run_sampling_epoch(
            GSamplerSystem(), "graphsage", pd, device=V100,
            batch_size=64, max_batches=4, superbatch=4,
        )
        off = run_sampling_epoch(
            GSamplerSystem(OptimizationConfig(superbatch=False)),
            "graphsage", pd, device=V100,
            batch_size=64, max_batches=4, superbatch=4,
        )
        assert on.sim_seconds < off.sim_seconds

    def test_deterministic_given_seed(self, pd):
        a = run_sampling_epoch(
            GSamplerSystem(), "ladies", pd, device=V100,
            batch_size=64, max_batches=2, seed=5,
        )
        b = run_sampling_epoch(
            GSamplerSystem(), "ladies", pd, device=V100,
            batch_size=64, max_batches=2, seed=5,
        )
        assert a.sim_seconds == pytest.approx(b.sim_seconds)


class TestMeasureCell:
    def test_unsupported_cell_is_none(self):
        assert measure_cell(
            "gunrock", "ladies", "pd", scale=0.1, max_batches=1
        ) is None

    def test_cpu_system_forced_onto_cpu_device(self):
        stats = measure_cell(
            "dgl-cpu", "graphsage", "pd", scale=0.1, max_batches=1
        )
        assert stats is not None
        assert stats.device == "cpu"

    def test_gpu_system_uses_named_device(self):
        stats = measure_cell(
            "gsampler", "graphsage", "pd", device_name="t4",
            scale=0.1, max_batches=1,
        )
        assert stats is not None
        assert stats.device == "t4"
        assert get_device("t4").name == "t4"


class TestHelpers:
    def test_speedup_over_best_baseline(self):
        rows = {"gsampler": 1.0, "x": 5.0, "y": 3.0, "z": None}
        assert speedup_over_best_baseline(rows, "gsampler") == 3.0

    def test_speedup_with_no_baselines(self):
        assert math.isnan(
            speedup_over_best_baseline({"gsampler": 1.0}, "gsampler")
        )

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2], [30, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5
