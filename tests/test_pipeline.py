"""Pipelined epoch executor: queue semantics, feature cache, parity.

Covers the three contracts the pipelined path must keep:

* queue timelines overlap correctly (makespan, dependencies, and the
  untouched serial path);
* the degree-ordered feature cache obeys the memory budget and its hit
  rate grows with the cache ratio;
* serial and pipelined training are bit-identical in everything except
  the simulated clock.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cache import (
    FeatureCache,
    graph_degrees,
    plan_gather,
    record_gather,
)
from repro.cache.feature_cache import CacheStats
from repro.core import new_rng
from repro.datasets import load_dataset
from repro.device import CPU, ExecutionContext, MemoryPool, V100
from repro.errors import DeviceError, ShapeError
from repro.learning import GraphSAGEModel
from repro.learning.trainer import Trainer
from repro.pipeline import PipelinedTrainer, run_pipeline_cell
from repro.profile import Profiler


# ----------------------------------------------------------------------
# Multi-queue ExecutionContext semantics
# ----------------------------------------------------------------------
class TestQueueSemantics:
    def test_serial_path_sums_as_before(self):
        ctx = ExecutionContext(V100)
        ctx.record("a", flops=1e9)
        first = ctx.elapsed
        ctx.record("b", flops=1e9)
        assert ctx.elapsed == pytest.approx(2 * first)
        assert all(l.queue == "default" for l in ctx.launches)
        assert ctx.launches[1].sim_start == pytest.approx(first)

    def test_two_queues_overlap_to_makespan(self):
        ctx = ExecutionContext(V100)
        with ctx.on_queue("sample"):
            ctx.record("a", flops=1e9)
        with ctx.on_queue("compute"):
            ctx.record("b", flops=1e9)
        per_kernel = ctx.queue("sample").busy_seconds
        # Both kernels start at t=0 on their own queue: the epoch clock
        # is the max of the two ends, not their sum.
        assert ctx.elapsed == pytest.approx(per_kernel)
        assert ctx.busy_seconds == pytest.approx(2 * per_kernel)

    def test_same_queue_serializes(self):
        ctx = ExecutionContext(V100)
        with ctx.on_queue("sample"):
            ctx.record("a", flops=1e9)
            ctx.record("b", flops=1e9)
        assert ctx.elapsed == pytest.approx(ctx.queue("sample").busy_seconds)
        assert ctx.launches[1].sim_start == pytest.approx(
            ctx.launches[0].sim_end
        )

    def test_not_before_defers_queue(self):
        ctx = ExecutionContext(V100)
        with ctx.on_queue("transfer", not_before=1.5):
            ctx.record("a", flops=1e9)
        assert ctx.launches[0].sim_start == pytest.approx(1.5)
        assert ctx.elapsed == pytest.approx(
            1.5 + ctx.queue("transfer").busy_seconds
        )

    def test_reset_clears_queues(self):
        ctx = ExecutionContext(V100)
        with ctx.on_queue("sample"):
            ctx.record("a", flops=1e9)
        ctx.reset()
        assert ctx.elapsed == 0.0
        assert ctx.busy_seconds == 0.0
        assert ctx.queue_stats() == {}


class TestQueueValidation:
    """Declared-queue strictness and event-time sanity (serving hardening)."""

    def test_unknown_declared_queue_raises(self):
        ctx = ExecutionContext(V100, queues=("sample", "transfer"))
        with pytest.raises(DeviceError, match="unknown queue 'trnsfer'"):
            ctx.queue("trnsfer")
        with pytest.raises(DeviceError, match="declares queues"):
            with ctx.on_queue("compute"):
                pass

    def test_declared_queues_precreated_and_usable(self):
        ctx = ExecutionContext(V100, queues=("sample",))
        assert "sample" in ctx.queue_stats()
        with ctx.on_queue("sample"):
            ctx.record("a", flops=1e9)
        assert ctx.queue("sample").launches == 1

    def test_lazy_context_still_creates_on_demand(self):
        ctx = ExecutionContext(V100)  # no declaration: PR 3 behaviour
        assert ctx.queue("anything").name == "anything"

    def test_default_name_reserved(self):
        with pytest.raises(DeviceError, match="reserved"):
            ExecutionContext(V100, queues=("default",))
        ctx = ExecutionContext(V100)
        with pytest.raises(DeviceError, match="reserved"):
            with ctx.on_queue("default"):
                pass

    def test_empty_queue_name_rejected(self):
        ctx = ExecutionContext(V100)
        with pytest.raises(DeviceError, match="non-empty"):
            ctx.queue("  ")

    def test_negative_not_before_raises(self):
        ctx = ExecutionContext(V100)
        with pytest.raises(DeviceError, match="start at 0"):
            with ctx.on_queue("transfer", not_before=-1e-6):
                pass
        with pytest.raises(DeviceError):
            ctx.queue("transfer").sync_to(float("nan"))

    def test_past_event_time_is_noop(self):
        # Waiting on an event that already fired is legal (the
        # cudaStreamWaitEvent contract), not an error.
        ctx = ExecutionContext(V100)
        with ctx.on_queue("sample"):
            ctx.record("a", flops=1e9)
        ready = ctx.queue("sample").ready
        with ctx.on_queue("sample", not_before=ready / 2):
            ctx.record("b", flops=1e9)
        assert ctx.launches[1].sim_start == pytest.approx(ready)

    def test_reset_recreates_declared_queues(self):
        ctx = ExecutionContext(V100, queues=("sample",))
        with ctx.on_queue("sample"):
            ctx.record("a", flops=1e9)
        ctx.reset()
        assert ctx.queue_stats().keys() == {"sample"}
        assert ctx.queue("sample").ready == 0.0
        with pytest.raises(DeviceError):
            ctx.queue("other")


# ----------------------------------------------------------------------
# Feature cache
# ----------------------------------------------------------------------
def _features(n=100, f=16):
    return np.ones((n, f), dtype=np.float32)


class TestFeatureCache:
    def test_caches_hottest_rows(self):
        scores = np.arange(100, dtype=np.float64)
        cache = FeatureCache(
            _features(), scores, ratio=0.10, pool=MemoryPool()
        )
        np.testing.assert_array_equal(cache.cached_ids, np.arange(90, 100))
        hits, misses = cache.split(np.array([0, 1, 95, 99]))
        assert (hits, misses) == (2, 2)

    def test_hit_rate_monotone_in_ratio(self):
        rng = new_rng(0)
        scores = rng.random(100)
        nodes = rng.integers(0, 100, 500)
        rates = []
        for ratio in (0.0, 0.1, 0.3, 0.6, 1.0):
            cache = FeatureCache(
                _features(), scores, ratio=ratio, pool=MemoryPool()
            )
            cache.record_gather(nodes)
            rates.append(cache.epoch_stats().hit_rate)
        assert rates == sorted(rates)
        assert rates[0] == 0.0 and rates[-1] == 1.0

    def test_budget_evicts_cold_tail(self):
        # 100 rows x 64 bytes = 6400 bytes wanted; a 2 KiB pool forces
        # halving down to a prefix that fits.
        pool = MemoryPool(capacity=2048)
        scores = np.arange(100, dtype=np.float64)
        cache = FeatureCache(_features(), scores, ratio=1.0, pool=pool)
        assert 0 < cache.cached_rows < 100
        assert pool.live_bytes <= 2048
        stats = cache.epoch_stats()
        assert stats.evicted_rows == 100 - cache.cached_rows
        # The rows that survive are the hottest prefix, not a random set.
        np.testing.assert_array_equal(
            cache.cached_ids, np.arange(100 - cache.cached_rows, 100)
        )

    def test_budget_refusal_leaves_pool_untouched(self):
        pool = MemoryPool(capacity=256)  # below one 512-byte granule
        cache = FeatureCache(
            _features(), np.arange(100.0), ratio=0.5, pool=pool
        )
        assert cache.cached_rows == 0
        assert pool.live_bytes == 0
        cache.record_gather(np.arange(50))
        assert cache.epoch_stats().hit_rate == 0.0

    def test_release_returns_bytes(self):
        pool = MemoryPool()
        cache = FeatureCache(
            _features(), np.arange(100.0), ratio=0.2, pool=pool
        )
        assert pool.live_bytes > 0
        cache.release()
        assert pool.live_bytes == 0
        assert cache.split(np.arange(100))[0] == 0
        cache.release()  # idempotent

    def test_ratio_validated(self):
        with pytest.raises(ShapeError):
            FeatureCache(
                _features(), np.arange(100.0), ratio=1.5, pool=MemoryPool()
            )

    def test_split_empty_gather_is_noop(self):
        cache = FeatureCache(
            _features(), np.arange(100.0), ratio=0.2, pool=MemoryPool()
        )
        # The bare [] literal is float64 — split must not fancy-index
        # the residency mask with it.
        assert cache.split(np.asarray([])) == (0, 0)
        assert cache.record_gather(np.asarray([], dtype=np.int64)) == (0, 0)
        assert cache.epoch_stats().hit_rate == 0.0

    def test_split_duplicates_count_per_occurrence(self):
        cache = FeatureCache(
            _features(), np.arange(100.0), ratio=0.1, pool=MemoryPool()
        )
        hot = cache.cached_ids[0]
        hits, misses = cache.split(np.array([hot, hot, hot, 0, 0]))
        assert (hits, misses) == (3, 2)

    def test_all_miss_after_eviction(self):
        # A pool too small for even one granule refuses the cache; every
        # later gather — including of the would-be hottest rows — misses.
        pool = MemoryPool(capacity=256)
        cache = FeatureCache(
            _features(), np.arange(100.0), ratio=0.5, pool=pool
        )
        assert cache.cached_rows == 0
        hits, misses = cache.split(np.arange(90, 100))
        assert (hits, misses) == (0, 10)
        cache.release()  # releasing a refused cache stays a no-op
        assert pool.live_bytes == 0

    def test_hit_rate_zero_lookups(self):
        stats = CacheStats(
            cached_rows=10, requested_rows=10, cached_bytes=640,
            hits=0, misses=0,
        )
        assert stats.hit_rate == 0.0  # no division-by-zero
        cache = FeatureCache(
            _features(), np.arange(100.0), ratio=0.2, pool=MemoryPool()
        )
        assert cache.epoch_stats().hit_rate == 0.0

    def test_trainer_charges_only_misses_over_pcie(self):
        """The trainer's gather is ``plan_gather`` + ``record_gather``:
        cached rows read device memory, only the misses cross PCIe."""
        ds = load_dataset("pp", scale=0.1)  # host-resident features
        cache = FeatureCache(
            ds.features, graph_degrees(ds.graph), ratio=0.5, pool=MemoryPool()
        )
        row_bytes = ds.features.shape[1] * 4
        cold = np.setdiff1d(
            np.arange(ds.features.shape[0]), cache.cached_ids
        )
        nodes = np.concatenate([cache.cached_ids[:32], cold[:32]])
        hits, misses = cache.split(nodes)
        assert hits > 0 and misses > 0

        ctx = ExecutionContext(V100, graph_on_device=ds.graph_on_device)
        launch = record_gather(ctx, plan_gather(nodes, cache), row_bytes)
        assert launch.bytes_read == len(nodes) * row_bytes
        assert launch.uva_bytes == misses * row_bytes


# ----------------------------------------------------------------------
# Serial vs pipelined training parity (S4)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pd_cell():
    ds = load_dataset("pd", scale=0.25)
    return run_pipeline_cell(
        "graphsage", ds, device=V100, epochs=2, batch_size=256, max_batches=4
    )


class TestPipelinedParity:
    def test_losses_and_accuracy_bit_identical(self, pd_cell):
        serial, pipelined = pd_cell
        assert serial.final_loss == pipelined.final_loss
        assert serial.accuracy_history == pipelined.accuracy_history
        assert serial.final_accuracy == pipelined.final_accuracy

    def test_perfbench_cells_train_to_the_pinned_floats(self):
        """The ``train_pipeline`` cells, float for float: a host kernel swap
        under ``SampledGNN`` (DESIGN "Host kernels") must not move a loss.

        A child with one BLAS thread, as perfbench runs it: OpenBLAS's
        threaded GEMM sums in another order (1 ulp on the graphsage loss).
        """
        script = (
            "import json\n"
            "from repro.datasets import load_dataset\n"
            "from repro.device import V100\n"
            "from repro.pipeline import run_pipeline_cell\n"
            "ds = load_dataset('pd', scale=1.0)\n"
            "cells = {}\n"
            "for algorithm, max_batches in (('graphsage', 16), ('ladies', 40)):\n"
            "    cells[algorithm] = [\n"
            "        (r.final_loss, r.final_accuracy)\n"
            "        for r in run_pipeline_cell(\n"
            "            algorithm, ds, device=V100, batch_size=256,\n"
            "            max_batches=max_batches, seed=1)]\n"
            "print(json.dumps(cells))\n"
        )
        one_thread = dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"
        )
        src = pathlib.Path(repro.__file__).parents[1]
        child = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, **one_thread, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True, timeout=300,
        )
        graphsage = [0.12613797187805176, 0.65673828125]
        ladies = [0.08021184802055359, 0.80576171875]
        assert json.loads(child.stdout) == {
            "graphsage": [graphsage, graphsage],  # serial == pipelined
            "ladies": [ladies, ladies],
        }

    def test_pipelining_reduces_epoch_time(self, pd_cell):
        serial, pipelined = pd_cell
        # Acceptance bar: >= 20% simulated-epoch-time reduction on the
        # graphsage/PD/V100 cell at the default cache ratio.
        assert pipelined.total_seconds <= 0.8 * serial.total_seconds

    def test_busy_seconds_conserved(self, pd_cell):
        serial, pipelined = pd_cell
        # Overlap hides time, it must not delete work: per-queue busy
        # totals still sum to at least the pipelined makespan.
        assert pipelined.serialized_seconds >= pipelined.total_seconds
        assert pipelined.overlap_reduction > 0.0

    def test_queue_reports_cover_three_stages(self, pd_cell):
        _, pipelined = pd_cell
        assert {r.queue for r in pipelined.queue_reports} == {
            "sample", "transfer", "compute",
        }

    def test_sampled_outputs_bit_identical_with_queue_routing(self):
        from repro.algorithms import make_algorithm

        ds = load_dataset("pd", scale=0.25)
        algo = make_algorithm("graphsage", fanouts=(5, 10))
        pipeline = algo.build(ds.graph, ds.train_ids[:128])
        batch = ds.train_ids[:128]
        plain = pipeline.sample_batch(
            batch, ctx=ExecutionContext(V100), rng=new_rng(7)
        )
        routed_ctx = ExecutionContext(V100)
        with routed_ctx.on_queue("sample"):
            routed = pipeline.sample_batch(batch, ctx=routed_ctx, rng=new_rng(7))
        np.testing.assert_array_equal(plain.all_nodes, routed.all_nodes)
        for a, b in zip(plain.layers, routed.layers):
            np.testing.assert_array_equal(a.input_nodes, b.input_nodes)
            np.testing.assert_array_equal(a.output_nodes, b.output_nodes)
            np.testing.assert_array_equal(
                a.matrix.get("csc").rows, b.matrix.get("csc").rows
            )
            np.testing.assert_array_equal(
                a.matrix.get("csc").indptr, b.matrix.get("csc").indptr
            )

    def test_prefetch_depth_validated(self):
        ds = load_dataset("pd", scale=0.25)
        from repro.algorithms import make_algorithm

        algo = make_algorithm("graphsage", fanouts=(5, 10))
        model = GraphSAGEModel(
            ds.features.shape[1], 8, ds.num_classes, num_layers=2,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ShapeError):
            PipelinedTrainer(
                algo.build(ds.graph, ds.train_ids[:64]),
                model,
                ds,
                device=V100,
                prefetch_depth=0,
            )

    def test_prefetch_depth_bounds_sampler_lead(self):
        # With depth 1 the sampler must wait for the previous compute;
        # a deeper window can only start sampling earlier, so the epoch
        # makespan is monotone non-increasing in prefetch depth.
        ds = load_dataset("pd", scale=0.25)
        times = []
        for depth in (1, 2, 4):
            _, pipelined = run_pipeline_cell(
                "graphsage",
                ds,
                device=CPU,  # slow sampler: the prefetch window matters
                train_device=V100,
                epochs=1,
                batch_size=256,
                max_batches=4,
                prefetch_depth=depth,
            )
            times.append(pipelined.total_seconds)
        assert times[1] <= times[0]
        assert times[2] <= times[1]

    def test_cache_disabled_at_zero_ratio(self):
        ds = load_dataset("pd", scale=0.25)
        _, pipelined = run_pipeline_cell(
            "graphsage", ds, device=V100, epochs=1, batch_size=256,
            max_batches=2, cache_ratio=0.0,
        )
        assert pipelined.cache_stats is None

    def test_unknown_algorithm_rejected(self):
        ds = load_dataset("pd", scale=0.25)
        with pytest.raises(ShapeError):
            run_pipeline_cell("deepwalk", ds, device=V100)


# ----------------------------------------------------------------------
# One loop, two clocks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pd_quarter():
    return load_dataset("pd", scale=0.25)


def _graphsage_trainer(trainer_cls, ds, **knobs):
    from repro.algorithms import make_algorithm

    algo = make_algorithm("graphsage", fanouts=(5, 10))
    model = GraphSAGEModel(
        ds.features.shape[1], 8, ds.num_classes, num_layers=2,
        rng=np.random.default_rng(0),
    )
    return trainer_cls(
        algo.build(ds.graph, ds.train_ids[:128]), model, ds,
        device=CPU, train_device=V100, batch_size=128, **knobs,
    )


class TestOneLoopTwoClocks:
    """``Trainer`` and ``PipelinedTrainer`` run one epoch loop; with no
    feature store the schedule moves the makespan and nothing else.  (The
    serial clock's exact busy sum is held by ``test_learning.py``.)"""

    @pytest.fixture(scope="class")
    def serial(self, pd_quarter):
        trainer = _graphsage_trainer(Trainer, pd_quarter)
        return trainer.train(2, max_batches_per_epoch=3)

    @pytest.mark.parametrize("prefetch", [True, False])
    @pytest.mark.parametrize("prefetch_depth", [1, 2, 3])
    def test_schedule_moves_only_the_makespan(
        self, serial, pd_quarter, prefetch_depth, prefetch
    ):
        pipelined = _graphsage_trainer(
            PipelinedTrainer, pd_quarter, cache_ratio=0.0,
            prefetch_depth=prefetch_depth, prefetch=prefetch,
        ).train(2, max_batches_per_epoch=3)
        assert pipelined.sampling_seconds == serial.sampling_seconds
        assert pipelined.training_seconds == serial.training_seconds
        assert pipelined.final_loss == serial.final_loss
        assert pipelined.accuracy_history == serial.accuracy_history
        assert pipelined.total_seconds < serial.total_seconds

    @pytest.mark.xfail(
        strict=True,
        reason="SampledGNN.forward converts each layer to COO on the "
        "sampling context outside every named queue; the fix moves "
        "simulated numbers, so it waits for the declared re-pin",
    )
    def test_no_training_launch_lands_on_default(self, pd_quarter):
        profiler = Profiler()
        _graphsage_trainer(PipelinedTrainer, pd_quarter).train(
            1, max_batches_per_epoch=2, profiler=profiler
        )
        queues = {
            span.attrs["queue"]
            for span in profiler.spans_by_category("kernel")
        }
        assert queues == {"sample", "transfer", "compute"}


# ----------------------------------------------------------------------
# One run, two ledgers
# ----------------------------------------------------------------------
def _standalone_pair(algorithm, ds, *, seed, batch_size, epochs,
                     max_batches, **knobs):
    """What ``run_pipeline_cell`` stands for: two independent trainers."""
    from repro.algorithms import TABLE8_PARAMS, make_algorithm
    from repro.pipeline.executor import _build_model

    def trainer(cls, **extra):
        sampler = make_algorithm(algorithm, **TABLE8_PARAMS[algorithm]).build(
            ds.graph, ds.train_ids[:batch_size]
        )
        model = _build_model(algorithm, ds, seed, len(sampler.samplers))
        return cls(
            sampler, model, ds, device=V100, batch_size=batch_size,
            seed=seed, **extra,
        ).train(epochs, max_batches_per_epoch=max_batches)

    return trainer(Trainer), trainer(PipelinedTrainer, **knobs)


def _without_queue_ends(result):
    fields = dataclasses.asdict(result)
    for report in fields["queue_reports"]:
        del report["end_seconds"]
    return fields


class TestOneRunTwoLedgers:
    """``run_pipeline_cell`` samples and trains each batch once; each of
    the pair it returns equals a standalone run, float for float."""

    @pytest.mark.parametrize(
        ("algorithm", "knobs"),
        [
            ("graphsage", {}),
            ("ladies", {}),
            ("graphsage", {"feature_tiers": True}),
            ("ladies", {"prefetch": False}),
        ],
        ids=["graphsage-flat", "ladies-flat", "graphsage-tiers",
             "ladies-no-prefetch"],
    )
    def test_pair_equals_standalone_runs(self, pd_quarter, algorithm, knobs):
        shape = dict(seed=4, batch_size=128, epochs=2, max_batches=3)
        serial, pipelined = run_pipeline_cell(
            algorithm, pd_quarter, device=V100,
            batch_size=shape["batch_size"], epochs=shape["epochs"],
            max_batches=shape["max_batches"], seed=shape["seed"], **knobs,
        )
        alone_serial, alone_pipelined = _standalone_pair(
            algorithm, pd_quarter, **shape, **knobs
        )
        assert pipelined == alone_pipelined
        # The serial queues' ends follow the shared schedule; nothing
        # reads them.  Every other field is the standalone run's.
        assert _without_queue_ends(serial) == _without_queue_ends(alone_serial)
        assert serial.total_seconds == (
            serial.sampling_seconds + serial.training_seconds
        )

    @pytest.mark.parametrize("algorithm", ["graphsage", "ladies"])
    def test_each_cell_builds_one_sampler_and_one_model(
        self, pd_quarter, algorithm, monkeypatch
    ):
        from repro.algorithms.base import Algorithm
        from repro.pipeline import executor

        calls = {"build": 0, "model": 0}
        build = Algorithm.build
        model_cls = executor.PIPELINE_MODELS[algorithm]

        def counted_build(self, *args, **kwargs):
            calls["build"] += 1
            return build(self, *args, **kwargs)

        def counted_model(*args, **kwargs):
            calls["model"] += 1
            return model_cls(*args, **kwargs)

        monkeypatch.setattr(Algorithm, "build", counted_build)
        monkeypatch.setitem(executor.PIPELINE_MODELS, algorithm, counted_model)
        run_pipeline_cell(
            algorithm, pd_quarter, device=V100, batch_size=128, max_batches=2
        )
        assert calls == {"build": 1, "model": 1}
