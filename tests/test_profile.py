"""Profiling-subsystem tests: spans, exports, lane records, and the CLI.

The overriding contract under test: profiling is an *observer*.  With a
profiler attached (or not), simulated times, launch ledgers, and sampled
results are bit-identical — the tracer only attributes cost, never
changes it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines import GSamplerSystem
from repro.bench import run_sampling_epoch
from repro.cli import main
from repro.datasets import load_dataset
from repro.device import V100, ExecutionContext
from repro.errors import GSamplerError
from repro.profile import (
    Profiler,
    active_profiler,
    bench_path,
    build_text_report,
    moved,
    to_chrome_trace,
    write_chrome_trace,
    write_record,
)
from repro.profile.chrome import DEVICE_PID, HOST_PID


@pytest.fixture(scope="module")
def pd():
    return load_dataset("pd", scale=0.1)


class TestSpans:
    def test_nesting_and_balance(self):
        profiler = Profiler()
        with profiler.span("epoch"):
            with profiler.span("batch[0]", "batch"):
                pass
            with profiler.span("batch[1]", "batch"):
                pass
        assert profiler.open_spans() == 0
        epoch, b0, b1 = profiler.spans
        assert epoch.parent == -1 and epoch.depth == 0
        assert b0.parent == epoch.index and b0.depth == 1
        assert b1.parent == epoch.index
        # Children lie inside the parent's host interval.
        assert epoch.host_start <= b0.host_start <= b0.host_end <= epoch.host_end

    def test_end_merges_attrs(self):
        profiler = Profiler()
        profiler.begin("pass:dce", "pass", iteration=1)
        span = profiler.end(changed=True, rewrites=3)
        assert span.attrs == {"iteration": 1, "changed": True, "rewrites": 3}

    def test_activation_is_scoped(self):
        profiler = Profiler()
        assert active_profiler() is None
        with profiler.activate():
            assert active_profiler() is profiler
            inner = Profiler()
            with inner.activate():
                assert active_profiler() is inner
            assert active_profiler() is profiler
        assert active_profiler() is None

    def test_kernel_spans_mirror_the_ledger(self):
        profiler = Profiler()
        ctx = ExecutionContext(V100)
        profiler.attach(ctx)
        with profiler.span("epoch"):
            ctx.record("a", bytes_read=1e6, tasks=1000)
            ctx.record("b", flops=1e9, tasks=1000)
        kernels = profiler.spans_by_category("kernel")
        assert [s.name for s in kernels] == ["kernel:a", "kernel:b"]
        assert sum(s.sim_duration for s in kernels) == pytest.approx(ctx.elapsed)
        # The simulated intervals tile the ledger without gaps.
        assert kernels[0].sim_start == pytest.approx(0.0)
        assert kernels[1].sim_start == pytest.approx(kernels[0].sim_end)
        epoch = profiler.spans[0]
        assert epoch.sim_duration == pytest.approx(ctx.elapsed)

    def test_unattached_profiler_records_zero_sim_time(self):
        profiler = Profiler()
        with profiler.span("compile", "compile"):
            pass
        assert profiler.spans[0].sim_duration == 0.0


class TestObserverContract:
    """Profiling must not change what is measured."""

    def test_epoch_stats_identical_with_and_without_profiler(self, pd):
        kwargs = dict(device=V100, batch_size=128, max_batches=3, seed=7)
        plain = run_sampling_epoch(GSamplerSystem(), "graphsage", pd, **kwargs)
        profiler = Profiler()
        traced = run_sampling_epoch(
            GSamplerSystem(), "graphsage", pd, profiler=profiler, **kwargs
        )
        assert traced.sim_seconds == plain.sim_seconds  # bit-identical
        assert traced.launches == plain.launches
        assert traced.peak_memory_bytes == plain.peak_memory_bytes
        assert traced.sm_percent == plain.sm_percent

    def test_epoch_spans_nest_compile_pass_batch_kernel(self, pd):
        profiler = Profiler()
        run_sampling_epoch(
            GSamplerSystem(), "graphsage", pd,
            device=V100, batch_size=128, max_batches=3, profiler=profiler,
        )
        assert profiler.open_spans() == 0
        categories = {s.category for s in profiler.spans}
        assert {"compile", "pass", "epoch", "batch", "kernel"} <= categories
        by_name = {s.name: s for s in profiler.spans}
        epoch = by_name["epoch"]
        batches = [s for s in profiler.spans if s.category == "batch"]
        assert batches and all(s.parent == epoch.index for s in batches)
        # Every kernel span sits under a batch (via the exec span).
        for kernel in profiler.spans_by_category("kernel"):
            ancestor = kernel
            seen = set()
            while ancestor.parent != -1:
                ancestor = profiler.spans[ancestor.parent]
                seen.add(ancestor.category)
            assert "epoch" in seen
        # Pass spans nest under a compile span: no pass runs at execution.
        for p in profiler.spans_by_category("pass"):
            assert profiler.spans[p.parent].category == "compile"
        # Kernel sim time accounts for the whole ledger.
        ctx = profiler.context
        assert ctx is not None
        total = sum(s.sim_duration for s in profiler.spans_by_category("kernel"))
        assert total == pytest.approx(ctx.elapsed)


    def test_batch_span_sizes_count_seeds_under_every_system(self, pd):
        """A super-batched span's ``size`` was its group's batch count: a
        5-batch epoch read 4, 1 under ``gsampler`` and 128 x 5 under
        ``dgl-gpu``."""
        from repro.baselines import make_system

        sizes = {}
        for name in ("gsampler", "dgl-gpu"):
            profiler = Profiler()
            run_sampling_epoch(
                make_system(name), "graphsage", pd,
                device=V100, batch_size=128, max_batches=5, profiler=profiler,
            )
            sizes[name] = [
                s.attrs["size"] for s in profiler.spans_by_category("batch")
            ]
        assert len(sizes["gsampler"]) < len(sizes["dgl-gpu"]) == 5
        assert sum(sizes["gsampler"]) == sum(sizes["dgl-gpu"]) == 5 * 128


class TestPassStats:
    def test_compile_produces_per_pass_stats(self, pd):
        from repro.ir.passes.base import PassStat
        from repro.sampler import compile_sampler

        def layer(A, frontiers, K):
            sub = A[:, frontiers]
            sampled = sub.individual_sample(K)
            return sampled, sampled.row()

        seeds = pd.train_ids[:64]
        sampler = compile_sampler(
            layer, pd.graph, seeds, constants={"K": 4}
        )
        assert sampler.pass_stats
        assert all(isinstance(s, PassStat) for s in sampler.pass_stats)
        names = {s.name for s in sampler.pass_stats}
        assert "dce" in names and "layout_selection" in names
        assert all(s.wall_seconds >= 0.0 for s in sampler.pass_stats)
        changed = [s for s in sampler.pass_stats if s.changed]
        assert changed and all(s.rewrites >= 1 for s in changed)
        unchanged = [s for s in sampler.pass_stats if not s.changed]
        assert all(s.rewrites == 0 for s in unchanged)
        assert all(
            s.nodes_before >= s.nodes_after for s in sampler.pass_stats
        ), "no optimization pass grows this one-layer program"


class TestChromeExport:
    def _profiled_run(self, pd) -> Profiler:
        profiler = Profiler()
        run_sampling_epoch(
            GSamplerSystem(), "graphsage", pd,
            device=V100, batch_size=128, max_batches=2, profiler=profiler,
        )
        return profiler

    def test_trace_structure(self, pd):
        trace = to_chrome_trace(self._profiled_run(pd))
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        assert all(e["dur"] >= 0 for e in complete)
        assert all(e["ts"] >= 0 for e in complete)
        assert {e["pid"] for e in complete} == {HOST_PID, DEVICE_PID}
        kernels = [e for e in complete if e["cat"] == "kernel"]
        assert any(e["pid"] == DEVICE_PID for e in kernels)
        metadata = [e for e in events if e["ph"] == "M"]
        assert {m["pid"] for m in metadata} == {HOST_PID, DEVICE_PID}

    def test_write_is_valid_json(self, pd, tmp_path):
        profiler = self._profiled_run(pd)
        path = write_chrome_trace(profiler, tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["traceEvents"]
        assert loaded == to_chrome_trace(profiler)

    def test_device_track_nests_kernels_inside_batches(self, pd):
        profiler = self._profiled_run(pd)
        batches = {s.index: s for s in profiler.spans if s.category == "batch"}
        for kernel in profiler.spans_by_category("kernel"):
            ancestor = kernel
            while ancestor.parent != -1:
                ancestor = profiler.spans[ancestor.parent]
                if ancestor.index in batches:
                    assert ancestor.sim_start <= kernel.sim_start
                    assert kernel.sim_end <= ancestor.sim_end + 1e-12
                    break


class TestTextReport:
    def test_report_contains_table9_columns(self, pd):
        profiler = Profiler()
        stats = run_sampling_epoch(
            GSamplerSystem(), "graphsage", pd,
            device=V100, batch_size=128, max_batches=2, profiler=profiler,
        )
        ctx = profiler.context
        report = build_text_report(
            ctx, title="Profile", wall_seconds=stats.wall_seconds
        )
        assert "SM utilization" in report
        assert "pool peak" in report
        assert "kernel launches" in report
        assert "Launches" in report  # per-kernel table header
        assert str(ctx.launch_count()) in report


class TestTrajectory:
    META = {"algorithm": "graphsage", "dataset": "pd", "device": "v100"}

    def _record(self, sim=1.0, launches=10, peak=1000, kernels=None, **meta):
        return {
            "meta": self.META | meta,
            "metrics": {
                "sim_seconds": sim,
                "launches": launches,
                "peak_bytes": peak,
                "time_by_kernel": dict(kernels or {"k": sim}),
            },
        }

    def _keys(self, old, new):
        return [key for key, _, _ in moved(old, new)]

    def test_write_returns_the_record_it_replaced(self, tmp_path):
        path = bench_path(tmp_path, "t")
        first, second = self._record(), self._record(sim=1.1)
        assert write_record(path, tag="t", **first) is None
        once = path.read_bytes()
        previous = write_record(path, tag="t", **first)
        assert path.read_bytes() == once and not moved(previous, first)
        previous = write_record(path, tag="t", **second)
        assert previous["metrics"]["sim_seconds"] == 1.0
        # One record, nothing host- or history-dependent in it.
        assert json.loads(path.read_text()) == {
            "schema": 2, "tag": "t", **second
        }

    def test_comparator_flags_launches_and_peak(self):
        old = self._record()
        new = self._record(launches=20, peak=500)
        assert moved(old, new) == [
            ("metrics.launches", 10, 20),
            ("metrics.peak_bytes", 1000, 500),  # any move, either direction
        ]

    def test_vanished_flagged_metric_is_a_regression(self):
        """Dropping ``p99_ms`` from the record must not pass the gate —
        and neither must a key the replaced record never carried."""
        old = self._record()
        old["metrics"]["p99_ms"] = 0.5
        new = self._record()
        assert moved(old, new) == [("metrics.p99_ms", 0.5, "<missing>")]
        assert moved(new, old) == [("metrics.p99_ms", "<missing>", 0.5)]
        assert not moved(new, new)

    def test_one_kernel_moved(self):
        old = self._record(kernels={"slice": 1e-12, "select": 2.0})
        new = self._record(kernels={"slice": 2e-12, "select": 2.0})
        assert self._keys(old, new) == ["metrics.time_by_kernel.slice"]

    def test_differing_meta_is_moved(self):
        assert self._keys(self._record(), self._record(seed=1)) == ["meta.seed"]

    def test_nan_refused_before_the_file_is_touched(self, tmp_path):
        path = bench_path(tmp_path, "t")
        write_record(path, tag="t", **self._record())
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_record(path, tag="t", **self._record(sim=float("nan")))
        assert path.read_bytes() == before

    def test_schema_1_file_is_refused_not_misread(self, tmp_path):
        path = bench_path(tmp_path, "t")
        history = {"schema": 1, "tag": "t", "records": [{"run": 1}]}
        path.write_text(json.dumps(history))
        with pytest.raises(GSamplerError, match="not a schema-2 lane record"):
            write_record(path, tag="t", **self._record())
        assert json.loads(path.read_text()) == history


class TestProfileCli:
    ARGS = [
        "profile", "graphsage", "--device", "v100", "--dataset", "pd",
        "--scale", "0.1", "--batch-size", "128", "--max-batches", "2",
    ]

    def test_profile_writes_trace_and_bench_record(self, tmp_path, capsys):
        assert main(self.ARGS + ["--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "SM utilization" in out and "Pass pipeline" in out
        trace_path = tmp_path / "trace_gsampler_graphsage_pd_v100.json"
        trace = json.loads(trace_path.read_text())
        assert all(
            e.get("dur", 0) >= 0 for e in trace["traceEvents"]
        )
        bench = json.loads(
            (tmp_path / "BENCH_gsampler_graphsage_pd_v100.json").read_text()
        )
        assert bench.keys() == {"schema", "tag", "meta", "metrics"}
        metrics = bench["metrics"]
        assert metrics["sim_seconds"] > 0
        assert metrics["launches"] > 0
        assert metrics["time_by_kernel"]
        # Host clocks are printed, not recorded.
        assert "host wall time" in out and "compile wall time" in out
        assert not [key for key in metrics if "wall" in key]

    def test_profile_is_deterministic_across_runs(self, tmp_path, capsys):
        bench_file = tmp_path / "BENCH_gsampler_graphsage_pd_v100.json"
        assert main(self.ARGS + ["--out-dir", str(tmp_path)]) == 0
        first = bench_file.read_bytes()
        assert main(self.ARGS + ["--out-dir", str(tmp_path)]) == 0
        assert "identical to the record it replaced" in capsys.readouterr().out
        assert bench_file.read_bytes() == first

    def test_fail_on_regression_exit_code(self, tmp_path, capsys):
        assert main(self.ARGS + ["--out-dir", str(tmp_path)]) == 0
        # Doctor the record so the next run's differs from it — in the
        # "improved" direction: any move of a simulated number fails.
        bench_file = tmp_path / "BENCH_gsampler_graphsage_pd_v100.json"
        doctored = json.loads(bench_file.read_text())
        doctored["metrics"]["sim_seconds"] *= 2.0
        bench_file.write_text(json.dumps(doctored))
        code = main(
            self.ARGS + ["--out-dir", str(tmp_path), "--fail-on-regression"]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "MOVED" in out and "metrics.sim_seconds" in out
        # Without the flag the move is reported but not fatal.
        bench_file.write_text(json.dumps(doctored))
        assert main(self.ARGS + ["--out-dir", str(tmp_path)]) == 0

    def test_unsupported_cell_exits_nonzero(self, tmp_path, capsys):
        code = main(
            [
                "profile", "ladies", "--system", "skywalker",
                "--scale", "0.1", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 1
        assert "does not support" in capsys.readouterr().err
