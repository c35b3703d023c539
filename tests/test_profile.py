"""Profiling-subsystem tests: spans, exports, trajectories, and the CLI.

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
from repro.profile import (
    Profiler,
    active_profiler,
    append_record,
    bench_path,
    build_text_report,
    compare_latest,
    compare_metrics,
    load_trajectory,
    to_chrome_trace,
    write_chrome_trace,
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
        assert profiler.children(epoch) == [b0, b1]
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
        # Pass spans nest under a compile span, except the lazy
        # super-batch rewrite, which runs at first execution.
        for p in profiler.spans_by_category("pass"):
            parent = profiler.spans[p.parent].category
            if p.name == "pass:superbatch":
                assert parent == "exec"
            else:
                assert parent == "compile"
        # Kernel sim time accounts for the whole ledger.
        ctx = profiler.context
        assert ctx is not None
        total = sum(s.sim_duration for s in profiler.spans_by_category("kernel"))
        assert total == pytest.approx(ctx.elapsed)


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

    def test_pass_report_aggregates(self, pd):
        from repro.sampler import compile_sampler

        def layer(A, frontiers, K):
            sub = A[:, frontiers]
            sampled = sub.individual_sample(K)
            return sampled, sampled.row()

        sampler = compile_sampler(
            layer, pd.graph, pd.train_ids[:64], constants={"K": 4}
        )
        from repro.ir.passes.base import PassReport

        report = PassReport(
            applied=[s.name for s in sampler.pass_stats if s.changed],
            iterations=1,
            stats=sampler.pass_stats,
        )
        assert report.wall_seconds == pytest.approx(
            sum(s.wall_seconds for s in sampler.pass_stats)
        )
        counts = report.rewrite_counts()
        assert set(counts) == {s.name for s in sampler.pass_stats if s.changed}

    def test_superbatch_rewrite_is_measured(self, pd):
        from repro.sampler import compile_sampler

        def layer(A, frontiers, K):
            sub = A[:, frontiers]
            sampled = sub.individual_sample(K)
            return sampled, sampled.row()

        sampler = compile_sampler(
            layer, pd.graph, pd.train_ids[:64], constants={"K": 4}
        )
        before = len(sampler.pass_stats)
        sampler.superbatch_ir()
        assert len(sampler.pass_stats) == before + 1
        assert sampler.pass_stats[-1].name == "superbatch"
        sampler.superbatch_ir()  # cached: no second measurement
        assert len(sampler.pass_stats) == before + 1


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
        path = write_chrome_trace(self._profiled_run(pd), tmp_path / "t.json")
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["traceEvents"]

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

    def _metrics(self, sim=1.0, launches=10, peak=1000, kernels=None):
        return {
            "sim_seconds": sim,
            "launches": launches,
            "peak_bytes": peak,
            "wall_seconds": 5.0,
            "time_by_kernel": dict(kernels or {"k": sim}),
        }

    def test_append_and_reload(self, tmp_path):
        path = bench_path(tmp_path, "t")
        record, previous = append_record(
            path, tag="t", meta=self.META, metrics=self._metrics()
        )
        assert previous is None and record["run"] == 1
        record2, previous2 = append_record(
            path, tag="t", meta=self.META, metrics=self._metrics(sim=1.1)
        )
        assert record2["run"] == 2
        assert previous2["metrics"]["sim_seconds"] == 1.0
        data = load_trajectory(path)
        assert len(data["records"]) == 2 and data["tag"] == "t"

    def test_comparator_flags_growth_beyond_threshold(self):
        old = self._metrics(sim=1.0, launches=10, peak=1000)
        new = self._metrics(sim=1.2, launches=10, peak=1050)
        flagged = compare_metrics(old, new, threshold=0.10)
        assert [r.metric for r in flagged] == ["sim_seconds", "kernel:k"]
        assert flagged[0].ratio == pytest.approx(1.2)
        # Below threshold: nothing flagged.
        assert not compare_metrics(old, self._metrics(sim=1.05), threshold=0.10)
        # Improvements are never regressions.
        assert not compare_metrics(old, self._metrics(sim=0.5), threshold=0.10)

    def test_comparator_flags_launches_and_peak(self):
        old = self._metrics()
        new = self._metrics(launches=20, peak=5000)
        metrics = {r.metric for r in compare_metrics(old, new)}
        assert metrics == {"launches", "peak_bytes"}

    def test_wall_seconds_never_flagged(self):
        old = self._metrics()
        new = dict(self._metrics(), wall_seconds=50.0)
        assert not compare_metrics(old, new)

    def test_vanished_flagged_metric_is_a_regression(self):
        """Dropping ``p99_ms`` from the record must not pass the gate;
        a metric neither record carries (old schemas) is still skipped."""
        old = dict(self._metrics(), p99_ms=0.5)
        new = self._metrics()
        (flagged,) = compare_metrics(old, new)
        assert flagged.metric == "p99_ms" and flagged.new is None
        assert flagged.describe() == "p99_ms: 0.5 -> missing"
        assert not compare_metrics(new, new)
        # New in this record: nothing to compare against yet.
        assert not compare_metrics(new, old)

    def test_compare_latest(self, tmp_path):
        path = bench_path(tmp_path, "t")
        append_record(path, tag="t", meta=self.META, metrics=self._metrics())
        assert compare_latest(path) == []  # single record: nothing to diff
        append_record(
            path, tag="t", meta=self.META, metrics=self._metrics(sim=2.0)
        )
        flagged = compare_latest(path, threshold=0.10)
        assert any(r.metric == "sim_seconds" for r in flagged)


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
        assert len(bench["records"]) == 1
        metrics = bench["records"][0]["metrics"]
        assert metrics["sim_seconds"] > 0
        assert metrics["launches"] > 0
        assert metrics["time_by_kernel"]

    def test_profile_is_deterministic_across_runs(self, tmp_path, capsys):
        assert main(self.ARGS + ["--out-dir", str(tmp_path)]) == 0
        assert main(self.ARGS + ["--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        bench = json.loads(
            (tmp_path / "BENCH_gsampler_graphsage_pd_v100.json").read_text()
        )
        first, second = (r["metrics"] for r in bench["records"])
        assert first["sim_seconds"] == second["sim_seconds"]
        assert first["time_by_kernel"] == second["time_by_kernel"]

    def test_fail_on_regression_exit_code(self, tmp_path, capsys):
        assert main(self.ARGS + ["--out-dir", str(tmp_path)]) == 0
        # Rewrite history to claim the previous run was much cheaper, so
        # the next run must look like a regression.
        bench_file = tmp_path / "BENCH_gsampler_graphsage_pd_v100.json"
        data = json.loads(bench_file.read_text())
        data["records"][-1]["metrics"]["sim_seconds"] *= 0.5
        bench_file.write_text(json.dumps(data))
        code = main(
            self.ARGS + ["--out-dir", str(tmp_path), "--fail-on-regression"]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "REGRESSIONS" in out
        # Without the flag the regression is reported but not fatal.
        data = json.loads(bench_file.read_text())
        data["records"][-1]["metrics"]["sim_seconds"] *= 0.5
        bench_file.write_text(json.dumps(data))
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
