"""Profiled epoch: the Table-9-style attribution report for GraphSAGE.

Unlike the figure/table benchmarks, this one exercises the
``repro.profile`` subsystem end to end under the bench harness: span
capture across compile and execution, the text report, the Chrome-trace
export, and the lane-record round trip — while asserting the profiler's
core contract, that tracing attributes every simulated second without
changing any measured number.
"""

from __future__ import annotations

import json

from repro.baselines import GSamplerSystem
from repro.bench import run_sampling_epoch
from repro.datasets import load_dataset
from repro.device import V100
from repro.profile import (
    Profiler,
    bench_path,
    build_text_report,
    moved,
    write_chrome_trace,
    write_record,
)

from benchmarks.conftest import BENCH_SCALE, MAX_BATCHES


def test_profile_graphsage_pd(benchmark, report, tmp_path):
    ds = load_dataset("pd", scale=BENCH_SCALE)
    profiler = Profiler()

    def run():
        return run_sampling_epoch(
            GSamplerSystem(), "graphsage", ds, device=V100,
            batch_size=512, max_batches=MAX_BATCHES, profiler=profiler,
        )

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    ctx = profiler.context
    assert ctx is not None and profiler.open_spans() == 0

    # Attribution is complete: the kernel spans tile the whole ledger.
    kernel_sim = sum(
        s.sim_duration for s in profiler.spans_by_category("kernel")
    )
    assert abs(kernel_sim - stats.sim_seconds) < 1e-12

    # Wall time is intentionally omitted: the saved report must be
    # deterministic so repeated runs leave benchmarks/results unchanged.
    report(
        "profile_graphsage",
        build_text_report(
            ctx,
            title=(
                f"Profile — graphsage on PD (v100), "
                f"{stats.num_batches} batches"
            ),
        ),
    )

    trace_path = write_chrome_trace(profiler, tmp_path / "trace.json")
    trace = json.loads(trace_path.read_text())
    assert all(e.get("dur", 0) >= 0 for e in trace["traceEvents"])

    # Lane round trip: rewriting an identical record moves nothing.
    metrics = {
        "sim_seconds": stats.sim_seconds,
        "launches": stats.launches,
        "peak_bytes": stats.peak_memory_bytes,
        "time_by_kernel": ctx.time_by_kernel(),
    }
    path = bench_path(tmp_path, "profile_graphsage_pd_v100")
    meta = {"algorithm": "graphsage", "dataset": "pd", "device": "v100"}
    record = {"meta": meta, "metrics": metrics}
    assert write_record(path, tag="profile_graphsage_pd_v100", **record) is None
    first = path.read_bytes()
    previous = write_record(path, tag="profile_graphsage_pd_v100", **record)
    assert moved(previous, record) == [] and path.read_bytes() == first
