"""Profiling & trace subsystem: span tracer, exports, and lane records.

Four layers turn the flat kernel-launch ledger into attributable cost:

* :mod:`repro.profile.spans` — a nested span tracer on two clocks (host
  wall time and simulated device time), fed by
  :class:`~repro.device.ExecutionContext`,
  :class:`~repro.ir.passes.base.PassManager`, and
  :class:`~repro.sampler.CompiledSampler`;
* :mod:`repro.profile.chrome` — Chrome-trace/Perfetto JSON export;
* :mod:`repro.profile.report` — the Table-9-style text report
  (time-by-kernel, launches, SM%, pool peak, pass pipeline);
* :mod:`repro.profile.trajectory` — the one-record ``BENCH_<tag>.json``
  goldens and the key-by-key diff against the record a run replaced.

CLI: ``gsampler-repro profile <algorithm> --device <spec>``.

Profiling is opt-in; with no active profiler every hook is one ``is not
None`` check and simulated times are bit-identical to an uninstrumented
run.
"""

from repro.profile.chrome import to_chrome_trace, write_chrome_trace
from repro.profile.report import build_text_report, kernel_table, pass_table
from repro.profile.spans import Profiler, Span, active_profiler
from repro.profile.trajectory import bench_path, moved, write_record

__all__ = [
    "Profiler",
    "Span",
    "active_profiler",
    "bench_path",
    "build_text_report",
    "kernel_table",
    "moved",
    "pass_table",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_record",
]
