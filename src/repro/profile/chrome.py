"""Chrome-trace / Perfetto export of a recorded span tree.

The `Trace Event Format`_ is the JSON schema understood by
``chrome://tracing`` and https://ui.perfetto.dev: a flat list of complete
("X"-phase) events with microsecond timestamps, grouped into processes
and threads.  We emit two synthetic processes:

* **pid 1 — host**: every span, on the host wall clock (what the Python
  process actually spent);
* **pid 2 — device (simulated)**: spans that accumulated simulated
  device seconds (epoch/batch/kernel), on the ledger clock — the
  reproduction's stand-in for a CUDA timeline.

Nesting is conveyed positionally, exactly as Chrome renders native
traces: a child's interval lies inside its parent's, so the viewer stacks
them.  All durations are clamped non-negative.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
import pathlib

from repro.profile.spans import Profiler, Span

#: Trace timestamps are integer-ish microseconds.
_US = 1e6

HOST_PID = 1
DEVICE_PID = 2


def _event(
    span: Span, *, pid: int, start: float, duration: float, tid: int = 1
) -> dict[str, object]:
    return {
        "name": span.name,
        "cat": span.category,
        "ph": "X",
        "ts": round(start * _US, 3),
        "dur": round(max(0.0, duration) * _US, 3),
        "pid": pid,
        "tid": tid,
        "args": {k: v for k, v in span.attrs.items()},
    }


def to_chrome_trace(profiler: Profiler) -> dict[str, object]:
    """Build the trace-event dictionary for ``profiler``'s spans."""
    events: list[dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": HOST_PID,
            "args": {"name": "host (wall clock)"},
        },
        {
            "name": "process_name",
            "ph": "M",
            "pid": DEVICE_PID,
            "args": {"name": "device (simulated)"},
        },
    ]
    # Device queues map to threads of the simulated-device process, so
    # overlapping queue timelines render as parallel tracks (exactly how
    # Chrome shows real CUDA streams).  The serial/implicit queue is
    # tid 1; named queues get stable tids in order of first appearance.
    queue_tids: dict[str, int] = {"default": 1}
    for span in profiler.spans:
        queue = span.attrs.get("queue")
        if isinstance(queue, str) and queue not in queue_tids:
            tid = len(queue_tids) + 1
            queue_tids[queue] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": DEVICE_PID,
                    "tid": tid,
                    "args": {"name": f"queue:{queue}"},
                }
            )
    for span in profiler.spans:
        events.append(
            _event(
                span,
                pid=HOST_PID,
                start=span.host_start,
                duration=span.host_duration,
            )
        )
        if span.sim_duration > 0.0 or span.category == "kernel":
            queue = span.attrs.get("queue")
            tid = queue_tids.get(queue, 1) if isinstance(queue, str) else 1
            events.append(
                _event(
                    span,
                    pid=DEVICE_PID,
                    start=span.sim_start,
                    duration=span.sim_duration,
                    tid=tid,
                )
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(profiler: Profiler, path: str | pathlib.Path) -> pathlib.Path:
    """Serialize the trace to ``path``, compact, and return it.

    Compact separators keep ``json.dumps`` on its C encoder; any
    ``indent`` falls back to the pure-Python one, several times slower.
    """
    path = pathlib.Path(path)
    path.write_text(
        json.dumps(to_chrome_trace(profiler), separators=(",", ":"))
    )
    return path
