"""Benchmark trajectory records (``BENCH_<tag>.json``) and the comparator.

A trajectory file accumulates one record per profiled run of the same
(algorithm, dataset, device) cell, so the repository's history answers
"did this change make the hot path faster or slower?" with data instead
of guesswork.  The comparator diffs the newest record against the one
before it and flags any *deterministic* metric (simulated seconds, launch
count, pool peak, per-kernel seconds) that regressed beyond a relative
threshold — host wall time is recorded but never flagged, because it
varies with machine load.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time

#: Metrics compared by :func:`compare_metrics`; all are deterministic
#: under the simulator, so any change is a real behavioural change.
#: ``p99_ms`` only appears in serving trajectories (``BENCH_serve_*``);
#: metrics absent from both records are skipped, so other tags are
#: unaffected.
FLAGGED_METRICS = ("sim_seconds", "launches", "peak_bytes", "p99_ms")

#: Per-kernel times below this (seconds) are ignored by the comparator:
#: a 10% swing on a nanosecond kernel is noise amplification, not signal.
KERNEL_FLOOR_SECONDS = 1e-9

SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class Regression:
    """One metric that got worse beyond the threshold, or vanished."""

    metric: str
    old: float
    #: ``None`` when the new record no longer carries the metric.
    new: float | None

    @property
    def ratio(self) -> float:
        if self.new is None or not self.old:
            return float("inf")
        return self.new / self.old

    def describe(self) -> str:
        if self.new is None:
            return f"{self.metric}: {self.old:.6g} -> missing"
        return (
            f"{self.metric}: {self.old:.6g} -> {self.new:.6g} "
            f"({(self.ratio - 1.0) * 100.0:+.1f}%)"
        )


def bench_path(directory: str | pathlib.Path, tag: str) -> pathlib.Path:
    """The trajectory file for ``tag`` under ``directory``."""
    return pathlib.Path(directory) / f"BENCH_{tag}.json"


def load_trajectory(path: str | pathlib.Path) -> dict:
    """Read a trajectory file; an empty skeleton if it does not exist."""
    path = pathlib.Path(path)
    if not path.exists():
        return {"schema": SCHEMA_VERSION, "tag": "", "records": []}
    data = json.loads(path.read_text())
    data.setdefault("records", [])
    return data


def append_record(
    path: str | pathlib.Path,
    *,
    tag: str,
    meta: dict[str, object],
    metrics: dict[str, object],
) -> tuple[dict, dict | None]:
    """Append one run record; returns ``(new_record, previous_record)``."""
    path = pathlib.Path(path)
    data = load_trajectory(path)
    data["schema"] = SCHEMA_VERSION
    data["tag"] = tag
    previous = data["records"][-1] if data["records"] else None
    record = {
        "run": len(data["records"]) + 1,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "meta": dict(meta),
        "metrics": dict(metrics),
    }
    data["records"].append(record)
    path.write_text(json.dumps(data, indent=1))
    return record, previous


def compare_metrics(
    old: dict[str, object],
    new: dict[str, object],
    *,
    threshold: float = 0.10,
) -> list[Regression]:
    """Regressions in ``new`` relative to ``old`` beyond ``threshold``.

    A metric regresses when it *grows* by more than ``threshold``
    (relative) or when the new record dropped it.  Metrics the old record
    lacks are skipped, so records written by older schema versions still
    compare.
    """
    regressions: list[Regression] = []
    for name in FLAGGED_METRICS:
        if name not in old:
            continue
        a = float(old[name])  # type: ignore[arg-type]
        b = float(new[name]) if name in new else None  # type: ignore[arg-type]
        if b is None or (a >= 0 and b > a * (1.0 + threshold)):
            regressions.append(Regression(metric=name, old=a, new=b))
    old_kernels = old.get("time_by_kernel")
    new_kernels = new.get("time_by_kernel")
    if isinstance(old_kernels, dict) and isinstance(new_kernels, dict):
        for kernel, seconds in sorted(old_kernels.items()):
            if kernel not in new_kernels:
                continue
            a, b = float(seconds), float(new_kernels[kernel])
            if a > KERNEL_FLOOR_SECONDS and b > a * (1.0 + threshold):
                regressions.append(
                    Regression(metric=f"kernel:{kernel}", old=a, new=b)
                )
    return regressions


def compare_latest(
    path: str | pathlib.Path, *, threshold: float = 0.10
) -> list[Regression]:
    """Compare the last two records of a trajectory file."""
    records = load_trajectory(path)["records"]
    if len(records) < 2:
        return []
    return compare_metrics(
        records[-2]["metrics"], records[-1]["metrics"], threshold=threshold
    )
