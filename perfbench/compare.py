"""``compare A.json B.json``: a verdict per workload x end-to-end metric.

``A`` is the parent, ``B`` the change.  Host throughput is compared
round by round (each timed round's host seconds are one sample);
single-valued metrics are their own median.  Only the metrics defined
on a workload are judged.  Verdicts use the bounds of ``BENCHMARK.json``:

* ``unresolved`` — either side's quartile spread is wider than the bound
  and the two quartile ranges overlap: the runs cannot tell;
* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``same`` — otherwise.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics

from perfbench import spec

#: Metrics with one sample per timed round, and the per-round work that
#: turns a round's wall time into them.
_PER_ROUND = {
    "host_seeds_per_s": "seeds_per_round",
    "host_req_per_s": "requests_per_round",
}


class Incomparable(ValueError):
    """The two files do not describe the same benchmark."""


def samples(record: dict, metric: str) -> list[float]:
    """The metric's samples in one workload record."""
    if metric in _PER_ROUND:
        work = record[_PER_ROUND[metric]]
        return [work / host_s for host_s in record["round_host_s"]]
    return [record["end_to_end"][metric]["value"]]


#: ``(median, q1, q3)`` of a metric's samples.
Summary = tuple[float, float, float]


def summary(values: list[float]) -> Summary:
    """``(median, q1, q3)``; one sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def _share(amount: float, base: float) -> float:
    """``amount`` as a share of ``|base|``.

    A median can be zero (no request met the latency limit, say): any
    move off a zero base is then an infinite share, and none is none.
    """
    if base:
        return amount / abs(base)
    return math.copysign(math.inf, amount) if amount else 0.0


def verdict(parent: Summary, change: Summary, *, better: str, bound: float) -> str:
    """Compare two ``(median, q1, q3)`` summaries under ``bound``."""
    p_med, p_q1, p_q3 = parent
    c_med, c_q1, c_q3 = change
    spread = max(_share(p_q3 - p_q1, p_med), _share(c_q3 - c_q1, c_med))
    if spread > bound and p_q1 <= c_q3 and c_q1 <= p_q3:
        return "unresolved"
    worse_by = _share(c_med - p_med, p_med)
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def _check_comparable(a: dict, b: dict) -> list[str]:
    if a.get("schema") != b.get("schema"):
        raise Incomparable("result files have different schemas")
    shared = [name for name in a["workloads"] if name in b["workloads"]]
    if not shared:
        raise Incomparable("the two files share no workload")
    for name in shared:
        left, right = a["workloads"][name], b["workloads"][name]
        for key in ("definition", "quick"):
            if left[key] != right[key]:
                raise Incomparable(
                    f"{name}: workload {key} differs: "
                    f"{left[key]!r} vs {right[key]!r}"
                )
    return shared


def compare(a: dict, b: dict) -> tuple[list[dict], bool]:
    """Rows of the comparison and whether any of them is a regression.

    The bounds are always those of this checkout's ``BENCHMARK.json``.
    """
    benchmark = spec.load_benchmark()
    rows = []
    regressed = False
    for name in _check_comparable(a, b):
        parent, change = a["workloads"][name], b["workloads"][name]
        for metric in benchmark["end_to_end"]:
            if name not in spec.DEFINED_ON[metric["name"]]:
                continue
            p = summary(samples(parent, metric["name"]))
            c = summary(samples(change, metric["name"]))
            outcome = verdict(
                p, c, better=metric["better"], bound=metric["bound"]
            )
            regressed |= outcome == "worse"
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "parent": p,
                    "change": c,
                    "ratio": c[0] / p[0] if p[0] else None,
                    "verdict": outcome,
                }
            )
        for check, unit in spec.ABSOLUTE_CHECKS.items():
            worse = change[check] > parent[check]
            regressed |= worse
            rows.append(
                {
                    "workload": name,
                    "metric": check,
                    "unit": unit,
                    "parent": (parent[check],) * 3,
                    "change": (change[check],) * 3,
                    "ratio": None,
                    "verdict": "worse" if worse else "same",
                }
            )
    return rows, regressed


def _cell(stats: Summary) -> str:
    median, q1, q3 = stats
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def format_rows(rows: list[dict]) -> str:
    lines = [
        "workload | metric | parent median [q1, q3] | change median [q1, q3] "
        "| change/parent | verdict"
    ]
    for row in rows:
        ratio = (
            "n/a"
            if row["ratio"] is None
            else f"{row['ratio']:.4f} of {row['parent'][0]:.6g} {row['unit']}"
        )
        lines.append(
            " | ".join(
                [
                    row["workload"],
                    row["metric"],
                    _cell(row["parent"]),
                    _cell(row["change"]),
                    ratio,
                    row["verdict"],
                ]
            )
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    try:
        rows, regressed = compare(a, b)
    except Incomparable as error:
        print(f"refusing to compare: {error}")
        return 2
    print(format_rows(rows))
    counts = {
        v: sum(row["verdict"] == v for row in rows)
        for v in ("better", "same", "worse", "unresolved")
    }
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if regressed else 0
