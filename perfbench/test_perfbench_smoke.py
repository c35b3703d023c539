"""Smoke test: ``run --quick --traced`` covers every declared name."""

from __future__ import annotations

import json
import os

from perfbench import ROOT, spec
from perfbench.__main__ import main

#: Directories that running Python or pytest may legitimately touch.
_IGNORED_DIRS = {"__pycache__", ".pytest_cache", ".hypothesis", ".git"}


def _tree_state(skip: str) -> dict[str, tuple[int, int]]:
    """``path -> (size, mtime_ns)`` of every file of the checkout."""
    state = {}
    for folder, dirs, files in os.walk(ROOT):
        dirs[:] = [
            d
            for d in dirs
            if d not in _IGNORED_DIRS and os.path.join(folder, d) != skip
        ]
        for name in files:
            path = os.path.join(folder, name)
            stat = os.stat(path)
            state[path] = (stat.st_size, stat.st_mtime_ns)
    return state


def test_quick_traced_run_reports_every_declared_metric(tmp_path):
    benchmark = spec.load_benchmark()
    before = _tree_state(str(tmp_path))

    assert main(["run", "--quick", "--traced", "--seed", "3",
                 "--out", str(tmp_path)]) == 0  # fmt: skip

    assert _tree_state(str(tmp_path)) == before, (
        "the run created or modified a file outside --out"
    )
    result = json.loads((tmp_path / "perfbench_result.json").read_text())
    for key in ("git_commit", "seed", "nproc", "python", "thread_caps"):
        assert key in result["conditions"]
    assert list(result["workloads"]) == spec.workload_names(benchmark)
    for name, record in result["workloads"].items():
        assert record["failed_share"] == 0, (name, record["check_notes"])
        assert record["nondeterminism"] == 0, name
        assert record["attempted"] >= 1
        assert record["rounds"] == len(record["round_wall_s"]) == 1
        assert record["dataset"] == {"name": "pd", "nodes": 3000, "edges": 135724}
        assert record["missing_trace_targets"] == []
        sections = {
            "end_to_end": {**record["end_to_end"], **record["driver_only"]},
            "per_layer": record["per_layer"],
        }
        for section, cells in sections.items():
            declared = spec.units(benchmark, section)
            assert set(cells) == set(declared), (name, section)
            for metric, cell in cells.items():
                assert cell["unit"] == declared[metric]
                assert cell["value"] == cell["value"]  # not NaN
        # ``run`` reports a metric only where it is defined; the cells the
        # driver's protocol adds are kept apart.
        assert set(record["end_to_end"]) == {
            metric for metric, where in spec.DEFINED_ON.items() if name in where
        }
        for metric, cell in sections["end_to_end"].items():
            assert cell["value"] > 0, (name, metric)
    assert set(spec.DEFINED_ON) == set(spec.units(benchmark, "end_to_end"))
