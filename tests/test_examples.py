"""Smoke tests: the example scripts run to completion.

Only the fast examples run under pytest; the epoch-scale comparison
script is exercised by the benchmark suite instead.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "custom_algorithm.py",
    "heterogeneous_metapath.py",
    "pass_attention_training.py",
    "serve_online.py",
    "train_graphsage.py",
    "train_linkpred.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must print their findings"


def test_all_examples_exist():
    present = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "train_graphsage.py", "compare_systems.py"} <= present
    assert len(present) >= 5
