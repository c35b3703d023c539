"""Spawn one child per workload, collect, print and write the results."""

from __future__ import annotations

import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import tempfile
import time

from perfbench import ROOT, spec

#: One thread per child: the box has two cores and is shared, and a
#: BLAS pool that sizes itself to the machine is run-to-run noise.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    # str/bytes hashing is per-process otherwise; pin it so two runs of
    # one seed cannot differ through set or dict iteration order.
    "PYTHONHASHSEED": "0",
}
#: Child time limit, under the contract's 180 s per run.
CHILD_TIMEOUT_S = 170
#: Scratch root for runs given no ``--out``: inside the checkout
#: (the contract forbids writing elsewhere) and named in ``.gitignore``.
SCRATCH = ROOT / ".perfbench_tmp"


def fresh_out_dir() -> pathlib.Path:
    SCRATCH.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))


def discard_out_dir(path: pathlib.Path) -> None:
    """Remove a :func:`fresh_out_dir` directory (and the empty root)."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run is still using it


def run_child(
    workload: str,
    *,
    seed: int,
    seconds: float,
    traced: bool,
    quick: bool,
    out_dir: pathlib.Path,
) -> dict:
    """Measure one workload in a process of its own; return its record."""
    command = [
        sys.executable, "-m", "perfbench", "child",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--out", str(out_dir),
        "--spawned-at", repr(time.time()),
    ]  # fmt: skip
    if traced:
        command.append("--traced")
    if quick:
        command.append("--quick")
    # The child's stdout goes to our stderr: the last stdout line of
    # ``measure`` must be the result object and nothing else.
    try:
        subprocess.run(
            command,
            cwd=ROOT,
            env={**os.environ, **THREAD_CAPS},
            stdout=sys.stderr,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        # ``subprocess.run`` has already killed and reaped a timed-out child.
        raise SystemExit(f"perfbench: measuring {workload} failed: {error}")
    handoff = out_dir / f"child_{workload}.json"
    record = json.loads(handoff.read_text())
    handoff.unlink()
    return record


def healthy(record: dict) -> bool:
    """No output check failed and every round repeated the warm-up's."""
    return record["failed"] == 0 and record["nondeterminism"] == 0


def conditions(seed: int, seconds: float) -> dict:
    """What a reader needs to compare two result files without guessing."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "thread_caps": THREAD_CAPS,
    }


def print_result(record: dict) -> None:
    """Every metric of one workload, by name, with its unit."""
    name = record["workload"]
    speeds = record["round_speed"]
    print(
        f"[{name}] R={record['rounds']} round median "
        f"{record['round_median_s']:.4f} host s (q1 {record['round_q1_s']:.4f}, "
        f"q3 {record['round_q3_s']:.4f}, min {record['round_min_s']:.4f}); "
        f"box ran {min(speeds):.2f}-{max(speeds):.2f} x nominal time"
    )
    for section in ("end_to_end", "per_layer"):
        for metric, cell in record[section].items():
            print(f"[{name}] {metric} = {cell['value']:.6g} {cell['unit']}")
    for check, unit in spec.ABSOLUTE_CHECKS.items():
        print(f"[{name}] {check} = {record[check]:.6g} {unit}")
    for note in record["check_notes"]:
        print(f"[{name}] check: {note}")
    for target in record["missing_trace_targets"]:
        print(f"[{name}] not traced (gone from the program): {target}")


def run(
    workloads: list[str],
    *,
    seed: int,
    seconds: float,
    traced: bool,
    quick: bool,
    out_dir: pathlib.Path | None,
) -> tuple[pathlib.Path, dict]:
    """The ``run`` command: every workload in turn, one result file."""
    out_dir = out_dir if out_dir is not None else fresh_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "schema": 1,
        "conditions": conditions(seed, seconds),
        "workloads": {},
    }
    for name in workloads:
        record = run_child(
            name,
            seed=seed,
            seconds=seconds,
            traced=traced,
            quick=quick,
            out_dir=out_dir,
        )
        result["workloads"][name] = record
        print_result(record)
    path = out_dir / "perfbench_result.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"result file: {path}")
    return path, result
