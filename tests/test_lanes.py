"""The committed ``BENCH_*.json`` lanes are goldens: each is the byte-exact
output of one command at this commit.

Every number in a lane is simulated, so replaying the lane's command must
rewrite its file byte for byte.  A change that means to move a simulated
number re-pins the lane — the recipe a failing test prints — and commits
the new file, exactly as for the sha256 session pins.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro.cli import _EPILOGUE_DESTS, _build_parser, main
from repro.profile import bench_path

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Every CLI lane: tag -> the command that writes it.  The twelfth lane,
#: ``labor_pd_v100``, is written by ``benchmarks/bench_labor.py``.
LANES: dict[str, list[str]] = {
    "gsampler_graphsage_pd_v100": ["profile", "graphsage"],
    "gsampler_labor_pd_v100": ["profile", "labor"],
    "pipeline_graphsage_pd_v100": ["pipeline", "graphsage"],
    "serve_graphsage_pd_v100": ["serve"],
    "serve_superbatch_graphsage_pd_v100": ["serve", "--composer", "superbatch"],
    "cluster_graphsage_pd_v100": [
        "serve", "--replicas", "4", "--router", "shard",
        "--partition", "greedy",
    ],
    "cluster_superbatch_graphsage_pd_v100": [
        "serve", "--replicas", "2", "--router", "jsq",
        "--composer", "superbatch",
    ],
    # Capped-HBM serving: the device band striped across both replicas
    # over NVLink, the remainder pinned host.
    "tiered_graphsage_pd_v100": [
        "serve", "--replicas", "2", "--link", "nvlink", "--feature-tiers",
        "--p2p", "--hbm-budget-mb", "0.0625",
    ],
    # Replica 1 dies mid-stream; failover + retries must hold availability.
    "elastic_graphsage_pd_v100": [
        "serve", "--replicas", "2", "--router", "jsq",
        "--arrival-rate", "150000", "--requests", "300",
        "--queue-capacity", "32", "--seed", "7", "--kill", "1@0.8",
        "--min-availability", "0.99",
    ],
    # Serve while ingesting: snapshots, compaction and a rebalance.
    "dynamic_graphsage_pd_v100": [
        "serve", "--replicas", "2", "--router", "shard",
        "--partition", "greedy", "--requests", "384",
        "--arrival-rate", "60000", "--ingest-rate", "200000",
        "--ingest-edges", "2048", "--compact-every", "16",
        "--repartition-threshold", "0.0005",
    ],
    "linkpred_graphsage_pd_v100": ["serve", "--task", "linkpred"],
}


def golden(tag: str) -> dict:
    return json.loads(bench_path(REPO_ROOT, tag).read_text())


def printed_metric_keys(out: str) -> list[str]:
    """The first column of the ``Metric | Value`` table in ``out``."""
    lines = out.splitlines()
    start = lines.index(
        next(line for line in lines if line.split() == ["Metric", "Value"])
    )
    keys = []
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.strip():
            break
        keys.append(line.split()[0])
    return keys


def test_lanes_and_committed_files_are_a_bijection():
    committed = {
        path.stem.removeprefix("BENCH_")
        for path in REPO_ROOT.glob("BENCH_*.json")
    }
    assert committed == LANES.keys() | {"labor_pd_v100"}


@pytest.mark.parametrize("tag", LANES)
def test_replaying_a_lane_rewrites_it_byte_for_byte(tag, tmp_path, capsys):
    argv = LANES[tag]
    committed = bench_path(REPO_ROOT, tag)
    replayed = shutil.copy(committed, tmp_path)
    code = main([*argv, "--out-dir", str(tmp_path), "--fail-on-regression"])
    out = capsys.readouterr().out
    repin = f"python -m repro {' '.join(argv)} --out-dir ."
    assert code == 0, f"{out}\nif the move is meant, re-pin: {repin}"
    assert pathlib.Path(replayed).read_bytes() == committed.read_bytes(), repin
    metrics = golden(tag)["metrics"]
    # Host clocks are printed, never recorded.
    assert not {"wall_seconds", "compile_wall_seconds"} & metrics.keys()
    # serve and pipeline print the record they write: no fact printed
    # that is not recorded, none recorded that is not printed.
    if argv[0] in ("serve", "pipeline"):
        assert printed_metric_keys(out) == list(metrics)


@pytest.mark.parametrize("tag", LANES)
def test_meta_is_the_parsed_command_line(tag):
    flags = vars(_build_parser().parse_args(LANES[tag]))
    meta = golden(tag)["meta"]
    for dest in ("command", *_EPILOGUE_DESTS):
        flags.pop(dest, None)
    if "link" in flags and flags["link"] is None:
        flags["link"] = meta["link"]  # the wiring the session resolved
    assert meta == flags
    assert golden(tag)["tag"] == tag


def test_tiered_lane_serves_from_every_band():
    metrics = golden("tiered_graphsage_pd_v100")["metrics"]
    rates = [
        metrics[f"tier_{tier}_rate"]
        for tier in ("device", "p2p", "host", "remote")
    ]
    assert metrics["tier_device_rate"] > 0.05, rates
    assert metrics["tier_p2p_rate"] > 0.05, rates
    assert abs(sum(rates) - 1.0) < 1e-6, rates
    assert metrics["p2p_rows"] > 0


def test_elastic_lane_holds_availability():
    assert golden("elastic_graphsage_pd_v100")["metrics"]["availability"] >= 0.99
