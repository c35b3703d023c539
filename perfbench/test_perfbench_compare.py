"""The comparator's verdicts on synthetic result files.

Verdicts are taken under the bounds ``BENCHMARK.json`` ships: the gate
tested here is the gate a later change is held to.
"""

from __future__ import annotations

import copy
import json

import pytest

from perfbench import compare, spec

BENCHMARK = spec.load_benchmark()
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
WORKLOAD = "serve_fifo"


def _record(walls, *, setup_s=2.0, failed_share=0.0, p99=0.31, slo=1.0):
    values = {
        "setup_s": setup_s,
        "host_req_per_s": 0.0,  # recomputed from the rounds
        "host_peak_rss_mb": 80.0,
        "sim_p50_ms": 0.14,
        "sim_p99_ms": p99,
        "sim_slo_share": slo,
    }
    assert set(values) == {
        metric for metric, where in spec.DEFINED_ON.items() if WORKLOAD in where
    }
    units = spec.units(BENCHMARK, "end_to_end")
    return {
        "definition": {"num_requests": 2048},
        "quick": False,
        "round_host_s": list(walls),
        "seeds_per_round": 16384,
        "requests_per_round": 2048,
        "failed_share": failed_share,
        "nondeterminism": 0,
        "end_to_end": {
            k: {"value": v, "unit": units[k]} for k, v in values.items()
        },
    }


def _result(record):
    return {"schema": 1, "conditions": {}, "workloads": {WORKLOAD: record}}


def _verdicts(parent, change):
    rows, regressed = compare.compare(_result(parent), _result(change))
    return {row["metric"]: row["verdict"] for row in rows}, regressed


STEADY = [1.50, 1.51, 1.49, 1.50, 1.52, 1.50]


def test_only_the_metrics_defined_on_the_workload_are_judged():
    verdicts, _ = _verdicts(_record(STEADY), _record(STEADY))
    assert set(verdicts) == {
        "setup_s", "host_req_per_s", "host_peak_rss_mb", "sim_p50_ms",
        "sim_p99_ms", "sim_slo_share", "failed_share", "nondeterminism",
    }  # fmt: skip
    assert set(verdicts.values()) == {"same"}


def _slowed(walls, share):
    """Rounds on which throughput falls by ``share`` of itself."""
    return [w / (1.0 - share) for w in walls]


def test_a_slowdown_past_the_shipped_bound_is_worse():
    verdicts, regressed = _verdicts(
        _record(STEADY), _record(_slowed(STEADY, 1.2 * BOUND["host_req_per_s"]))
    )
    assert verdicts["host_req_per_s"] == "worse"
    assert verdicts["sim_p99_ms"] == "same"
    assert regressed


def test_a_slowdown_inside_the_shipped_bound_is_same():
    for share in (0.05, 0.8 * BOUND["host_req_per_s"]):
        verdicts, regressed = _verdicts(
            _record(STEADY), _record(_slowed(STEADY, share))
        )
        assert verdicts["host_req_per_s"] == "same"
        assert not regressed


def test_speedup_is_better():
    verdicts, regressed = _verdicts(
        _record(STEADY), _record([w / 1.5 for w in STEADY])
    )
    assert verdicts["host_req_per_s"] == "better"
    assert not regressed


def test_noisy_overlapping_runs_are_unresolved():
    noisy = [1.2, 1.9, 1.4, 1.7, 1.3, 1.8]
    verdicts, regressed = _verdicts(
        _record(noisy), _record([w * 1.15 for w in noisy])
    )
    assert verdicts["host_req_per_s"] == "unresolved"
    assert not regressed


@pytest.mark.parametrize(
    ("metric", "field", "base"),
    [("setup_s", "setup_s", 2.0), ("sim_p99_ms", "p99", 0.31)],
)
def test_single_valued_metrics_use_their_shipped_bounds(metric, field, base):
    inside = _record(STEADY, **{field: base * (1 + 0.8 * BOUND[metric])})
    beyond = _record(STEADY, **{field: base * (1 + 1.2 * BOUND[metric])})
    verdicts, regressed = _verdicts(_record(STEADY), inside)
    assert verdicts[metric] == "same" and not regressed
    verdicts, regressed = _verdicts(_record(STEADY), beyond)
    assert verdicts[metric] == "worse" and regressed


def test_half_a_point_of_slo_share_is_the_limit():
    verdicts, regressed = _verdicts(_record(STEADY), _record(STEADY, slo=0.997))
    assert verdicts["sim_slo_share"] == "same" and not regressed
    verdicts, regressed = _verdicts(_record(STEADY), _record(STEADY, slo=0.99))
    assert verdicts["sim_slo_share"] == "worse" and regressed


def test_a_zero_median_gets_a_verdict_not_a_crash(capsys, tmp_path):
    none_met, some_met = _record(STEADY, slo=0.0), _record(STEADY, slo=0.4)
    assert _verdicts(none_met, none_met)[0]["sim_slo_share"] == "same"
    assert _verdicts(none_met, some_met)[0]["sim_slo_share"] == "better"
    verdicts, regressed = _verdicts(some_met, none_met)
    assert verdicts["sim_slo_share"] == "worse" and regressed
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result(none_met)))
    b.write_text(json.dumps(_result(some_met)))
    assert compare.main(str(a), str(b)) == 0
    assert "sim_slo_share | 0 [0, 0] | 0.4 [0.4, 0.4] | n/a | better" in (
        capsys.readouterr().out
    )


def test_more_failures_regress_whatever_the_speed():
    verdicts, regressed = _verdicts(
        _record(STEADY), _record(STEADY, failed_share=0.001)
    )
    assert verdicts["failed_share"] == "worse"
    assert regressed


def test_differing_workload_definitions_are_refused(tmp_path, capsys):
    parent = _record(STEADY)
    change = copy.deepcopy(parent)
    change["definition"]["num_requests"] = 512
    with pytest.raises(compare.Incomparable):
        compare.compare(_result(parent), _result(change))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result(parent)))
    b.write_text(json.dumps(_result(change)))
    assert compare.main(str(a), str(b)) == 2
    assert "refusing to compare" in capsys.readouterr().out


def test_cli_exit_code_and_ratio_base(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result(_record(STEADY))))
    b.write_text(json.dumps(_result(_record([w * 1.4 for w in STEADY]))))
    assert compare.main(str(a), str(b)) == 1
    out = capsys.readouterr().out
    assert "host_req_per_s" in out and "worse" in out
    assert "of 1365.33 1/s" in out  # the ratio names its base
    assert compare.main(str(a), str(a)) == 0
