"""The traced run leaves the program as it found it and adds up."""

from __future__ import annotations

import json
import sys
import time

import pytest

from perfbench import child


def _resolve_targets():
    """``(owner, key) -> object currently bound`` for every trace target."""
    child._import_program()
    from perfbench.layers import TARGETS
    from perfbench.tracing import Tracer

    resolver = Tracer()
    bound = {}
    for target in TARGETS:
        for owner, key in resolver._owners(target):
            bound[(owner, key)] = vars(owner)[key]
    return bound


@pytest.mark.parametrize("workload", ["train_pipeline", "serve_cluster_traced"])
def test_traced_run_restores_the_program_and_adds_up(workload, tmp_path):
    before = _resolve_targets()
    import numpy

    import repro.cache.gather
    import repro.serve.replica
    import repro.sparse.convert

    # ``repro.sparse.convert`` the attribute is the function of that name.
    convert_module = sys.modules["repro.sparse.convert"]
    unique_before = numpy.unique
    table_before = dict(convert_module._CONVERTERS)

    record = child.measure(
        workload,
        seed=5,
        seconds=0.0,
        traced=True,
        quick=True,
        out_dir=tmp_path,
        spawned_at=time.time(),
    )

    # Every wrapped attribute, alias and dispatch-table entry is the
    # original object again.
    after = _resolve_targets()
    assert after.keys() == before.keys()
    assert all(obj is before[key] for key, obj in after.items())
    assert numpy.unique is unique_before
    assert repro.serve.replica.plan_gather is repro.cache.gather.plan_gather
    assert convert_module._CONVERTERS == table_before
    assert record["missing_trace_targets"] == []

    # Traced rounds reproduce the untraced rounds' simulated numbers and
    # fingerprint (both are counted against the warm-up round).
    assert record["nondeterminism"] == 0
    assert record["failed"] == 0, record["check_notes"]

    # Per round, the layers' self times plus the unattributed remainder
    # are the round's wall time: no span is left without a metric.
    layers = record["per_layer"]
    wall = sum(record["traced_round_wall_s"]) / len(record["traced_round_wall_s"])
    self_s = sum(
        cell["value"]
        for name, cell in layers.items()
        if name.endswith("_s") and name != "datasets.load_s"
    )
    unattributed = layers["bench.unattributed_share"]["value"] * wall
    assert self_s + unattributed == pytest.approx(wall, rel=0.01)

    # The raw records back the rollup: children lie inside their parent.
    spans = json.loads((tmp_path / f"spans_{workload}.json").read_text())
    assert spans, "no spans were written"
    for name, start, end, parent, _round in spans:
        assert end >= start, name
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2], name
