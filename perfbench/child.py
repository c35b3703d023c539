"""The measuring process: one workload, set up once, rounds replayed.

``python -m perfbench child ...`` lands here, in a process of its own
whose environment already caps the BLAS/OpenMP threads, so ``setup_s``
and ``host_peak_rss_mb`` belong to this workload alone.  Protocol: set
up (imports, ``load_dataset``, one warm-up round) -> timed rounds with
tracing off -> optionally traced rounds -> output checks.  The reference
kernel of :mod:`perfbench.calibrate` runs between the rounds; host
seconds are wall seconds at its nominal speed.
"""

from __future__ import annotations

import gc
import json
import pathlib
import platform
import resource
import sys
import time

from perfbench import ROOT, spec
from perfbench.compare import summary

#: Fewest timed rounds a full run reports a median of.
MIN_ROUNDS = 5
#: Most timed rounds, however short a round is.
MAX_ROUNDS = 64
#: Untraced and traced rounds of a ``--traced`` run.
TRACED_ROUNDS = 2


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(
            f"perfbench: no program to measure: {src / 'repro'} is missing"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def _timed(workload) -> tuple[float, object]:
    """``(wall s, outputs)`` of one round."""
    gc.collect()
    start = time.perf_counter()
    raw = workload.round()
    return time.perf_counter() - start, raw


def _traced_rounds(workload, rounds: int) -> tuple:
    """Replay ``rounds`` rounds under a root span with every target wrapped.

    Returns ``(tracer, round wall times, round facts)``; the program is
    unpatched again whatever the rounds do.
    """
    from perfbench.layers import TARGETS
    from perfbench.tracing import ROOT_SPAN, Tracer

    tracer = Tracer()
    walls: list[float] = []
    facts: list[dict] = []
    tracer.install(TARGETS)
    try:
        for index in range(rounds):
            gc.collect()
            tracer.round = index
            root = tracer.begin(ROOT_SPAN)
            raw = workload.round()
            tracer.end(root)
            tracer.round = -1
            walls.append(tracer.ends[root] - tracer.starts[root])
            facts.append(workload.facts(raw))
            del raw
    finally:
        tracer.uninstall()
    return tracer, walls, facts


def measure(
    name: str,
    *,
    seed: int,
    seconds: float,
    traced: bool,
    quick: bool,
    out_dir: pathlib.Path,
    spawned_at: float,
) -> dict:
    """Run one workload in this process and return its result record."""
    _import_program()
    import numpy

    from perfbench.calibrate import Reference, speed
    from perfbench.layers import layer_metrics
    from perfbench.workloads import WORKLOADS

    benchmark = spec.load_benchmark()
    workload = WORKLOADS[name](seed, quick, out_dir)
    reference = Reference()
    #: One sample before the warm-up round and one after every round.
    ref_s = [reference.sample()]
    _, warm = _timed(workload)
    setup_wall_s = time.time() - spawned_at
    ref_s.append(reference.sample())
    setup_s = setup_wall_s / speed(ref_s[0], ref_s[1])
    facts = workload.facts(warm)

    walls: list[float] = []
    nondeterminism = 0
    min_rounds = 1 if quick else (TRACED_ROUNDS if traced else MIN_ROUNDS)
    budget = 0.0 if (quick or traced) else seconds
    while len(walls) < min_rounds or (
        sum(walls) < budget and len(walls) < MAX_ROUNDS
    ):
        wall, raw = _timed(workload)
        walls.append(wall)
        ref_s.append(reference.sample())
        nondeterminism += workload.facts(raw) != facts
        del raw
    speeds = [speed(a, b) for a, b in zip(ref_s[1:], ref_s[2:])]
    host = [wall / slower for wall, slower in zip(walls, speeds)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    per_layer: dict[str, float] = {}
    traced_walls: list[float] = []
    missing_targets: list[str] = []
    if traced:
        tracer, traced_walls, traced_facts = _traced_rounds(
            workload, 1 if quick else TRACED_ROUNDS
        )
        missing_targets = tracer.missing
        nondeterminism += sum(found != facts for found in traced_facts)
        per_layer = dict.fromkeys(spec.units(benchmark, "per_layer"), 0.0)
        per_layer.update(layer_metrics(tracer, traced_walls, walls))
        per_layer.update(workload.layer_facts(warm))
        per_layer["datasets.load_s"] = workload.load_s
        spans_path = out_dir / f"spans_{name}.json"
        spans_path.write_text(json.dumps(tracer.records()))

    attempted, failed, notes = workload.check(warm)
    seeds, requests = workload.units(warm)
    median, q1, q3 = summary(host)
    cells = {
        "setup_s": setup_s,
        "host_seeds_per_s": seeds / median,
        "host_req_per_s": requests / median,
        "host_peak_rss_mb": peak_rss_mb,
        **{k: v for k, v in facts.items() if k.startswith("sim_")},
        **workload.derived(warm),
    }
    e2e_units = spec.units(benchmark, "end_to_end")
    layer_units = spec.units(benchmark, "per_layer")
    if set(cells) != set(e2e_units):
        raise SystemExit(
            f"perfbench: {name} reports {sorted(cells)}, "
            f"BENCHMARK.json declares {sorted(e2e_units)}"
        )
    end_to_end = {
        key: {"value": float(value), "unit": e2e_units[key]}
        for key, value in cells.items()
    }
    return {
        "workload": name,
        "definition": workload.definition(),
        "seed": seed,
        "quick": quick,
        "traced": traced,
        "rounds": len(walls),
        "setup_wall_s": setup_wall_s,
        "reference_s": ref_s,
        "round_wall_s": walls,
        "round_speed": speeds,
        "round_host_s": host,
        "round_median_s": median,
        "round_q1_s": q1,
        "round_q3_s": q3,
        "round_min_s": min(host),
        "traced_round_wall_s": traced_walls,
        "seeds_per_round": seeds,
        "requests_per_round": requests,
        "fingerprint": facts["fingerprint"],
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "nondeterminism": nondeterminism,
        "check_notes": notes,
        "missing_trace_targets": missing_targets,
        "dataset": {
            "name": workload.dataset.name,
            "nodes": workload.dataset.num_nodes,
            "edges": workload.dataset.num_edges,
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # The metrics defined on this workload; ``compare`` judges these.
        "end_to_end": {
            key: cell
            for key, cell in end_to_end.items()
            if name in spec.DEFINED_ON[key]
        },
        # Derived cells that only the driver's ``measure`` protocol asks
        # for (it wants every metric from every workload).
        "driver_only": {
            key: cell
            for key, cell in end_to_end.items()
            if name not in spec.DEFINED_ON[key]
        },
        "per_layer": {
            key: {"value": float(value), "unit": layer_units[key]}
            for key, value in per_layer.items()
        },
    }


def main(args) -> int:
    out_dir = pathlib.Path(args.out)
    result = measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=args.traced,
        quick=args.quick,
        out_dir=out_dir,
        spawned_at=args.spawned_at,
    )
    (out_dir / f"child_{args.workload}.json").write_text(json.dumps(result))
    return 0
