"""Command-line front end: run samplers and experiments from a shell.

``python -m repro <command>``:

* ``sample`` — run a sampling epoch for one (system, algorithm, dataset)
  cell and print its statistics;
* ``compare`` — print the normalized cross-system table for one
  algorithm over the catalog datasets (a Figure 7/8 row group);
* ``verify`` — statistically verify that every optimization
  configuration of an algorithm samples the same distribution as the
  eager reference executor (the ``repro.verify`` subsystem);
* ``profile`` — trace one sampling epoch with the span profiler
  (the ``repro.profile`` subsystem): print a Table-9-style report,
  write a Chrome-trace/Perfetto JSON, and replace the one-record
  ``BENCH_<tag>.json`` golden, listing every key that moved;
* ``pipeline`` — train one epoch serially, then with sampling, transfer
  and compute overlapped on device queues (the ``repro.pipeline``
  subsystem), under the same trace + lane contract as ``profile``;
* ``serve`` — simulate an online inference-sampling session (the
  ``repro.serve`` subsystem): a seeded arrival process drives the
  dynamic batcher under an admission/degradation policy, with the same
  trace + ``BENCH_<lane>_*`` golden contract;
* ``datasets`` / ``algorithms`` / ``systems`` — list what is available.

``pipeline`` and ``serve`` print exactly the metrics their lane records.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import pathlib
import sys
from collections.abc import Sequence

from repro.algorithms import available_algorithms, make_algorithm
from repro.baselines import SYSTEMS
from repro.bench import format_table, measure_cell
from repro.cache import DEFAULT_CACHE_RATIO, DEFAULT_HOST_TIER_RATIO
from repro.datasets import available_datasets, load_dataset
from repro.device import DEVICES, LINKS, get_device
from repro.errors import DeviceError, GSamplerError, ServeError
from repro.partition import PARTITION_METHODS
from repro.pipeline import (
    DEFAULT_PREFETCH_DEPTH,
    PIPELINE_MODELS,
    run_pipeline_cell,
)
from repro.profile import (
    Profiler,
    bench_path,
    build_text_report,
    moved,
    write_chrome_trace,
    write_record,
)
from repro.serve import (
    ARRIVAL_PROCESSES,
    COMPOSER_POLICIES,
    ORPHAN_POLICIES,
    POLICY_PRESETS,
    ROUTER_POLICIES,
    AutoscalePolicy,
    FailureEvent,
    FailureSpec,
    ReplicaStats,
    ServePolicy,
    WorkloadSpec,
    run_cluster_session,
)
from repro.tasks import available_tasks


def _add_lane_arguments(command: argparse.ArgumentParser) -> None:
    """The flags :func:`_finish_run` reads, for a lane-writing command."""
    command.add_argument(
        "--out-dir",
        default=".",
        help="directory receiving the trace and BENCH files",
    )
    command.add_argument(
        "--trace-out",
        help="Chrome-trace path (default: <out-dir>/trace_<tag>.json)",
    )
    command.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 3 when the BENCH record this run replaced differs",
    )


#: Dests that steer the run epilogue rather than the run, so they stay
#: out of the record's ``meta``.
_EPILOGUE_DESTS = (
    "out_dir", "trace_out", "fail_on_regression", "min_availability",
)

#: ``enabler dest -> dests that change nothing while it is off``: moving
#: one off its default with its enabler off is refused, not recorded.
_DEPENDENT_DESTS: dict[str, tuple[str, ...]] = {
    "kill": ("orphans", "hedge", "no_failover"),
    "autoscale": ("min_replicas", "max_replicas", "scale_interval_ms"),
    "ingest_rate": (
        "ingest_edges", "delete_fraction", "snapshot_every_ms",
        "compact_every", "repartition_threshold",
    ),
    "feature_tiers": ("host_tier_ratio",),
}


#: Every flag more than one subcommand takes, declared once.
_SHARED_FLAGS: dict[str, dict] = {
    "--system": dict(default="gsampler", choices=tuple(SYSTEMS)),
    "--algorithm": dict(default="graphsage"),
    "--dataset": dict(default="pd"),
    "--device": dict(default="v100", choices=DEVICES),
    "--batch-size": dict(type=int, default=512),
    "--scale": dict(type=float, default=0.25),
    "--max-batches": dict(type=int, default=4),
    "--seed": dict(type=int, default=0),
    "--cache-ratio": dict(
        type=float,
        default=DEFAULT_CACHE_RATIO,
        help="fraction of nodes whose feature rows are pinned on device "
        "(default %(default).2f, 0 disables the cache)",
    ),
    "--feature-tiers": dict(
        action="store_true",
        help="serve features through the multi-tier store (device HBM, "
        "optional peer HBM over the interconnect, pinned host DRAM, "
        "and a remote/disk tail on its own queue) instead of the flat "
        "cache",
    ),
    "--host-tier-ratio": dict(
        type=float,
        default=DEFAULT_HOST_TIER_RATIO,
        help="fraction of nodes resident in the pinned-host tier "
        "(tiered mode; default %(default).1f = no remote tail)",
    ),
    "--hbm-budget-mb": dict(
        type=float,
        help="cap each device's memory pool at this many MiB "
        "(the knob that squeezes the device tier below the working set)",
    ),
}


def _add_shared(command: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        command.add_argument(flag, **_SHARED_FLAGS[flag])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="gSampler reproduction: sampling epochs and comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sample = sub.add_parser("sample", help="run one sampling-epoch cell")
    _add_shared(
        sample, "--system", "--algorithm", "--dataset", "--device",
        "--batch-size", "--scale", "--max-batches",
    )
    sample.set_defaults(max_batches=None)

    compare = sub.add_parser("compare", help="cross-system comparison table")
    _add_shared(
        compare, "--algorithm", "--scale", "--batch-size", "--max-batches"
    )

    verify = sub.add_parser(
        "verify",
        help="check distribution equivalence of all optimization configs",
    )
    verify.add_argument(
        "algorithm",
        help="algorithm to verify ('all' = every verifiable one incl. the "
        "dynamic delta-graph and linkpred pair-compaction checks; "
        "'dynamic' / 'linkpred' run just those; 'labor' checks the "
        "variance-reduced sampler against the eager oracle)",
    )
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--alpha", type=float, default=0.01)
    _add_shared(verify, "--seed")
    verify.add_argument(
        "--superbatch-batches",
        type=int,
        default=3,
        help="mini-batches per super-batch launch (0 disables that variant)",
    )

    profile = sub.add_parser(
        "profile",
        help="trace one sampling epoch: report, Chrome trace, BENCH record",
    )
    profile.add_argument(
        "algorithm",
        help="algorithm to profile (e.g. graphsage, labor)",
    )
    _add_shared(
        profile, "--system", "--dataset", "--device", "--batch-size",
        "--scale", "--max-batches",
    )
    _add_lane_arguments(profile)

    pipeline = sub.add_parser(
        "pipeline",
        help="train one epoch serially, then with sample/transfer/compute "
        "on overlapping queues: report, Chrome trace, BENCH record",
    )
    pipeline.add_argument(
        "algorithm",
        choices=tuple(PIPELINE_MODELS),
        help="the Table-8 workload to train",
    )
    _add_shared(
        pipeline, "--dataset", "--device", "--batch-size", "--scale",
        "--max-batches",
    )
    _add_lane_arguments(pipeline)
    _add_shared(pipeline, "--cache-ratio")
    pipeline.add_argument(
        "--prefetch-depth",
        type=int,
        default=DEFAULT_PREFETCH_DEPTH,
        help="batches the sampler may run ahead of compute "
        "(default %(default)s)",
    )
    pipeline.add_argument(
        "--epochs", type=int, default=1, help="training epochs to simulate"
    )
    _add_shared(
        pipeline, "--feature-tiers", "--host-tier-ratio", "--hbm-budget-mb"
    )
    pipeline.add_argument(
        "--no-prefetch",
        action="store_true",
        help="model a synchronous loader: a batch's feature fetch "
        "may not start until the previous compute finished",
    )

    serve = sub.add_parser(
        "serve",
        help="simulate an online serving session: queues, batching, SLOs",
    )
    _add_shared(serve, "--algorithm")
    serve.add_argument(
        "--task",
        default="node",
        choices=available_tasks(),
        help="request payload type: node-classification seed ids (the "
        "classic lane) or link-prediction (src, dst) pairs that are "
        "compacted to their unique endpoints before sampling",
    )
    _add_shared(serve, "--dataset", "--device", "--scale")
    serve.add_argument(
        "--arrival-rate",
        type=float,
        default=50_000.0,
        help="mean arrival rate in requests per simulated second",
    )
    serve.add_argument("--requests", type=int, default=512)
    serve.add_argument(
        "--arrival",
        default="poisson",
        choices=ARRIVAL_PROCESSES,
        help="arrival process shape",
    )
    serve.add_argument("--seeds-per-request", type=int, default=8)
    serve.add_argument(
        "--max-seeds-per-request",
        type=int,
        help="enable heterogeneous request sizes: per-request seed "
        "count drawn uniformly from [seeds-per-request, this]",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="serving replicas behind the router (1 = the classic "
        "single-replica session)",
    )
    serve.add_argument(
        "--router",
        default="round_robin",
        choices=ROUTER_POLICIES,
        help="request-routing policy across replicas",
    )
    serve.add_argument(
        "--partition",
        default="none",
        choices=["none", *PARTITION_METHODS],
        help="graph partitioner assigning one shard per replica; "
        "cross-shard frontier rows are charged over the interconnect",
    )
    serve.add_argument(
        "--link",
        choices=LINKS,
        help="interconnect for cross-shard fetches (default: the "
        "device's native link, NVLink on v100)",
    )
    serve.add_argument(
        "--skew",
        type=float,
        default=1.1,
        help="Zipf exponent of the per-request seed-node popularity",
    )
    serve.add_argument(
        "--slo-ms",
        type=float,
        default=2.0,
        help="p99 latency target in simulated milliseconds",
    )
    serve.add_argument(
        "--composer",
        default="fifo",
        choices=COMPOSER_POLICIES,
        help="batch-composition policy: the classic FIFO dynamic "
        "batcher, size-binned batching (no mixed seed-count bins), or "
        "cross-request super-batch fusion (one compiled run per window)",
    )
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=0.5,
        help="longest a batch head may wait before firing (simulated ms)",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="bounded-queue depth for the shedding policies",
    )
    serve.add_argument(
        "--policy",
        default="full",
        choices=tuple(POLICY_PRESETS),
        help="admission control: bounded-queue shedding and/or the "
        "SLO-aware degradation ladder",
    )
    _add_shared(serve, "--cache-ratio", "--feature-tiers", "--host-tier-ratio")
    serve.add_argument(
        "--p2p",
        action="store_true",
        help="pool the fleet's HBM: stripe the hot band across replicas "
        "and fetch sibling-owned rows over the interconnect when it "
        "beats host DRAM (tiered mode, NVLink clusters)",
    )
    _add_shared(serve, "--hbm-budget-mb")
    serve.add_argument(
        "--ingest-rate",
        type=float,
        help="stream graph updates at this many edges per simulated "
        "second while serving (enables the dynamic-graph lane)",
    )
    serve.add_argument(
        "--ingest-edges",
        type=int,
        default=256,
        help="total streamed edges over the session (dynamic lane)",
    )
    serve.add_argument(
        "--delete-fraction",
        type=float,
        default=0.2,
        help="fraction of streamed edges that delete a previously "
        "inserted edge (churn; dynamic lane)",
    )
    serve.add_argument(
        "--snapshot-every-ms",
        type=float,
        default=0.2,
        help="minimum simulated ms between overlay-snapshot installs "
        "(the staleness-vs-latency knob; dynamic lane)",
    )
    serve.add_argument(
        "--compact-every",
        type=int,
        default=0,
        help="canonically compact the delta graph every N applied "
        "update batches (0 = never; dynamic lane)",
    )
    serve.add_argument(
        "--repartition-threshold",
        type=float,
        help="degree-balance drift that triggers an incremental "
        "rebalance (needs --partition; dynamic lane)",
    )
    _add_shared(serve, "--seed")
    _add_lane_arguments(serve)
    serve.add_argument(
        "--kill",
        action="append",
        metavar="R@MS[:DOWN_MS]",
        help="inject a replica failure: kill replica R at the given "
        "simulated millisecond, optionally reviving it DOWN_MS later "
        "(repeatable; enables the failure control plane)",
    )
    serve.add_argument(
        "--orphans",
        default="retry",
        choices=ORPHAN_POLICIES,
        help="a dead replica's queued/in-flight requests are re-routed "
        "(retry) or dropped and counted lost (shed)",
    )
    serve.add_argument(
        "--hedge",
        action="store_true",
        help="duplicate retried requests to a second replica; the first "
        "completion wins and the loser is cancelled in accounting",
    )
    serve.add_argument(
        "--no-failover",
        action="store_true",
        help="keep the router blind to dead replicas (the availability "
        "baseline the chaos benchmark contrasts)",
    )
    serve.add_argument(
        "--autoscale",
        action="store_true",
        help="enable the elastic autoscaler: the fleet is pre-built at "
        "--max-replicas with standbys inactive, and replicas are "
        "activated/drained on the windowed p99/occupancy signal",
    )
    serve.add_argument(
        "--min-replicas",
        type=int,
        default=1,
        help="autoscaler floor on active replicas",
    )
    serve.add_argument(
        "--max-replicas",
        type=int,
        default=4,
        help="autoscaler ceiling on active replicas (fleet size)",
    )
    serve.add_argument(
        "--scale-interval-ms",
        type=float,
        default=1.0,
        help="simulated ms between autoscaler evaluations",
    )
    serve.add_argument(
        "--min-availability",
        type=float,
        help="exit 4 when availability (completed/offered) falls below "
        "this fraction — the CI chaos-smoke gate",
    )

    sub.add_parser("datasets", help="list catalog datasets")
    sub.add_parser("algorithms", help="list the 16 implemented algorithms")
    sub.add_parser("systems", help="list comparison systems")
    return parser


def _cmd_sample(args: argparse.Namespace) -> int:
    stats = measure_cell(
        args.system,
        args.algorithm,
        args.dataset,
        device_name=args.device,
        batch_size=args.batch_size,
        scale=args.scale,
        max_batches=args.max_batches,
    )
    if stats is None:
        print(
            f"{args.system} does not support {args.algorithm} on "
            f"{args.dataset} (an N/A cell in the paper's figures)"
        )
        return 1
    print(
        format_table(
            ["Metric", "Value"],
            [
                ["system", stats.system],
                ["algorithm", stats.algorithm],
                ["dataset", stats.dataset],
                ["device", stats.device],
                ["batches", stats.num_batches],
                ["epoch time (simulated ms)", f"{stats.sim_seconds * 1e3:.3f}"],
                ["per batch (ms)", f"{stats.per_batch_ms():.4f}"],
                ["kernel launches", stats.launches],
                ["peak memory (KiB)", stats.peak_memory_bytes // 1024],
                ["SM utilization (%)", f"{stats.sm_percent:.1f}"],
                ["host wall time (s)", f"{stats.wall_seconds:.3f}"],
            ],
        )
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for dataset in available_datasets():
        cells: dict[str, float | None] = {}
        for system in SYSTEMS:
            stats = measure_cell(
                system,
                args.algorithm,
                dataset,
                batch_size=args.batch_size,
                scale=args.scale,
                max_batches=args.max_batches,
            )
            cells[system] = None if stats is None else stats.sim_seconds
        ref = cells["gsampler"]
        if ref is None:
            continue
        rows.append(
            [
                dataset.upper(),
                *(
                    "N/A" if v is None else f"{v / ref:.2f}x"
                    for v in cells.values()
                ),
            ]
        )
    print(
        format_table(
            ["Graph", *SYSTEMS],
            rows,
            title=f"Normalized sampling time — {args.algorithm} "
            "(gSampler = 1.0)",
        )
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import (
        builtin_specs,
        check_dynamic_equivalence,
        check_linkpred_equivalence,
        verify_algorithm,
    )

    run_dynamic = args.algorithm in ("all", "dynamic")
    run_linkpred = args.algorithm in ("all", "linkpred")
    if args.algorithm == "all":
        names = sorted(builtin_specs())
    elif args.algorithm in ("dynamic", "linkpred"):
        names = []
    else:
        names = [args.algorithm]
    superbatch = args.superbatch_batches or None
    common = dict(trials=args.trials, alpha=args.alpha, seed=args.seed)
    rows: list[list[str]] = []

    def contract_row(label: str, variant: str, ok: bool) -> None:
        """A pass/fail contract: no statistic to show."""
        rows.append([label, variant, *["-"] * 5, "ok" if ok else "FAIL"])

    def check_rows(label: str, checks) -> None:
        for check in checks:
            rows.append(
                [
                    label,
                    check.name,
                    f"{check.chi2.statistic:.2f}",
                    str(check.chi2.dof),
                    f"{check.adjusted_chi2_p:.4f}",
                    f"{check.ks.statistic:.3f}",
                    f"{check.adjusted_ks_p:.4f}",
                    "ok" if check.passed else "FAIL",
                ]
            )

    all_passed = True
    for name in names:
        report = verify_algorithm(
            name, superbatch_batches=superbatch, **common
        )
        all_passed = all_passed and report.passed
        check_rows(name, report.variants)
    if run_dynamic:
        dyn = check_dynamic_equivalence(**common)
        all_passed = all_passed and dyn.passed
        contract_row(
            "dynamic",
            "compact-bit-identity",
            dyn.storage_identical and dyn.samples_identical,
        )
        check_rows("dynamic", [dyn.marginals])
    if run_linkpred:
        lp = check_linkpred_equivalence(**common)
        all_passed = all_passed and lp.passed
        contract_row(
            "linkpred",
            "pair-contract",
            lp.compaction_ok
            and lp.no_false_negatives
            and lp.negatives_deterministic,
        )
        check_rows("linkpred", lp.marginals.variants)
    print(
        format_table(
            ["Algorithm", "Variant", "chi2", "dof", "adj p", "KS D",
             "adj p (KS)", "Verdict"],
            rows,
            title=(
                "Distribution equivalence vs eager oracle "
                f"(trials={args.trials}, alpha={args.alpha}, "
                f"seed={args.seed}, Bonferroni-corrected)"
            ),
        )
    )
    print("verification " + ("PASSED" if all_passed else "FAILED"))
    return 0 if all_passed else 1


def _hbm_budget(args: argparse.Namespace) -> int | None:
    """``--hbm-budget-mb`` in bytes (``None`` = the device's capacity)."""
    mb = args.hbm_budget_mb
    if mb is None:
        return None
    if not 0.0 <= mb < math.inf:  # catches NaN too
        raise DeviceError(f"pool capacity must be >= 0 and finite, got {mb} MiB")
    return int(mb * 2**20)


def _cell(value: object) -> str:
    """One printed value: a fractional float to six significant digits."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_queues(queues) -> None:
    """The "Queue timelines" table, one ``(queue, context, busy seconds,
    end seconds, launches)`` row per simulated device queue."""
    rows = [
        [name, where, f"{busy * 1e3:.4f}", f"{end * 1e3:.4f}", launches,
         f"{busy / end:.0%}" if end else "0%"]
        for name, where, busy, end, launches in queues
    ]
    header = ["Queue", "Context", "Busy (ms)", "End (ms)", "Launches", "Util"]
    print(format_table(header, rows, title="Queue timelines"))


def _print_record(tag: str, metrics: dict[str, object]) -> None:
    """The ``Metric | Value`` summary: exactly the ``metrics`` the lane
    records, in record order — nothing printed that is not recorded."""
    rows = [[key, _cell(value)] for key, value in metrics.items()]
    print(format_table(["Metric", "Value"], rows, title=f"Lane {tag}"))


def _finish_run(
    args: argparse.Namespace,
    profiler,
    tag: str,
    metrics: dict[str, object],
    availability: float | None = None,
    **resolved: object,
) -> int:
    """The epilogue of every lane-writing command; returns its exit code.

    Writes the Chrome trace and replaces the ``BENCH_<tag>.json`` record
    under ``--out-dir``, then lists every key on which the replaced
    record differs: 0 when none does (or merely reported), 3 under
    ``--fail-on-regression``.  The record's ``meta`` is the parsed
    command line, with ``resolved`` naming what the run made of a flag
    left to its default.  ``availability`` is what ``serve`` measured,
    passed when ``--min-availability`` gates it; falling below the gate
    exits 4 after the record is written.
    """
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = (
        pathlib.Path(args.trace_out)
        if args.trace_out
        else out_dir / f"trace_{tag}.json"
    )
    write_chrome_trace(profiler, trace_path)
    print(f"\nchrome trace: {trace_path} ({len(profiler.spans)} spans)")
    meta = {
        dest: value
        for dest, value in vars(args).items()
        if dest != "command" and dest not in _EPILOGUE_DESTS
    } | resolved
    record_path = bench_path(out_dir, tag)
    previous = write_record(record_path, tag=tag, meta=meta, metrics=metrics)
    print(f"lane record: {record_path}")
    if availability is not None:
        gate = args.min_availability
        if availability < gate:
            print(
                f"AVAILABILITY GATE FAILED: {availability:.2%} < {gate:.2%}"
            )
            return 4
        print(f"availability gate: {availability:.2%} >= {gate:.2%} OK")
    if previous is None:
        print("new lane: no record to compare against")
        return 0
    changes = moved(previous, {"meta": meta, "metrics": metrics})
    if not changes:
        print("identical to the record it replaced")
        return 0
    print("MOVED vs the record it replaced:")
    for key, old, new in changes:
        print(f"  {key}: {old!r} -> {new!r}")
    return 3 if args.fail_on_regression else 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    """The ``pipeline`` command: serial vs pipelined epochs + lane record."""
    hbm_budget = _hbm_budget(args)
    dataset = load_dataset(args.dataset, scale=args.scale)
    profiler = Profiler()
    with profiler.activate():
        serial, pipelined = run_pipeline_cell(
            args.algorithm,
            dataset,
            device=get_device(args.device),
            epochs=args.epochs,
            batch_size=args.batch_size,
            max_batches=args.max_batches,
            prefetch_depth=args.prefetch_depth,
            cache_ratio=args.cache_ratio,
            profiler=profiler,
            feature_tiers=args.feature_tiers,
            host_tier_ratio=args.host_tier_ratio,
            hbm_budget=hbm_budget,
            prefetch=not args.no_prefetch,
        )
    _print_queues(
        (r.queue, r.device, r.busy_seconds, r.end_seconds, r.launches)
        for r in pipelined.queue_reports
    )
    # Tiered runs get their own lane: their charging structure (UVA
    # host band + remote queue) is not the flat-cache pipeline's.
    lane = "pipeline_tiered" if args.feature_tiers else "pipeline"
    tag = f"{lane}_{args.algorithm}_{args.dataset}_{args.device}"
    cache = pipelined.cache_stats
    metrics = {
        "sim_seconds": pipelined.total_seconds,
        "serial_sim_seconds": serial.total_seconds,
        "overlap_reduction": (
            1.0 - pipelined.total_seconds / serial.total_seconds
            if serial.total_seconds
            else 0.0
        ),
        "launches": sum(r.launches for r in pipelined.queue_reports),
        "cache_hit_rate": cache.hit_rate if cache is not None else 0.0,
        "final_loss": pipelined.final_loss,
    }
    _print_record(tag, metrics)
    return _finish_run(args, profiler, tag, metrics)


def _cmd_serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: one online serving session + lane record."""
    gate = args.min_availability
    if gate is not None and not 0.0 <= gate <= 1.0:
        raise ServeError(
            f"--min-availability is a fraction in [0, 1], got {gate}"
        )
    hbm_budget = _hbm_budget(args)
    dataset = load_dataset(args.dataset, scale=args.scale)
    profiler = Profiler()
    failures = None
    if args.kill:
        events = []
        for kill in args.kill:
            try:
                replica_part, _, when = kill.partition("@")
                when, _, down = when.partition(":")
                events.append(
                    FailureEvent(
                        time=float(when) * 1e-3,
                        replica=int(replica_part),
                        downtime=float(down) * 1e-3 if down else None,
                    )
                )
            except ValueError:
                raise ServeError(
                    f"bad --kill spec {kill!r} (expected R@MS or R@MS:DOWN_MS)"
                ) from None
        failures = FailureSpec(
            events=tuple(events),
            orphans=args.orphans,
            hedge=args.hedge,
            failover=not args.no_failover,
        )
    autoscale = None
    if args.autoscale:
        autoscale = AutoscalePolicy(
            min_replicas=args.min_replicas,
            max_replicas=args.max_replicas,
            interval=args.scale_interval_ms * 1e-3,
            high_p99=args.slo_ms * 1e-3,
        )
    spec = WorkloadSpec(
        num_requests=args.requests,
        arrival_rate=args.arrival_rate,
        process=args.arrival,
        seeds_per_request=args.seeds_per_request,
        max_seeds_per_request=args.max_seeds_per_request,
        skew=args.skew,
        seed=args.seed,
        task=args.task,
    )
    policy = ServePolicy.preset(
        args.policy,
        max_batch=args.max_batch,
        max_wait=args.max_wait_ms * 1e-3,
        queue_capacity=args.queue_capacity,
        slo=args.slo_ms * 1e-3,
    )
    updates = dynamic = None
    if args.ingest_rate is not None:
        from repro.dynamic import DynamicPolicy, UpdateSpec

        updates = UpdateSpec(
            num_edges=args.ingest_edges,
            rate=args.ingest_rate,
            delete_fraction=args.delete_fraction,
            seed=args.seed,
        )
        dynamic = DynamicPolicy(
            snapshot_every=args.snapshot_every_ms * 1e-3,
            compact_every=args.compact_every,
            repartition_threshold=args.repartition_threshold,
        )
    with profiler.activate():
        simulator, report = run_cluster_session(
            dataset,
            algorithm=args.algorithm,
            device=get_device(args.device),
            spec=spec,
            policy=policy,
            num_replicas=args.replicas,
            router=args.router,
            partition=None if args.partition == "none" else args.partition,
            link=args.link,
            composer=args.composer,
            cache_ratio=args.cache_ratio,
            seed=args.seed,
            profiler=profiler,
            failures=failures,
            autoscale=autoscale,
            feature_tiers=args.feature_tiers,
            host_tier_ratio=args.host_tier_ratio,
            p2p=args.p2p,
            hbm_budget=hbm_budget,
            updates=updates,
            dynamic=dynamic,
            task=args.task,
        )
    columns = [
        field.name
        for field in dataclasses.fields(ReplicaStats)
        if field.type in ("int", "float")
    ]
    replica_rows = [
        [_cell(getattr(stats, column)) for column in columns]
        for stats in report.per_replica
    ]
    print(format_table(columns, replica_rows, title="Per-replica breakdown"))
    _print_queues(
        (q.name, where, q.busy_seconds, q.ready, q.launches)
        for replica in simulator.replicas
        for where, ctx in (
            ("sampling", replica.sample_ctx), ("feature I/O", replica.io_ctx)
        )
        for q in ctx.queue_stats().values()
    )
    tag = f"{report.lane}_{args.algorithm}_{args.dataset}_{args.device}"
    metrics = report.to_metrics()
    metrics["launches"] = sum(
        replica.sample_ctx.launch_count() + replica.io_ctx.launch_count()
        for replica in simulator.replicas
    )
    # The determinism pin: the digest of every request's log, so a lane
    # is byte-stable only if the whole session is.
    metrics["fingerprint"] = hashlib.sha256(
        repr(report.fingerprint()).encode()
    ).hexdigest()
    _print_record(tag, metrics)
    configured = args.link or simulator.partition is not None
    gated = args.min_availability is not None
    return _finish_run(
        args, profiler, tag, metrics,
        availability=report.availability if gated else None,
        link=simulator.link.name if configured else "none",
    )


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.ir.passes.base import PassStat

    profiler = Profiler()
    stats = measure_cell(
        args.system,
        args.algorithm,
        args.dataset,
        device_name=args.device,
        batch_size=args.batch_size,
        scale=args.scale,
        max_batches=args.max_batches,
        profiler=profiler,
    )
    if stats is None:
        print(
            f"{args.system} does not support {args.algorithm} on "
            f"{args.dataset} (an N/A cell in the paper's figures)",
            file=sys.stderr,
        )
        return 1
    ctx = profiler.context
    assert ctx is not None
    tag = f"{args.system}_{args.algorithm}_{args.dataset}_{stats.device}"

    # Rebuild per-pass statistics from the recorded pass spans so the
    # report covers every compiled layer the epoch touched.
    pass_stats = [
        PassStat(
            name=span.name.removeprefix("pass:"),
            iteration=int(span.attrs.get("iteration", 1)),  # type: ignore[arg-type]
            changed=bool(span.attrs.get("changed", False)),
            wall_seconds=span.host_duration,
            nodes_before=int(span.attrs.get("nodes_before", 0)),  # type: ignore[arg-type]
            nodes_after=int(span.attrs.get("nodes_after", 0)),  # type: ignore[arg-type]
            edges_before=int(span.attrs.get("edges_before", 0)),  # type: ignore[arg-type]
            edges_after=int(span.attrs.get("edges_after", 0)),  # type: ignore[arg-type]
        )
        for span in profiler.spans_by_category("pass")
    ]
    print(
        build_text_report(
            ctx,
            title=(
                f"Profile — {args.algorithm} on {args.dataset} "
                f"({stats.device}), {stats.num_batches} batches"
            ),
            wall_seconds=stats.wall_seconds,
            pass_stats=pass_stats,
        )
    )

    # Host clocks are printed (above, and here), never recorded.
    compile_wall = sum(
        span.host_duration
        for span in profiler.spans_by_category("compile")
        if span.name == "compile"
    )
    print(f"compile wall time (s): {compile_wall:.3f}")
    metrics = {
        "sim_seconds": stats.sim_seconds,
        "launches": stats.launches,
        "peak_bytes": stats.peak_memory_bytes,
        "sm_percent": stats.sm_percent,
        "num_batches": stats.num_batches,
        "time_by_kernel": ctx.time_by_kernel(),
    }
    return _finish_run(args, profiler, tag, metrics)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and tests."""
    args = _build_parser().parse_args(argv)
    try:
        _refuse_idle_dependents(args)
        return _dispatch(args)
    except GSamplerError as exc:
        # Every typed refusal (unknown algorithm / dataset, bad --trials,
        # contradictory serve flags, ...) is a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _refuse_idle_dependents(args: argparse.Namespace) -> None:
    """Refuse a gated flag moved off its default while its enabler is off."""
    commands = _build_parser()._subparsers._group_actions[0].choices
    default = commands[args.command].get_default
    moved = {d for d, v in vars(args).items() if v != default(d)}
    for enabler, dependents in _DEPENDENT_DESTS.items():
        idle = [d for d in dependents if d in moved and enabler not in moved]
        if idle:
            flag, on = (f"--{d}".replace("_", "-") for d in (idle[0], enabler))
            raise ServeError(f"{flag} changes nothing without {on}")


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "sample":
        return _cmd_sample(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "pipeline":
        return _cmd_pipeline(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "datasets":
        print("\n".join(available_datasets()))
        return 0
    if args.command == "algorithms":
        # One line per algorithm: its Table-2 row.
        for name in available_algorithms():
            _, category, bias, fanout_gt_one, description = make_algorithm(name).info
            fanout = "fanout>1" if fanout_gt_one else "fanout=1"
            print(f"{name:<11}{category:<11}{bias:<8}{fanout:<9} {description}")
        return 0
    if args.command == "systems":
        print("\n".join(SYSTEMS))
        return 0
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
