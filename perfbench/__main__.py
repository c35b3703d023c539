"""Command line of the benchmark: ``run``, ``compare``, ``measure``."""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from perfbench import spec


def _parser(default_seconds: float) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure workloads, print and write")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workloads", nargs="+", default=None)
    run.add_argument("--out", type=pathlib.Path, default=None)
    run.add_argument("--seconds", type=float, default=default_seconds)
    run.add_argument("--traced", action="store_true")
    run.add_argument("--quick", action="store_true")

    compare = commands.add_parser("compare", help="verdicts for two results")
    compare.add_argument("parent")
    compare.add_argument("change")

    measure = commands.add_parser(
        "measure", help="one workload, one JSON line (the driver's protocol)"
    )
    measure.add_argument("--workload", required=True)
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), required=True)

    child = commands.add_parser("child", help="internal: the measuring process")
    child.add_argument("--workload", required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--out", required=True)
    child.add_argument("--spawned-at", type=float, required=True)
    child.add_argument("--traced", action="store_true")
    child.add_argument("--quick", action="store_true")
    return parser


def _measure(args) -> int:
    from perfbench import runner

    out_dir = runner.fresh_out_dir()
    try:
        record = runner.run_child(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            traced=bool(args.trace),
            quick=False,
            out_dir=out_dir,
        )
    finally:
        runner.discard_out_dir(out_dir)
    print(
        json.dumps(
            {
                "correct": runner.healthy(record),
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": (
                    record["per_layer"]
                    if args.trace
                    else {**record["end_to_end"], **record["driver_only"]}
                ),
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    benchmark = spec.load_benchmark()
    args = _parser(float(benchmark["run_seconds"])).parse_args(argv)
    if args.command == "child":
        from perfbench import child

        return child.main(args)
    if args.command == "compare":
        from perfbench import compare

        return compare.main(args.parent, args.change)
    names = spec.workload_names(benchmark)
    if args.command == "measure":
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r}; have {names}")
        return _measure(args)
    from perfbench import runner

    chosen = args.workloads if args.workloads is not None else names
    unknown = [name for name in chosen if name not in names]
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; have {names}")
    _, result = runner.run(
        chosen,
        seed=args.seed,
        seconds=args.seconds,
        traced=args.traced,
        quick=args.quick,
        out_dir=args.out,
    )
    return 0 if all(map(runner.healthy, result["workloads"].values())) else 1


if __name__ == "__main__":
    sys.exit(main())
