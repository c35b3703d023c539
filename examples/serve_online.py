#!/usr/bin/env python
"""Walk through the online serving simulator, knob by knob.

An inference service answers "sample this user's neighborhood and fetch
its features" requests under a latency SLO.  This walkthrough runs three
scenarios on the same compiled GraphSAGE pipeline (PD stand-in, V100
spec) and prints what each knob buys:

1. light load — batches rarely fill, latency is dominated by the
   ``max_wait`` batching timeout;
2. overload, no control — the queue grows without bound and p99 blows
   through the SLO;
3. overload with admission control — a bounded queue sheds the excess
   and the survivors meet the SLO.

Run:  python examples/serve_online.py
"""

from __future__ import annotations

from repro.bench import format_table
from repro.datasets import load_dataset
from repro.device import V100
from repro.serve import ServePolicy, WorkloadSpec, run_cluster_session

SLO_MS = 1.5


def run(ds, label, rate, policy):
    spec = WorkloadSpec(num_requests=1024, arrival_rate=rate, seed=0)
    _, report = run_cluster_session(
        ds, device=V100, spec=spec, policy=policy, seed=0
    )
    return [
        label,
        f"{rate:,.0f}",
        f"{report.throughput_rps:,.0f}",
        f"{report.p50_ms:.3f}",
        f"{report.p99_ms:.3f}",
        "yes" if report.p99_ms <= SLO_MS else "NO",
        str(report.shed),
        f"{report.mean_batch:.1f}",
        f"{report.cache.hit_rate:.0%}" if report.cache else "off",
    ]


def main() -> None:
    ds = load_dataset("pd", scale=0.25)
    open_loop = ServePolicy(max_batch=8, max_wait=5e-4, queue_capacity=None)
    controlled = ServePolicy(
        max_batch=8, max_wait=5e-4, queue_capacity=24, slo=SLO_MS * 1e-3
    )
    rows = [
        run(ds, "light load", 20_000.0, open_loop),
        run(ds, "overload, no control", 400_000.0, open_loop),
        run(ds, "overload + admission", 400_000.0, controlled),
    ]
    print(
        format_table(
            ["Scenario", "Offered (rps)", "Achieved (rps)", "p50 (ms)",
             "p99 (ms)", "SLO met", "Shed", "Mean batch", "Cache hits"],
            rows,
            title=(
                "Online serving — graphsage/PD/V100, 1,024 requests, "
                f"p99 SLO {SLO_MS} ms (max_batch=8, max_wait=0.5 ms)"
            ),
        )
    )
    print(
        "\nReading the table: under light load batches stay small and\n"
        "latency is mostly the batching timeout; under overload the\n"
        "unbounded queue pushes p99 past the SLO, while the bounded\n"
        "queue shelters admitted requests by shedding the rest.  The\n"
        "cache-hit column shows the skewed workload re-touching the\n"
        "degree-hot rows the FeatureCache pinned."
    )


if __name__ == "__main__":
    main()
