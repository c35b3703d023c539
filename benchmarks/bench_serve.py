"""Online serving: arrival-rate sweep, the batching knee, SLO control.

Three experiments on the serving simulator:

* **Latency/throughput sweep** — p50/p99 vs offered arrival rate per
  device spec.  Low rates pay the ``max_wait`` batching timeout, the
  knee appears where batches start filling, and past saturation the
  queue (and p99) blows up.  The knee location orders by device speed:
  V100 saturates last, CPU first.
* **Batching knee** — throughput at max_batch=8 vs max_batch=1 under
  the same overload; the acceptance bar is >= 2x.
* **SLO control** — an overload cell where the uncontrolled policy
  breaches a 1.5 ms p99 and bounded-queue admission control meets it.
"""

from __future__ import annotations

from repro.bench import format_table
from repro.datasets import load_dataset
from repro.device import CPU, T4, V100
from repro.serve import ServePolicy, WorkloadSpec, run_cluster_session
from repro.stats import percentile_ms

from benchmarks.conftest import BENCH_SCALE

DEVICES = (("v100", V100), ("t4", T4), ("cpu", CPU))

#: Offered rates (requests/simulated second) swept per device.  Spans
#: from well under the slowest device's capacity to past the fastest's.
ARRIVAL_RATES = (5_000.0, 20_000.0, 80_000.0, 320_000.0)

REQUESTS = 384


def _session(ds, device, rate, policy, seed=0):
    spec = WorkloadSpec(num_requests=REQUESTS, arrival_rate=rate, seed=seed)
    _, rep = run_cluster_session(
        ds, device=device, spec=spec, policy=policy, seed=seed
    )
    return rep


def test_serve_latency_sweep(report):
    ds = load_dataset("pd", scale=BENCH_SCALE)
    policy = ServePolicy(max_batch=8, max_wait=5e-4, queue_capacity=None)
    rows = []
    knees = {}
    for label, device in DEVICES:
        for rate in ARRIVAL_RATES:
            rep = _session(ds, device, rate, policy)
            latencies = [log.latency for log in rep.logs if log.completed]
            rows.append(
                [
                    label,
                    f"{rate:,.0f}",
                    f"{rep.throughput_rps:,.0f}",
                    f"{rep.p50_ms:.3f}",
                    f"{percentile_ms(latencies, 90.0):.3f}",
                    f"{rep.p99_ms:.3f}",
                    f"{rep.mean_batch:.1f}",
                ]
            )
            knees.setdefault(label, []).append(rep)
    # Offered load beyond capacity cannot raise goodput: each device's
    # achieved throughput is capped, and mean batch size grows toward
    # max_batch as the arrival rate climbs (the knee).
    for label, reps in knees.items():
        assert reps[-1].mean_batch > reps[0].mean_batch
    # Faster devices sustain more of the offered overload.
    final = {label: reps[-1].throughput_rps for label, reps in knees.items()}
    assert final["v100"] > final["t4"] > final["cpu"]
    report(
        "serve_sweep",
        format_table(
            ["Device", "Offered (rps)", "Achieved (rps)", "p50 (ms)",
             "p90 (ms)", "p99 (ms)", "Mean batch"],
            rows,
            title=(
                f"Serving latency sweep — graphsage on PD scale "
                f"{BENCH_SCALE} ({REQUESTS} requests, max_batch=8, "
                "max_wait=0.5ms, unbounded queue)"
            ),
        ),
    )


def test_serve_batching_knee(report):
    ds = load_dataset("pd", scale=BENCH_SCALE)
    rows = []
    throughput = {}
    for max_batch in (1, 2, 4, 8, 16):
        policy = ServePolicy(
            max_batch=max_batch, max_wait=5e-4, queue_capacity=None
        )
        rep = _session(ds, V100, 500_000.0, policy)
        throughput[max_batch] = rep.throughput_rps
        rows.append(
            [
                str(max_batch),
                f"{rep.throughput_rps:,.0f}",
                f"{rep.p50_ms:.3f}",
                f"{rep.p99_ms:.3f}",
            ]
        )
    # Acceptance: batching at 8 at least doubles batch-1 throughput.
    assert throughput[8] >= 2.0 * throughput[1]
    report(
        "serve_batching_knee",
        format_table(
            ["Max batch", "Throughput (rps)", "p50 (ms)", "p99 (ms)"],
            rows,
            title=(
                "Dynamic batching knee — graphsage/PD/V100 under "
                "overload (500k rps offered); launch overhead amortizes "
                "across the batch"
            ),
        ),
    )


def test_serve_slo_control(report):
    ds = load_dataset("pd", scale=BENCH_SCALE)
    slo = 15e-4
    spec = WorkloadSpec(num_requests=1024, arrival_rate=400_000.0, seed=0)
    cells = {
        "none": ServePolicy(max_batch=8, max_wait=5e-4, queue_capacity=None),
        "shed": ServePolicy(
            max_batch=8, max_wait=5e-4, queue_capacity=24, slo=slo
        ),
        "full": ServePolicy(
            max_batch=8, max_wait=5e-4, queue_capacity=24, slo=slo
        ),
    }
    rows = []
    reports = {}
    for name, policy in cells.items():
        _, rep = run_cluster_session(
            ds, device=V100, spec=spec, policy=policy, seed=0
        )
        reports[name] = rep
        rows.append(
            [
                name,
                f"{rep.p99_ms:.3f}",
                "yes" if rep.p99_ms <= slo * 1e3 else "NO",
                str(rep.completed),
                str(rep.shed),
                str(rep.degraded),
            ]
        )
    # Acceptance: no control breaches the SLO; admission control meets it
    # at the same offered rate, trading completed requests for latency.
    assert reports["none"].p99_ms > slo * 1e3
    assert reports["shed"].p99_ms <= slo * 1e3
    assert reports["shed"].shed > 0
    report(
        "serve_slo",
        format_table(
            ["Policy", "p99 (ms)", "SLO met", "Completed", "Shed",
             "Degraded"],
            rows,
            title=(
                "SLO-aware admission — graphsage/PD/V100, 1024 requests "
                "at 400k rps offered, p99 SLO 1.5 ms"
            ),
        ),
    )


def test_serve_composer_knee(report):
    """Cross-request super-batching vs FIFO across the knee.

    Below saturation there is nothing to fuse — windows stay near
    ``max_batch`` and superbatch pays extra per-request compute for its
    exact per-request outputs.  Past the knee the pending queue deepens,
    the composer fuses whole windows into one launch sequence, and the
    per-kernel launch overhead amortizes across every fused request.
    The acceptance bar sits at the knee: >= 1.5x FIFO throughput at
    equal-or-better p99 under overload.
    """
    ds = load_dataset("pd", scale=BENCH_SCALE)
    policy = ServePolicy(max_batch=8, max_wait=5e-4, queue_capacity=64)
    rows = []
    cells = {}
    for rate in (100_000.0, 200_000.0, 400_000.0, 800_000.0):
        for composer in ("fifo", "binned", "superbatch"):
            spec = WorkloadSpec(
                num_requests=256, arrival_rate=rate, seed=0
            )
            _, rep = run_cluster_session(
                ds,
                device=V100,
                spec=spec,
                policy=policy,
                composer=composer,
                seed=0,
            )
            cells[(rate, composer)] = rep
            fused = (
                f"{rep.superbatch_requests / rep.superbatch_batches:.1f}"
                if rep.superbatch_batches
                else "-"
            )
            rows.append(
                [
                    f"{rate:,.0f}",
                    composer,
                    f"{rep.throughput_rps:,.0f}",
                    f"{rep.p50_ms:.3f}",
                    f"{rep.p99_ms:.3f}",
                    str(rep.shed),
                    fused,
                ]
            )
    # Acceptance at the knee and beyond: superbatch >= 1.5x FIFO
    # throughput with equal-or-better p99.
    for rate in (400_000.0, 800_000.0):
        fifo = cells[(rate, "fifo")]
        sb = cells[(rate, "superbatch")]
        assert sb.throughput_rps >= 1.5 * fifo.throughput_rps
        assert sb.p99_ms <= fifo.p99_ms
    report(
        "serve_composer_knee",
        format_table(
            ["Offered (rps)", "Composer", "Achieved (rps)", "p50 (ms)",
             "p99 (ms)", "Shed", "Mean fused"],
            rows,
            title=(
                f"Batch-composition knee — graphsage on PD scale "
                f"{BENCH_SCALE}, V100, 256 requests, max_batch=8, "
                "queue_capacity=64; super-batch fuses the whole pending "
                "window into one launch sequence"
            ),
        ),
    )
