"""Serving metrics: the per-request log and its aggregate report.

Latency accounting follows the standard serving decomposition:

* ``queue`` time — from a request's arrival to its batch's service start
  (dynamic-batching wait plus head-of-line blocking behind earlier
  batches);
* ``service`` time — from service start to the batch's last queue
  finishing (sampling on the ``sample`` queue, then the feature fetch on
  the ``transfer`` queue);
* end-to-end latency = queue + service, reported as p50/p95/p99 over
  completed requests only.  Shed requests never enter the percentiles —
  a refused request is an availability loss (counted separately), not a
  latency sample.

All percentile math lives in :mod:`repro.stats` (shared with the bench
scripts and the replicas' SLO monitors), applied here over the
deterministic request log, so a fixed seed reproduces every percentile
bit-for-bit (the determinism guard's second half).  The same
:func:`summarize` fold serves both a single replica's log and the
cluster's merged, arrival-ordered log; :func:`replica_breakdown` slices
the merged log back into per-replica :class:`ReplicaStats`.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np

from repro.cache import CacheStats
from repro.stats import LATENCY_PERCENTILES, percentile_ms

__all__ = [
    "LATENCY_PERCENTILES",
    "ReplicaStats",
    "RequestLog",
    "ServeReport",
    "percentile_ms",
    "replica_breakdown",
    "summarize",
]


@dataclasses.dataclass
class RequestLog:
    """Lifecycle record of one request through the serving simulator."""

    rid: int
    arrival: float
    admitted: bool
    start: float = math.nan
    completion: float = math.nan
    batch_id: int = -1
    batch_size: int = 0
    #: Degradation-ladder level the request was served at (0 = full
    #: fidelity); for shed requests, the level in force when refused.
    level: int = 0
    #: Replica the router sent the request to (0 for single-replica
    #: sessions).  Deliberately outside :meth:`key`: the fingerprint
    #: predates the cluster layer and must stay comparable across it.
    replica: int = 0
    #: Seed count of the request (padding accounting / size-binning
    #: diagnostics).  Outside :meth:`key` for the same reason as
    #: ``replica``: the fingerprint predates the composer layer.
    seeds: int = 0
    #: Times this request was re-routed after its replica died.  Outside
    #: :meth:`key` (the fingerprint predates the failure layer; the
    #: failure-free path always has 0 here).
    retries: int = 0
    #: True when a retry was duplicated to a second replica (the
    #: surviving log is the winning copy).  Outside :meth:`key` likewise.
    hedged: bool = False

    @property
    def completed(self) -> bool:
        return self.admitted and not math.isnan(self.completion)

    @property
    def latency(self) -> float:
        return self.completion - self.arrival

    @property
    def queue_seconds(self) -> float:
        return self.start - self.arrival

    def key(self) -> tuple:
        """Hashable identity used by the determinism guard."""
        return (
            self.rid,
            self.arrival,
            self.admitted,
            self.start,
            self.completion,
            self.batch_id,
            self.batch_size,
            self.level,
        )


@dataclasses.dataclass
class ReplicaStats:
    """One replica's share of a cluster serving session."""

    replica_id: int
    requests: int
    completed: int
    shed: int
    degraded: int
    p50_ms: float
    p99_ms: float
    mean_batch: float
    #: Frontier rows this replica pulled from other shards' devices.
    cross_shard_rows: int
    cross_shard_bytes: int
    #: Simulated seconds spent on the interconnect for those rows.
    link_seconds: float
    cache: CacheStats | None
    #: In-service simulated seconds (the per-replica GPU-time meter).
    uptime_seconds: float = 0.0
    #: Kills this replica absorbed during the session.
    failures: int = 0


@dataclasses.dataclass
class ServeReport:
    """Aggregate outcome of one serving session (replica or cluster)."""

    requests: int
    completed: int
    shed: int
    #: Requests served below full fidelity (ladder level >= 1).
    degraded: int
    #: Simulated seconds from t=0 to the last completion.
    makespan: float
    throughput_rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    mean_queue_ms: float
    mean_batch: float
    #: ``batch size -> number of batches`` histogram.
    batch_histogram: dict[int, int]
    cache: CacheStats | None
    logs: list[RequestLog]
    #: Cluster shape: 1 for the classic single-replica session.  The
    #: fields below stay at their defaults there, so the report (and its
    #: fingerprint) is unchanged from the pre-cluster subsystem.
    replicas: int = 1
    router: str = ""
    per_replica: list[ReplicaStats] = dataclasses.field(default_factory=list)
    cross_shard_rows: int = 0
    cross_shard_bytes: int = 0
    link_seconds: float = 0.0
    #: Workload task the session served.  ``"node"`` (the default) keeps
    #: the report — and :meth:`to_metrics` — identical to the pre-task
    #: subsystem; the pair fields below stay zero there.
    task: str = "node"
    #: Candidate pairs (positive + negative) scored across the fleet.
    pairs_served: int = 0
    #: Raw pair-endpoint slots the per-batch compaction collapsed away.
    compaction_saved_rows: int = 0
    #: Batch-composition policy the session ran under.  ``"fifo"`` (the
    #: default) keeps the report — and :meth:`to_metrics` — identical to
    #: the pre-composer subsystem; the fields below stay zero there.
    composer: str = "fifo"
    #: Seed slots a padded deployment would waste: per joint batch,
    #: (max member seed count - member seed count) summed over members.
    padding_seeds: int = 0
    #: Feature rows the super-batch path avoided re-fetching by
    #: deduplicating the fused requests' node sets.
    dedup_rows: int = 0
    #: Requests served through the fused super-batch path, and the
    #: number of fused runs they amortized into.
    superbatch_requests: int = 0
    superbatch_batches: int = 0
    #: True when the session ran under the control plane (failure
    #: injection and/or the autoscaler).  All fields below stay at their
    #: defaults otherwise, so classic reports — and :meth:`to_metrics` —
    #: are unchanged from the pre-control-plane subsystem.
    elastic: bool = False
    #: Replica kills executed by the failure schedule.
    failures: int = 0
    #: Admitted requests that never completed (died with a replica, ran
    #: out of retries, or found no routable replica).  Distinct from
    #: ``shed``, which counts requests *refused* at admission.
    lost: int = 0
    #: Completed requests that survived at least one re-route.
    retried: int = 0
    #: Completed requests whose retry was duplicated to a second replica.
    hedged: int = 0
    #: Hedged requests where the duplicate (not the primary retry) won.
    hedge_wins: int = 0
    #: Autoscaler actions executed.
    scale_ups: int = 0
    scale_downs: int = 0
    #: Batching-knob moves the online tuner made.
    tune_moves: int = 0
    #: Summed per-replica in-service simulated seconds — the GPU-hours
    #: denominator of the elastic-vs-static comparison.
    gpu_seconds: float = 0.0
    #: Shard / warm-cache bytes streamed to revived or newly activated
    #: replicas over the interconnect.
    reprovision_bytes: int = 0
    #: True when the session served features through the multi-tier
    #: store (HBM -> peer HBM -> pinned host -> remote).  All fields
    #: below stay at their defaults for the flat cache, so classic
    #: reports — and :meth:`to_metrics` — are unchanged from the
    #: single-tier subsystem.
    feature_tiers: bool = False
    #: Rows fetched from sibling replicas' HBM over the interconnect.
    p2p_rows: int = 0
    p2p_bytes: int = 0
    #: Simulated seconds spent on the interconnect for those rows.
    p2p_seconds: float = 0.0
    #: True when the session served while ingesting graph updates
    #: (:mod:`repro.dynamic`).  All fields below stay at their defaults
    #: for static sessions, so classic reports — and :meth:`to_metrics`
    #: — are unchanged from the frozen-graph subsystem.
    dynamic: bool = False
    #: Edge inserts / tombstoned deletes applied over the session.
    ingested_edges: int = 0
    deleted_edges: int = 0
    #: Update batches applied between request batches.
    update_batches: int = 0
    #: Overlay-snapshot installs and canonical compactions executed.
    snapshots: int = 0
    compactions: int = 0
    #: Edge-weighted mean / max time an applied update waited before a
    #: snapshot made it visible to the samplers (the staleness half of
    #: the staleness-vs-latency trade).
    mean_staleness_ms: float = 0.0
    max_staleness_ms: float = 0.0
    #: Simulated device time the fleet spent merging/compacting deltas
    #: on the sample queues (the latency half).
    refresh_ms: float = 0.0
    #: Incremental-repartition actions and the feature rows / bytes they
    #: migrated across the interconnect.
    rebalances: int = 0
    migrated_rows: int = 0
    migrated_bytes: int = 0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def availability(self) -> float:
        """Fraction of offered requests that were answered."""
        return self.completed / self.requests if self.requests else 1.0

    def slo_attainment(self, slo: float) -> float:
        """Fraction of offered requests answered within ``slo`` seconds.

        Shed and lost requests count as misses — an unanswered request
        can't have met its deadline — which is what makes attainment the
        honest elastic-vs-static scoreboard (a fleet can't win it by
        shedding its way to a clean p99).
        """
        if not self.requests:
            return 1.0
        within = sum(
            1 for log in self.logs if log.completed and log.latency <= slo
        )
        return within / self.requests

    def fingerprint(self) -> tuple:
        """Order-sensitive digest of the full request log + percentiles.

        Two serve runs with equal seeds must produce equal fingerprints;
        this is what the determinism test compares.
        """
        return (
            tuple(log.key() for log in self.logs),
            (self.p50_ms, self.p95_ms, self.p99_ms, self.throughput_rps),
        )

    def to_metrics(self) -> dict[str, float]:
        """Flat metric dict for the ``BENCH_serve_*`` trajectory record.

        Cluster sessions append their own keys; the single-replica dict
        is byte-for-byte what the pre-cluster subsystem recorded, so the
        committed ``BENCH_serve_*`` trajectory stays comparable.
        """
        metrics = {
            "sim_seconds": self.makespan,
            "throughput_rps": self.throughput_rps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_queue_ms": self.mean_queue_ms,
            "mean_batch": self.mean_batch,
            "completed": float(self.completed),
            "shed": float(self.shed),
            "degraded": float(self.degraded),
            "cache_hit_rate": self.cache.hit_rate if self.cache else 0.0,
        }
        if self.replicas > 1:
            metrics["replicas"] = float(self.replicas)
            metrics["cross_shard_rows"] = float(self.cross_shard_rows)
            metrics["cross_shard_bytes"] = float(self.cross_shard_bytes)
            metrics["link_ms"] = self.link_seconds * 1e3
        if self.task != "node":
            # Pair-task lanes get their own trajectory tag, so new keys
            # here never perturb the committed node-task lanes' schema.
            metrics["pairs_served"] = float(self.pairs_served)
            metrics["compaction_saved_rows"] = float(
                self.compaction_saved_rows
            )
        if self.composer != "fifo":
            # Composer lanes get their own trajectory tag, so new keys
            # here never perturb the committed FIFO lanes' schema.
            metrics["padding_seeds"] = float(self.padding_seeds)
            metrics["dedup_rows"] = float(self.dedup_rows)
            metrics["superbatch_requests"] = float(self.superbatch_requests)
            metrics["mean_fused"] = (
                self.superbatch_requests / self.superbatch_batches
                if self.superbatch_batches
                else 0.0
            )
        if self.feature_tiers:
            # Tiered-store sessions append to their own BENCH_tiered_*
            # trajectory, so these keys never perturb the classic lanes.
            cache = self.cache
            for tier in ("device", "p2p", "host", "remote"):
                metrics[f"tier_{tier}_rate"] = (
                    cache.tier_rate(tier) if cache else 0.0
                )
            metrics["p2p_rows"] = float(self.p2p_rows)
            metrics["p2p_bytes"] = float(self.p2p_bytes)
            metrics["p2p_ms"] = self.p2p_seconds * 1e3
        if self.elastic:
            # Elastic/chaos sessions append to their own BENCH_elastic_*
            # trajectory, so these keys never perturb the classic lanes.
            metrics["availability"] = self.availability
            metrics["lost"] = float(self.lost)
            metrics["retried"] = float(self.retried)
            metrics["hedged"] = float(self.hedged)
            metrics["failures"] = float(self.failures)
            metrics["scale_ups"] = float(self.scale_ups)
            metrics["scale_downs"] = float(self.scale_downs)
            metrics["tune_moves"] = float(self.tune_moves)
            metrics["gpu_seconds"] = self.gpu_seconds
            metrics["reprovision_bytes"] = float(self.reprovision_bytes)
        if self.dynamic:
            # Dynamic sessions append to their own BENCH_dynamic_*
            # trajectory, so these keys never perturb the classic lanes.
            metrics["ingested_edges"] = float(self.ingested_edges)
            metrics["deleted_edges"] = float(self.deleted_edges)
            metrics["update_batches"] = float(self.update_batches)
            metrics["snapshots"] = float(self.snapshots)
            metrics["compactions"] = float(self.compactions)
            metrics["mean_staleness_ms"] = self.mean_staleness_ms
            metrics["max_staleness_ms"] = self.max_staleness_ms
            metrics["refresh_ms"] = self.refresh_ms
            metrics["rebalances"] = float(self.rebalances)
            metrics["migrated_rows"] = float(self.migrated_rows)
            metrics["migrated_bytes"] = float(self.migrated_bytes)
            metrics["invalidated_rows"] = float(
                self.cache.invalidated_rows if self.cache else 0
            )
        return metrics


def summarize(
    logs: list[RequestLog], *, cache: CacheStats | None = None
) -> ServeReport:
    """Fold a request log into a :class:`ServeReport`."""
    done = [log for log in logs if log.completed]
    latencies = np.array([log.latency for log in done], dtype=np.float64)
    queue_waits = np.array(
        [log.queue_seconds for log in done], dtype=np.float64
    )
    makespan = max((log.completion for log in done), default=0.0)
    # Per-batch histogram: each batch contributes once, not once per
    # member request.  Batch ids are per-replica, so the batch identity
    # is the (replica, batch_id) pair.
    batches: Counter[int] = Counter()
    seen: set[tuple[int, int]] = set()
    for log in done:
        if log.batch_id >= 0 and (log.replica, log.batch_id) not in seen:
            seen.add((log.replica, log.batch_id))
            batches[log.batch_size] += 1
    total_batches = sum(batches.values())
    return ServeReport(
        requests=len(logs),
        completed=len(done),
        shed=sum(1 for log in logs if not log.admitted),
        degraded=sum(1 for log in done if log.level > 0),
        makespan=makespan,
        throughput_rps=len(done) / makespan if makespan > 0.0 else 0.0,
        p50_ms=percentile_ms(latencies, 50.0),
        p95_ms=percentile_ms(latencies, 95.0),
        p99_ms=percentile_ms(latencies, 99.0),
        mean_ms=float(latencies.mean()) * 1e3 if latencies.size else 0.0,
        max_ms=float(latencies.max()) * 1e3 if latencies.size else 0.0,
        mean_queue_ms=(
            float(queue_waits.mean()) * 1e3 if queue_waits.size else 0.0
        ),
        mean_batch=(
            sum(size * count for size, count in batches.items())
            / total_batches
            if total_batches
            else 0.0
        ),
        batch_histogram=dict(sorted(batches.items())),
        cache=cache,
        logs=logs,
        lost=sum(1 for log in logs if log.admitted and not log.completed),
        retried=sum(1 for log in logs if log.completed and log.retries > 0),
        hedged=sum(1 for log in logs if log.completed and log.hedged),
    )


def replica_breakdown(
    logs: list[RequestLog], replicas: list
) -> list[ReplicaStats]:
    """Per-replica stats from the cluster's merged request log.

    ``replicas`` supplies the non-log state (cross-shard counters and
    cache snapshots); the latency columns come from slicing the merged
    log by the router's assignments and reusing the shared percentile
    helpers, so the cluster table and the aggregate report can never
    disagree about the math.
    """
    out = []
    for replica in replicas:
        rid = replica.replica_id
        mine = [log for log in logs if log.replica == rid]
        done = [log for log in mine if log.completed]
        latencies = np.array([log.latency for log in done], dtype=np.float64)
        batch_sizes = {
            (log.batch_id, log.batch_size) for log in done if log.batch_id >= 0
        }
        out.append(
            ReplicaStats(
                replica_id=rid,
                requests=len(mine),
                completed=len(done),
                shed=sum(1 for log in mine if not log.admitted),
                degraded=sum(1 for log in done if log.level > 0),
                p50_ms=percentile_ms(latencies, 50.0),
                p99_ms=percentile_ms(latencies, 99.0),
                mean_batch=(
                    sum(size for _, size in batch_sizes) / len(batch_sizes)
                    if batch_sizes
                    else 0.0
                ),
                cross_shard_rows=replica.cross_shard_rows,
                cross_shard_bytes=replica.cross_shard_bytes,
                link_seconds=replica.link_seconds,
                cache=replica.cache_stats(),
                uptime_seconds=replica.up_seconds,
                failures=replica.failures,
            )
        )
    return out
