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
import operator
from collections import Counter
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.cache import CacheStats
from repro.stats import LATENCY_PERCENTILES, percentile_ms

__all__ = [
    "FEATURE_GROUPS",
    "LATENCY_PERCENTILES",
    "FeatureGroup",
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


#: Reads one number off a report.
_Getter = Callable[["ServeReport"], float]


class FeatureGroup(NamedTuple):
    """One optional serving feature: when it is on and what it records."""

    name: str
    #: The feature's predicate — written here and nowhere else.
    active: Callable[[ServeReport], bool]
    #: Its word in the lane tag, formatted with the report as ``r``
    #: (:attr:`ServeReport.lane` has the precedence).
    lane: str
    #: ``metric key -> getter`` in lane-record order.
    metrics: dict[str, _Getter]


def _metrics(*entries) -> dict[str, _Getter]:
    """``key -> getter``; a bare name is the report attribute it names."""
    return dict(
        (e, operator.attrgetter(e)) if isinstance(e, str) else e
        for e in entries
    )


def _mean_fused(r: ServeReport) -> float:
    """Requests per fused super-batch run."""
    if not r.superbatch_batches:
        return 0.0
    return r.superbatch_requests / r.superbatch_batches


def _ms(name: str) -> _Getter:
    """A seconds-valued report field, recorded in milliseconds."""
    return lambda r: getattr(r, name) * 1e3


def _cache(get: Callable[[CacheStats], float]) -> _Getter:
    """A number read off the merged cache stats (0 without a cache)."""
    return lambda r: get(r.cache) if r.cache else 0.0


#: What every session records, whatever it ran with.
_BASE_METRICS = _metrics(
    ("sim_seconds", operator.attrgetter("makespan")),
    "throughput_rps", "p50_ms", "p95_ms", "p99_ms", "mean_queue_ms",
    "mean_batch", "completed", "shed", "degraded",
    ("cache_hit_rate", _cache(operator.attrgetter("hit_rate"))),
)

#: The optional features of a serving session, in lane-record
#: order.  Every reader — :meth:`ServeReport.to_metrics`,
#: :attr:`ServeReport.lane`, the ``serve`` command's table and titles
#: — asks :meth:`ServeReport.groups` which are on.  Each
#: combination writes its own ``BENCH_<lane>_*`` file, so a group's keys
#: never perturb another lane's schema.
FEATURE_GROUPS = (
    FeatureGroup(
        "cluster", lambda r: r.replicas > 1, "cluster",
        _metrics(
            "replicas", "cross_shard_rows", "cross_shard_bytes",
            ("link_ms", _ms("link_seconds")),
        ),
    ),
    FeatureGroup(
        "task", lambda r: r.task != "node", "{r.task}",
        _metrics("pairs_served", "compaction_saved_rows"),
    ),
    FeatureGroup(
        "composer", lambda r: r.composer != "fifo", "{r.composer}",
        _metrics(
            "padding_seeds", "dedup_rows", "superbatch_requests",
            ("mean_fused", _mean_fused),
        ),
    ),
    FeatureGroup(
        "tiered", lambda r: r.feature_tiers, "tiered",
        _metrics(
            *((f"tier_{tier}_rate", _cache(lambda c, t=tier: c.tier_rate(t)))
              for tier in ("device", "p2p", "host", "remote")),
            "p2p_rows", "p2p_bytes", ("p2p_ms", _ms("p2p_seconds")),
        ),
    ),
    FeatureGroup(
        "elastic", lambda r: r.elastic, "elastic",
        _metrics(
            "availability", "lost", "retried", "hedged", "failures",
            "scale_ups", "scale_downs", "gpu_seconds", "reprovision_bytes",
        ),
    ),
    FeatureGroup(
        "dynamic", lambda r: r.dynamic, "dynamic",
        _metrics(
            "ingested_edges", "deleted_edges", "update_batches", "snapshots",
            "compactions", "mean_staleness_ms", "max_staleness_ms",
            "refresh_ms", "rebalances", "migrated_rows", "migrated_bytes",
            ("invalidated_rows", _cache(operator.attrgetter("invalidated_rows"))),
        ),
    ),
)


def _fleet_sum(default=0):
    """A report field the cluster fills by summing its replicas' counters
    (each stays zero on a replica whose feature is off)."""
    return dataclasses.field(default=default, metadata={"fleet_sum": True})


@dataclasses.dataclass
class ServeReport:
    """Aggregate outcome of one serving session (replica or cluster).

    Everything after ``logs`` belongs to one of :data:`FEATURE_GROUPS` and
    stays at its default while that group is off.
    """

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
    #: Cluster shape: 1 for the classic single-replica session.
    replicas: int = 1
    router: str = ""
    per_replica: list[ReplicaStats] = dataclasses.field(default_factory=list)
    cross_shard_rows: int = _fleet_sum()
    cross_shard_bytes: int = _fleet_sum()
    link_seconds: float = _fleet_sum(0.0)
    #: Workload task the session served.
    task: str = "node"
    #: Candidate pairs (positive + negative) scored across the fleet.
    pairs_served: int = _fleet_sum()
    #: Raw pair-endpoint slots the per-batch compaction collapsed away.
    compaction_saved_rows: int = _fleet_sum()
    #: Batch-composition policy the session ran under.
    composer: str = "fifo"
    #: Seed slots a padded deployment would waste: per joint batch,
    #: (max member seed count - member seed count) summed over members.
    padding_seeds: int = _fleet_sum()
    #: Feature rows the super-batch path avoided re-fetching by
    #: deduplicating the fused requests' node sets.
    dedup_rows: int = _fleet_sum()
    #: Requests served through the fused super-batch path, and the
    #: number of fused runs they amortized into.
    superbatch_requests: int = _fleet_sum()
    superbatch_batches: int = _fleet_sum()
    #: True when the session ran under the control plane (failure
    #: injection and/or the autoscaler).
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
    #: Summed per-replica in-service simulated seconds — the GPU-hours
    #: denominator of the elastic-vs-static comparison.
    gpu_seconds: float = 0.0
    #: Shard / warm-cache bytes streamed to revived or newly activated
    #: replicas over the interconnect.
    reprovision_bytes: int = 0
    #: True when the session served features through the multi-tier
    #: store (HBM -> peer HBM -> pinned host -> remote).
    feature_tiers: bool = False
    #: Rows fetched from sibling replicas' HBM over the interconnect.
    p2p_rows: int = _fleet_sum()
    p2p_bytes: int = _fleet_sum()
    #: Simulated seconds spent on the interconnect for those rows.
    p2p_seconds: float = _fleet_sum(0.0)
    #: True when the session served while ingesting graph updates
    #: (:mod:`repro.dynamic`).
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

    def groups(self) -> list[FeatureGroup]:
        """The :data:`FEATURE_GROUPS` this session ran with, in order."""
        return [group for group in FEATURE_GROUPS if group.active(self)]

    @property
    def lane(self) -> str:
        """The lane (``BENCH_<lane>_*``) this session writes.

        ``serve`` or ``cluster``, suffixed by a non-FIFO composer;
        ``tiered`` < ``elastic`` < ``dynamic`` each override that word;
        a non-node task prefixes the result (and stands alone for the
        plain ``serve`` lane).
        """
        words = {g.name: g.lane.format(r=self) for g in self.groups()}
        lane = words.get("cluster", "serve")
        if "composer" in words:
            lane = f"{lane}_{words['composer']}"
        for override in ("tiered", "elastic", "dynamic"):
            lane = words.get(override, lane)
        if "task" in words:
            lane = (
                words["task"] if lane == "serve" else f"{words['task']}_{lane}"
            )
        return lane

    def to_metrics(self) -> dict[str, float]:
        """Flat metric dict for the ``BENCH_<lane>_*`` lane record:
        the base keys, then each active group's (:data:`FEATURE_GROUPS`)."""
        getters = dict(_BASE_METRICS)
        for group in self.groups():
            getters.update(group.metrics)
        return {key: float(get(self)) for key, get in getters.items()}


#: ``counter -> zero`` of every report field declared ``_fleet_sum()``:
#: what a replica starts its session with and the cluster sums back up.
FLEET_COUNTERS = {
    field.name: field.default
    for field in dataclasses.fields(ServeReport)
    if field.metadata.get("fleet_sum")
}


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

    The log columns are :func:`summarize` over the replica's slice of the
    merged log (the router's assignments), so the cluster table and the
    aggregate report cannot disagree about the math; ``replicas`` supplies
    the non-log state (cross-shard counters, cache snapshots, uptime).
    """
    out = []
    for replica in replicas:
        rid = replica.replica_id
        mine = summarize([log for log in logs if log.replica == rid])
        out.append(
            ReplicaStats(
                replica_id=rid,
                requests=mine.requests,
                completed=mine.completed,
                shed=mine.shed,
                degraded=mine.degraded,
                p50_ms=mine.p50_ms,
                p99_ms=mine.p99_ms,
                mean_batch=mine.mean_batch,
                cross_shard_rows=replica.cross_shard_rows,
                cross_shard_bytes=replica.cross_shard_bytes,
                link_seconds=replica.link_seconds,
                cache=replica.features.stats(),
                uptime_seconds=replica.up_seconds,
                failures=replica.failures,
            )
        )
    return out
