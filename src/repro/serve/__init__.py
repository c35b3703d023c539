"""Online serving subsystem: replicas, routers, clusters, SLOs.

The offline pipeline (``repro.pipeline``) amortizes per-launch overhead
by construction — every epoch is a fixed batch schedule.  An online
service must make the same trade *dynamically*: coalesce enough queued
requests to keep the device busy without letting the oldest request's
latency blow through its SLO.  This package simulates that loop on the
device simulator's clock, for one replica or a routed cluster of them:

* :mod:`repro.serve.workload` — seeded arrival processes (Poisson,
  bursty, diurnal) and skew-drawn per-request seed sets;
* :mod:`repro.serve.compose` — pluggable batch composition: the classic
  FIFO dynamic batcher, a size-binned variant that never mixes
  seed-count bins, and the cross-request super-batch composer that
  fuses every pending request into one compiled ``run_superbatch``
  launch sequence (the paper's Table 7 optimization, generalized from
  training epochs to the serving hot loop);
* :mod:`repro.serve.replica` — one replica: the dynamic batcher
  (max-batch/max-wait), bounded-queue admission control, the SLO-aware
  degradation ladder (reduced fanout, then cached-only features), batch
  service on the ``sample``/``transfer`` device queues, and optionally
  a graph shard + interconnect for cross-shard frontier fetches;
* :mod:`repro.serve.router` — request routing across replicas
  (round-robin, join-shortest-queue, power-of-two-choices,
  shard-affinity), all deterministic under the session seed;
* :mod:`repro.serve.cluster` — N replicas advanced in global
  simulated-time order behind one router, aggregated into a cluster
  report with per-replica and cross-shard-traffic breakdowns (the
  single-replica session is its ``num_replicas=1`` case);
* :mod:`repro.serve.failures` — deterministic chaos schedules: scheduled
  replica kills, orphan retry/shed policy, hedged duplicates, optional
  revival with re-replication charged over the interconnect;
* :mod:`repro.serve.control` — the elastic control plane: a windowed
  p99/occupancy-driven autoscaler (scale-up/down between arrivals, with
  spin-up and re-replication charges);
* :mod:`repro.serve.ingest` — serve-while-ingesting: graph updates as
  events on the cluster loop (loaded only when a session ingests);
* :mod:`repro.serve.metrics` — the per-request log and the aggregate
  report (throughput, p50/p95/p99, batch histogram, shed/degraded
  counts, cache hit rate, cross-shard link traffic).

CLI: ``gsampler-repro serve --arrival-rate ... --slo-ms ... --replicas 4
--router jsq --partition greedy``.  Every observable is deterministic in
the workload spec, topology, and simulator seed.
"""

from repro.serve.cluster import ClusterSimulator, run_cluster_session
from repro.serve.control import AutoscalePolicy, Autoscaler, ScaleEvent
from repro.serve.failures import (
    ORPHAN_POLICIES,
    FailureEvent,
    FailureSpec,
)
from repro.serve.compose import (
    COMPOSER_POLICIES,
    BatchComposer,
    BatchPlan,
    FifoComposer,
    SizeBinnedComposer,
    SuperbatchComposer,
    clamp_fire,
    make_composer,
)
from repro.serve.metrics import (
    FEATURE_GROUPS,
    LATENCY_PERCENTILES,
    ReplicaStats,
    RequestLog,
    ServeReport,
    replica_breakdown,
    summarize,
)
from repro.serve.replica import (
    MAX_DEGRADE_LEVEL,
    POLICY_PRESETS,
    Replica,
    ServePolicy,
    build_pipelines,
    degraded_kwargs,
    replica_rng,
)
from repro.serve.router import (
    ROUTER_POLICIES,
    JoinShortestQueueRouter,
    PowerOfTwoRouter,
    RoundRobinRouter,
    Router,
    ShardAffinityRouter,
    make_router,
)
from repro.serve.workload import (
    ARRIVAL_PROCESSES,
    Request,
    WorkloadSpec,
    arrival_times,
    generate_workload,
    rank_probabilities,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "COMPOSER_POLICIES",
    "FEATURE_GROUPS",
    "LATENCY_PERCENTILES",
    "MAX_DEGRADE_LEVEL",
    "POLICY_PRESETS",
    "ORPHAN_POLICIES",
    "ROUTER_POLICIES",
    "AutoscalePolicy",
    "Autoscaler",
    "BatchComposer",
    "BatchPlan",
    "ClusterSimulator",
    "FailureEvent",
    "FailureSpec",
    "FifoComposer",
    "JoinShortestQueueRouter",
    "PowerOfTwoRouter",
    "Replica",
    "ReplicaStats",
    "Request",
    "RequestLog",
    "RoundRobinRouter",
    "Router",
    "ScaleEvent",
    "ServePolicy",
    "ServeReport",
    "ShardAffinityRouter",
    "SizeBinnedComposer",
    "SuperbatchComposer",
    "WorkloadSpec",
    "arrival_times",
    "build_pipelines",
    "clamp_fire",
    "degraded_kwargs",
    "generate_workload",
    "make_composer",
    "make_router",
    "rank_probabilities",
    "replica_breakdown",
    "replica_rng",
    "run_cluster_session",
    "summarize",
]
