"""The cluster layer: N replicas behind a router on one simulated clock.

A :class:`ClusterSimulator` owns N :class:`~repro.serve.replica.Replica`
instances (each with its own execution-context pair and
:class:`~repro.cache.FeatureSource`) and a
:class:`~repro.serve.router.Router`.  Its event loop
advances the whole cluster in **global simulated-time order**:

1. events are visited in ``(time, priority, seq)`` order;
2. before the event at time ``t`` is handled, *every* replica fires the
   batches due strictly before ``t`` (so queue-depth policies observe
   the same state a real balancer would — not stale snapshots);
3. the event's handler runs — for an arrival: the router picks a
   replica; the replica admits or sheds;
4. after the last event, all replicas drain.

Replica timelines never interact through device queues — each replica is
its own device — so this ordering is exact, not an approximation: a
replica's batch outcomes depend only on the requests routed to it.

With a graph partition, replica ``i`` owns shard ``i``; frontier nodes a
replica samples outside its shard are fetched from their owners over the
configured :class:`~repro.device.LinkSpec` (NVLink for V100 clusters,
PCIe otherwise) and surface in the report as cross-shard traffic.

A 1-replica round-robin cluster replays the pre-refactor monolithic
simulator decision-for-decision — the fingerprint-compat test holds
``run_cluster_session`` to that, bit-identically.

**Events and session extensions.**  An event is a
``(time, priority, seq, handler, payload)`` tuple: the loop sorts by the
first three and calls ``handler(time, payload)``.  The loop itself knows
one kind, the arrival.  Replica kills and revivals (``failures=``),
autoscaler ticks (``autoscale=``) and graph updates (``updates=`` /
``dynamic=``) come from *session extensions* —
:class:`~repro.serve.failures.FailureSession`,
:class:`~repro.serve.control.AutoscaleSession`,
:class:`~repro.serve.ingest.IngestSession` — each three calls: a
**constructor** that validates its keyword (``ServeError`` before any
replica is built) and owns its state; ``events(ordered_arrivals)``
yielding its events on its rung of
:data:`~repro.serve.control.EVENT_PRIORITY`; and
``finish(last_event_time)``, called after the drain, returning the
:class:`~repro.serve.metrics.ServeReport` fields it is responsible for
(DESIGN.md, "Cluster serving", has the contract in full).  Without those
keywords the event list holds only arrivals and the loop is the original
walk, which is what keeps static sessions bit-identical to their pins.
"""

from __future__ import annotations

import typing

from repro.cache import (
    DEFAULT_CACHE_RATIO,
    DEFAULT_HOST_TIER_RATIO,
    CacheStats,
    FeatureSource,
    graph_degrees,
)
from repro.datasets import Dataset
from repro.device import DeviceSpec, default_link_for, get_link
from repro.errors import ServeError, check_count
from repro.partition import make_partition
from repro.profile.spans import Profiler, maybe_span
from repro.serve.compose import make_composer
from repro.serve.control import EVENT_PRIORITY, AutoscalePolicy, AutoscaleSession
from repro.serve.failures import FailureSession, FailureSpec
from repro.serve.metrics import (
    FLEET_COUNTERS,
    RequestLog,
    ServeReport,
    replica_breakdown,
    summarize,
)
from repro.serve.replica import (
    Replica,
    ServePolicy,
    build_pipelines,
)
from repro.serve.router import Router, make_router
from repro.serve.workload import Request, WorkloadSpec, generate_workload
from repro.tasks import make_task

if typing.TYPE_CHECKING:
    from repro.dynamic import DynamicPolicy, UpdateSpec


class ClusterSimulator:
    """N serving replicas behind a router, on one simulated clock.

    Owns the topology (partition, link, router, composer, fleet), routes
    arrivals and runs the event loop; kills, autoscale ticks and graph
    updates are executed by session extensions (module docstring).  The
    constructor is the one place a serving name becomes an object: every
    part a :class:`~repro.serve.replica.Replica` holds is built here and
    handed to it.  A simulator serves **one** session: every counter
    starts in a constructor, so :meth:`run` refuses a second call.

    Parameters
    ----------
    dataset, algorithm, device, policy, seed, profiler:
        As for :class:`~repro.serve.replica.Replica`; every replica gets
        the same policy and its own contexts.  ``seed`` derives
        each replica's independent RNG stream (replica 0 keeps the
        session stream — the single-replica compatibility guarantee).
    cache_ratio, feature_tiers, host_tier_ratio, p2p, hbm_budget:
        The feature-store knobs, forwarded to each replica's
        :class:`~repro.cache.FeatureSource`.
    task:
        A :func:`repro.tasks.available_tasks` name: what request
        payloads mean.  Resolved once; every replica shares the task,
        and :meth:`build_workload` generates requests for it.
    num_replicas:
        Serving replicas to run (>= 1).
    router:
        A policy name from :data:`~repro.serve.router.ROUTER_POLICIES`
        or a pre-built :class:`~repro.serve.router.Router`.
    partition:
        ``None`` (unpartitioned: every replica holds the whole graph) or
        a partitioner name (``hash``/``greedy``; one shard per replica).
    link:
        Interconnect for cross-shard frontier fetches, re-replication
        and shard migration: a name (``nvlink``/``pcie``) or ``None``
        for the device's default wiring (V100 -> NVLink).  Unsharded
        replicas' p2p bands always ride the default wiring.
    composer:
        A :data:`~repro.serve.compose.COMPOSER_POLICIES` name.  One
        composer serves the whole fleet (composers are pure); a
        super-batching one needs the algorithm's pipelines to support
        super-batched execution.
    failures:
        Optional :class:`~repro.serve.failures.FailureSpec`: scheduled
        replica kills plus the orphan/failover policy (executed by a
        :class:`~repro.serve.failures.FailureSession`).
    autoscale:
        Optional :class:`~repro.serve.control.AutoscalePolicy`, executed
        by an :class:`~repro.serve.control.AutoscaleSession`.  The fleet is
        pre-built at ``max_replicas`` with replicas beyond
        ``num_replicas`` as inactive standbys; incompatible with a
        graph partition.
    updates, dynamic:
        Optional streaming-update side of the session (executed by an
        :class:`~repro.serve.ingest.IngestSession`): an
        :class:`~repro.dynamic.UpdateSpec` or a pre-built batch
        sequence, and the :class:`~repro.dynamic.DynamicPolicy` knobs
        (default ``DynamicPolicy()``).  With both ``None`` the ingest
        module is never imported.
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        algorithm: str = "graphsage",
        device: DeviceSpec,
        policy: ServePolicy | None = None,
        num_replicas: int = 1,
        router: str | Router = "round_robin",
        partition: str | None = None,
        link: str | None = None,
        composer: str = "fifo",
        cache_ratio: float = DEFAULT_CACHE_RATIO,
        seed: int = 0,
        profiler: Profiler | None = None,
        failures: FailureSpec | None = None,
        autoscale: AutoscalePolicy | None = None,
        feature_tiers: bool = False,
        host_tier_ratio: float = DEFAULT_HOST_TIER_RATIO,
        p2p: bool = False,
        hbm_budget: int | None = None,
        updates: UpdateSpec | list | tuple | None = None,
        dynamic: DynamicPolicy | None = None,
        task: str = "node",
    ) -> None:
        check_count("replicas", num_replicas, error=ServeError)
        self.dataset = dataset
        self.algorithm = algorithm
        self.device = device
        #: The :class:`~repro.tasks.Task` every replica decodes request
        #: payloads with.
        self.task = make_task(task)
        self.policy = policy if policy is not None else ServePolicy()
        self.profiler = profiler
        self.partition = (
            make_partition(partition, dataset.graph, num_replicas, seed=seed)
            if partition is not None
            else None
        )
        # The fleet's wiring, resolved once: cross-shard hops, p2p bands,
        # re-replication and shard migration all ride what is set here.
        wiring = default_link_for(device.name)
        self.link = get_link(link) if link is not None else wiring
        self.router = make_router(router, seed=seed, partition=self.partition)
        # Session extensions, each built (and validated) from its keyword
        # before any replica exists.
        fleet = num_replicas
        self.extensions: list = []
        if autoscale is not None:
            scaling = AutoscaleSession(self, autoscale, num_replicas)
            fleet = scaling.fleet_size
            self.extensions.append(scaling)
        if failures is not None:
            self.extensions.append(FailureSession(self, failures, fleet))
        if updates is not None or dynamic is not None:
            from repro.serve.ingest import IngestSession

            self.extensions.append(IngestSession(self, updates, dynamic))
        #: The fleet's one composer (composers are pure, so replicas
        #: share it).
        self.composer = make_composer(composer)
        self.feature_tiers = feature_tiers
        #: One compile, shared by every replica (pipelines are stateless
        #: with respect to the execution context) — which is also why a
        #: graph refresh rebinds every compiled layer's graph just once.
        self.pipelines = build_pipelines(dataset, algorithm)
        if self.composer.requires_superbatch and not all(
            pipeline.supports_superbatch for pipeline in self.pipelines
        ):
            raise ServeError(
                f"composer {self.composer.name!r} needs a super-batch "
                f"capable algorithm; {algorithm!r} excludes super-batching"
            )
        sharded = self.partition is not None
        fleet_link = self.link if sharded else wiring
        self.replicas = []
        for i in range(fleet):
            shard = self.partition.view(i) if sharded else None
            features = FeatureSource(
                dataset,
                cache_ratio=cache_ratio,
                feature_tiers=feature_tiers,
                host_tier_ratio=host_tier_ratio,
                p2p=p2p,
                hbm_budget=hbm_budget,
                link=fleet_link,
                device=device,
                replica_id=i,
                fleet_size=fleet,
                # Shard-affinity routing sends a sharded replica mostly
                # owned-shard traffic, so it ranks its cache by owned rows.
                owned_mask=shard.mask if shard is not None else None,
            )
            self.replicas.append(
                Replica(
                    dataset,
                    device=device,
                    policy=self.policy,
                    seed=seed,
                    profiler=profiler,
                    replica_id=i,
                    pipelines=self.pipelines,
                    composer=self.composer,
                    queue_prefix=f"r{i}:" if fleet > 1 else "",
                    shard=shard,
                    link=fleet_link,
                    task=self.task,
                    active=i < num_replicas,
                    features=features,
                )
            )
        #: Request logs in global arrival order, and each rid's slot.
        self.logs: list[RequestLog] = []
        self._log_index: dict[int, int] = {}
        self._served = False

    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    def build_workload(self, spec: WorkloadSpec) -> list[Request]:
        """Generate the spec's request stream for the session's task
        over this graph's nodes."""
        graph = self.dataset.graph
        return generate_workload(
            spec,
            task=self.task,
            num_nodes=self.dataset.num_nodes,
            hotness=graph_degrees(graph),
            edges=self.task.request_edges(graph),
        )

    # ------------------------------------------------------------------
    def file_log(self, log: RequestLog) -> None:
        """File ``log`` under its rid: the first fixes the rid's slot in
        arrival order; a later one (a retry, a winning hedge) replaces it
        there, so the report holds one log per offered request."""
        slot = self._log_index.setdefault(log.rid, len(self.logs))
        if slot == len(self.logs):
            self.logs.append(log)
        else:
            self.logs[slot] = log

    def _route_arrival(self, now: float, request: Request) -> None:
        """Route one arrival through the (possibly reduced) fleet."""
        target = -1
        if self.router.eligible(self.replicas, now):
            target = self.router.route(request, self.replicas, now)
            if not 0 <= target < len(self.replicas):
                raise ServeError(
                    f"router {self.router.name!r} returned replica "
                    f"{target} of {len(self.replicas)}"
                )
            if self.replicas[target].routable(now):
                self.file_log(self.replicas[target].offer(request))
                return
        # Admitted by the cluster, never answered: there was nobody to
        # ask (replica -1), or — the no-failover baseline — a blind
        # router sent the arrival to a corpse and it died with it.
        self.file_log(
            RequestLog(
                rid=request.rid,
                arrival=request.arrival,
                admitted=True,
                replica=target,
                seeds=int(request.seeds.size),
            )
        )

    # ------------------------------------------------------------------
    def run(self, requests: list[Request]) -> ServeReport:
        """Serve the whole stream across the cluster; aggregate report.

        A plain discrete-event loop: arrivals plus whatever the session
        extensions schedule, visited in ``(time, priority, seq)`` order.
        The log list is kept in global arrival order (the order arrivals
        were routed), so the cluster fingerprint is the same shape as a
        single replica's.
        """
        if self._served:
            raise ServeError(
                "this ClusterSimulator already served its session; "
                "build a new one to run again"
            )
        self._served = True
        ordered = sorted(requests, key=lambda r: (r.arrival, r.rid))
        events = [
            (r.arrival, EVENT_PRIORITY["arrival"], r.rid, self._route_arrival, r)
            for r in ordered
        ]
        for extension in self.extensions:
            events.extend(extension.events(ordered))
        events.sort(key=lambda e: e[:3])
        # Lookups made before the session — warm-up probes, a test
        # poking a cache — must not count in its cache tally.
        for replica in self.replicas:
            replica.features.reset_stats()
        with maybe_span(
            self.profiler, "serve_session", "serve", requests=len(ordered)
        ):
            for time, _priority, _seq, handler, payload in events:
                for replica in self.replicas:
                    replica.advance_until(time)
                handler(time, payload)
            for replica in self.replicas:
                replica.drain()
            # One summary span per tiered replica, so the Chrome trace
            # shows where its gathered rows actually lived.
            for replica in self.replicas:
                attrs = replica.features.session_attrs()
                if attrs is not None:
                    with maybe_span(
                        self.profiler,
                        f"tiered_cache[r{replica.replica_id}]",
                        "cache",
                        **attrs,
                    ):
                        pass
        last_event = events[-1][0] if events else 0.0
        fields: dict[str, object] = {}
        for extension in self.extensions:
            fields.update(extension.finish(last_event))
        report = summarize(
            self.logs,
            cache=CacheStats.merged(
                [r.features.stats() for r in self.replicas]
            ),
        )
        report.replicas = self.num_replicas
        report.router = self.router.name
        report.per_replica = replica_breakdown(self.logs, self.replicas)
        report.composer = self.composer.name
        report.task = self.task.name
        report.feature_tiers = self.feature_tiers
        for name in FLEET_COUNTERS:
            setattr(report, name, sum(getattr(r, name) for r in self.replicas))
        for name, value in fields.items():
            setattr(report, name, value)
        return report


def run_cluster_session(
    dataset: Dataset,
    *,
    spec: WorkloadSpec | None = None,
    seed: int = 0,
    **cluster_kwargs,
) -> tuple[ClusterSimulator, ServeReport]:
    """One-call cluster session: build, generate workload, serve, report.

    ``cluster_kwargs`` are :class:`ClusterSimulator`'s keyword
    parameters, forwarded as given.  This is the cell the CLI, the
    cluster benchmark, and the determinism guards all go through, so a
    fixed (spec, policy, topology, seed, failure schedule, autoscale
    policy) tuple names exactly one reproducible session.
    """
    cluster = ClusterSimulator(dataset, seed=seed, **cluster_kwargs)
    if spec is None:
        spec = WorkloadSpec(seed=seed)
    workload = cluster.build_workload(spec)
    return cluster, cluster.run(workload)
