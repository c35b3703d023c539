"""The cluster layer: N replicas behind a router on one simulated clock.

A :class:`ClusterSimulator` owns N :class:`~repro.serve.replica.Replica`
instances (each with its own execution-context pair, memory pool, and
feature cache) and a :class:`~repro.serve.router.Router`.  Its event loop
advances the whole cluster in **global simulated-time order**:

1. arrivals are visited in ``(arrival, rid)`` order;
2. before routing an arrival at time ``t``, *every* replica fires the
   batches due strictly before ``t`` (so queue-depth policies observe
   the same state a real balancer would — not stale snapshots);
3. the router picks a replica; the replica admits or sheds;
4. after the last arrival, all replicas drain.

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

**The control plane.**  Two optional inputs extend the event loop past
arrivals: a :class:`~repro.serve.failures.FailureSpec` (scheduled
replica kills, orphan retry/hedging, optional revival) and an
:class:`~repro.serve.control.AutoscalePolicy` (periodic scale-up /
scale-down / batch-tuning ticks).  All control events merge into the
same global time-ordered walk the arrivals already take — kills before
revivals before ticks before arrivals at equal timestamps — so an
elastic chaos session is exactly as deterministic as a static one.
Without either input the event list contains only arrivals and the loop
degenerates to the original, which is what keeps failure-free,
autoscaler-off sessions bit-identical to their pinned fingerprints.
"""

from __future__ import annotations

import contextlib
import dataclasses

from repro.cache import (
    DEFAULT_CACHE_RATIO,
    DEFAULT_HOST_TIER_RATIO,
    CacheStats,
    FeatureCache,
    graph_degrees,
)
from repro.datasets import Dataset
from repro.device import DeviceSpec, LinkSpec, default_link_for, get_link
from repro.dynamic import (
    DeltaGraph,
    DynamicPolicy,
    UpdateBatch,
    UpdateSpec,
    generate_update_stream,
)
from repro.errors import ServeError
from repro.partition import (
    GraphPartition,
    PartitionTracker,
    incremental_rebalance,
    make_partition,
)
from repro.profile.spans import Profiler
from repro.serve.compose import BatchComposer, make_composer
from repro.serve.control import AutoscalePolicy, Autoscaler
from repro.serve.failures import FailureEvent, FailureSpec
from repro.serve.metrics import (
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
from repro.serve.workload import Request, WorkloadSpec

#: Same-timestamp event ordering: failures land before revivals before
#: autoscale ticks before graph updates before arrivals, so an arrival
#: at the instant of a kill is routed by the post-kill fleet and an
#: arrival at the instant of an update samples the post-update graph
#: (once the snapshot epoch installs it).
_KILL, _REVIVE, _TICK, _UPDATE, _ARRIVAL = range(5)


class ClusterSimulator:
    """N serving replicas behind a router, on one simulated clock.

    Parameters
    ----------
    dataset, algorithm, device, policy, cache_ratio, seed, profiler:
        As for :class:`~repro.serve.replica.Replica`; every replica gets
        the same policy and its own cache/contexts.  ``seed`` derives
        each replica's independent RNG stream (replica 0 keeps the
        session stream — the single-replica compatibility guarantee).
    num_replicas:
        Serving replicas to run (>= 1).
    router:
        A policy name from :data:`~repro.serve.router.ROUTER_POLICIES`
        or a pre-built :class:`~repro.serve.router.Router`.
    partition:
        ``None`` (unpartitioned: every replica holds the whole graph), a
        partitioner name (``hash``/``greedy``; one shard per replica),
        or a pre-built :class:`~repro.partition.GraphPartition` with
        ``num_shards == num_replicas``.
    link:
        Interconnect for cross-shard frontier fetches: a name
        (``nvlink``/``pcie``), a :class:`~repro.device.LinkSpec`, or
        ``None`` for the device's default wiring (V100 -> NVLink).
        Only meaningful with a partition.
    composer:
        Batch-composition policy, plumbed to every replica: a
        :data:`~repro.serve.compose.COMPOSER_POLICIES` name, a pre-built
        :class:`~repro.serve.compose.BatchComposer`, or a sequence of
        either with one entry per replica (heterogeneous clusters, e.g.
        an A/B lane comparing fifo vs super-batch under one router).
    failures:
        Optional :class:`~repro.serve.failures.FailureSpec`: scheduled
        replica kills plus the orphan/failover policy.  Also flips the
        router's ``mask_dead`` from the spec's ``failover`` flag.
    autoscale:
        Optional :class:`~repro.serve.control.AutoscalePolicy` (or a
        pre-built :class:`~repro.serve.control.Autoscaler`).  The fleet
        is pre-built at ``max_replicas`` with replicas beyond
        ``num_replicas`` as inactive standbys, so scale-ups never
        construct state mid-run (determinism).  Incompatible with a
        graph partition: sharding ties the fleet size to the shard
        count.
    updates:
        Optional streaming-update side of the session: an
        :class:`~repro.dynamic.UpdateSpec` (generated here over this
        graph's degree hotness) or a pre-built batch sequence.  Update
        batches merge into the same global event walk as arrivals;
        each applies to a :class:`~repro.dynamic.DeltaGraph` between
        request batches, and the served graph refreshes on the
        ``dynamic`` policy's snapshot/compaction cadence.  ``None``
        (the default) builds no delta state at all, keeping static
        sessions bit-identical to their pinned fingerprints.
    dynamic:
        :class:`~repro.dynamic.DynamicPolicy` knobs for the update
        side; defaults to ``DynamicPolicy()`` when ``updates`` is set.
        A ``repartition_threshold`` requires a graph partition.
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
        partition: str | GraphPartition | None = None,
        link: str | LinkSpec | None = None,
        composer: str | BatchComposer | list | tuple = "fifo",
        cache_ratio: float = DEFAULT_CACHE_RATIO,
        seed: int = 0,
        profiler: Profiler | None = None,
        failures: FailureSpec | None = None,
        autoscale: AutoscalePolicy | Autoscaler | None = None,
        feature_tiers: bool = False,
        host_tier_ratio: float = DEFAULT_HOST_TIER_RATIO,
        p2p: bool = False,
        hbm_budget: int | None = None,
        updates: UpdateSpec | list | tuple | None = None,
        dynamic: DynamicPolicy | None = None,
        task: str = "node",
    ) -> None:
        if num_replicas < 1:
            raise ServeError(
                f"cluster needs at least one replica, got {num_replicas}"
            )
        if isinstance(autoscale, AutoscalePolicy):
            autoscale = Autoscaler(autoscale)
        self.autoscaler = autoscale
        self.failures = failures
        fleet = num_replicas
        if autoscale is not None:
            if partition is not None:
                raise ServeError(
                    "autoscaling is incompatible with a graph partition: "
                    "sharding ties the fleet size to the shard count"
                )
            bounds = autoscale.policy
            if not (
                bounds.min_replicas <= num_replicas <= bounds.max_replicas
            ):
                raise ServeError(
                    f"initial fleet of {num_replicas} lies outside the "
                    f"autoscaler's [{bounds.min_replicas}, "
                    f"{bounds.max_replicas}] bounds"
                )
            fleet = bounds.max_replicas
        if failures is not None:
            for event in failures.events:
                if event.replica >= fleet:
                    raise ServeError(
                        f"failure schedule kills replica {event.replica} "
                        f"but the fleet has {fleet} replicas"
                    )
        self.dataset = dataset
        self.algorithm = algorithm
        self.device = device
        #: Workload task every replica serves (``"node"`` or
        #: ``"linkpred"``); validated by the replicas.
        self.task = task
        self.policy = policy if policy is not None else ServePolicy()
        self.profiler = profiler
        if isinstance(partition, str):
            partition = make_partition(
                partition, dataset.graph, num_replicas, seed=seed
            )
        if partition is not None and partition.num_shards != num_replicas:
            raise ServeError(
                f"partition has {partition.num_shards} shards but the "
                f"cluster has {num_replicas} replicas (one shard per "
                "replica)"
            )
        self.partition = partition
        if isinstance(link, str):
            link = get_link(link)
        if link is None and partition is not None:
            link = default_link_for(device.name)
        self.link = link
        self.router = (
            router
            if isinstance(router, Router)
            else make_router(router, seed=seed, partition=partition)
        )
        if failures is not None:
            self.router.mask_dead = failures.failover
        if isinstance(composer, (list, tuple)):
            if len(composer) != fleet:
                raise ServeError(
                    f"got {len(composer)} composers for {fleet} "
                    "replicas (one per replica)"
                )
            composers = [make_composer(c) for c in composer]
        else:
            composers = [make_composer(composer)] * fleet
        names = {c.name for c in composers}
        #: Session-level composer label: the shared policy name, or
        #: ``"mixed"`` for a heterogeneous cluster.
        self.composer_name = names.pop() if len(names) == 1 else "mixed"
        self.feature_tiers = feature_tiers
        # --- dynamic-graph state (serve-while-ingesting) --------------
        if isinstance(updates, UpdateSpec):
            updates = generate_update_stream(
                updates,
                num_nodes=dataset.num_nodes,
                hotness=graph_degrees(dataset.graph),
            )
        self._updates: list[UpdateBatch] = (
            [] if updates is None else sorted(
                updates, key=lambda b: (b.time, b.uid)
            )
        )
        self.dynamic = (
            dynamic
            if dynamic is not None
            else (DynamicPolicy() if self._updates else None)
        )
        if (
            self.dynamic is not None
            and self.dynamic.repartition_threshold is not None
            and partition is None
        ):
            raise ServeError(
                "a repartition threshold needs a graph partition whose "
                "drift it can track"
            )
        self._delta = DeltaGraph(dataset.graph) if self._updates else None
        self._tracker = (
            PartitionTracker(partition)
            if self._delta is not None and partition is not None
            else None
        )
        #: Most recently installed graph (what the samplers currently
        #: bind); starts as the immutable base.
        self._current_graph = dataset.graph
        # One compile, shared by every replica: pipelines are stateless
        # with respect to the execution context.
        pipelines = build_pipelines(dataset, algorithm)
        #: Kept so snapshot installs can rebind every compiled layer's
        #: graph once (the pipelines are shared across the fleet).
        self._pipelines = pipelines
        self.replicas = [
            Replica(
                dataset,
                algorithm=algorithm,
                device=device,
                policy=self.policy,
                cache_ratio=cache_ratio,
                seed=seed,
                profiler=profiler,
                replica_id=i,
                pipelines=pipelines,
                composer=composers[i],
                queue_prefix=f"r{i}:" if fleet > 1 else "",
                shard=partition.view(i) if partition is not None else None,
                link=link if partition is not None else None,
                task=task,
                active=i < num_replicas,
                feature_tiers=feature_tiers,
                host_tier_ratio=host_tier_ratio,
                p2p=p2p,
                hbm_budget=hbm_budget,
                fleet_size=fleet,
            )
            for i in range(fleet)
        ]
        # Control-plane session counters (reset per run()).
        self._kills_executed = 0
        self._hedge_wins = 0
        self._reprovision_bytes = 0
        # Dynamic-session counters (reset per run()).
        self._reset_dynamic_counters()

    def _reset_dynamic_counters(self) -> None:
        self._dyn_snapshots = 0
        self._dyn_rebalances = 0
        self._dyn_migrated_rows = 0
        self._dyn_migrated_bytes = 0
        self._dyn_refresh_seconds = 0.0
        self._dyn_staleness_sum = 0.0
        self._dyn_staleness_max = 0.0
        self._dyn_staleness_edges = 0
        #: (arrival time, edge count) of applied-but-not-yet-installed
        #: update batches — the staleness ledger.
        self._dyn_pending: list[tuple[float, int]] = []
        self._dyn_last_install = 0.0

    # ------------------------------------------------------------------
    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    def build_workload(self, spec: WorkloadSpec) -> list[Request]:
        """Generate the spec's request stream over this graph's nodes."""
        return self.replicas[0].build_workload(spec)

    def _span(self, name: str, category: str, **attrs: object):
        if self.profiler is None:
            return contextlib.nullcontext()
        return self.profiler.span(name, category, **attrs)

    # ------------------------------------------------------------------
    # Control-plane execution
    # ------------------------------------------------------------------
    def _build_events(self, ordered: list[Request]) -> list[tuple]:
        """Merge arrivals, kills, revivals, autoscale ticks, and graph
        updates into one time-ordered walk (ties broken by the
        event-kind priority, then by schedule position / rid / uid —
        fully deterministic)."""
        events: list[tuple] = [
            (request.arrival, _ARRIVAL, request.rid, request)
            for request in ordered
        ]
        for batch in self._updates:
            events.append((batch.time, _UPDATE, batch.uid, batch))
        if self.failures is not None:
            for idx, event in enumerate(self.failures.events):
                events.append((event.time, _KILL, idx, event))
                if event.downtime is not None:
                    events.append(
                        (event.time + event.downtime, _REVIVE, idx, event)
                    )
        if self.autoscaler is not None and ordered:
            horizon = ordered[-1].arrival
            interval = self.autoscaler.policy.interval
            tick = 1
            while tick * interval <= horizon:
                events.append((tick * interval, _TICK, tick, None))
                tick += 1
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        return events

    def _append_log(self, rid: int, log: RequestLog) -> None:
        self._log_index[rid] = len(self._logs)
        self._logs.append(log)

    def _lost_log(
        self, request: Request, replica: int
    ) -> RequestLog:
        """An admitted-but-never-answered record (cluster-level loss)."""
        return RequestLog(
            rid=request.rid,
            arrival=request.arrival,
            admitted=True,
            replica=replica,
            seeds=int(request.seeds.size),
        )

    def _route_arrival(self, now: float, request: Request) -> None:
        """Route one arrival through the (possibly reduced) fleet."""
        if not self.router.eligible(self.replicas, now):
            # Nobody to ask: admitted by the cluster, never answered.
            self._append_log(request.rid, self._lost_log(request, -1))
            return
        target = self.router.route(request, self.replicas, now)
        if not 0 <= target < len(self.replicas):
            raise ServeError(
                f"router {self.router.name!r} returned replica "
                f"{target} of {len(self.replicas)}"
            )
        replica = self.replicas[target]
        if not replica.routable(now):
            # The no-failover baseline: a blind router keeps sending
            # arrivals to the corpse, and they die with it.
            self._append_log(request.rid, self._lost_log(request, target))
            return
        self._append_log(request.rid, replica.offer(request))

    def _reprovision(
        self, replica: Replica, now: float, not_before: float
    ) -> float:
        """Charge a replica's state re-replication stream; its seconds.

        A revived or newly activated replica does not start cold: its
        shard (partitioned cluster) or its warm feature-cache rows
        (unpartitioned) stream back from a peer over the cluster
        interconnect, on the replica's transfer queue — so its first
        post-recovery batches also queue behind the stream.
        """
        if replica.shard is not None:
            rows = replica.shard.num_nodes
        elif replica.cache is not None:
            rows = replica.cache.cached_rows
        else:
            rows = 0
        nbytes = rows * replica._row_bytes
        if nbytes == 0:
            return 0.0
        link = (
            self.link
            if self.link is not None
            else default_link_for(self.device.name)
        )
        seconds = link.bulk_transfer_time(nbytes)
        with replica.io_ctx.on_queue(
            replica._transfer_queue, not_before=not_before
        ):
            replica.io_ctx.record(
                f"reprovision[{link.name}]",
                tasks=rows,
                fixed_seconds=seconds,
            )
        self._reprovision_bytes += nbytes
        return seconds

    def _execute_kill(self, now: float, event: FailureEvent) -> None:
        replica = self.replicas[event.replica]
        if not replica.alive:
            return
        orphans = replica.kill(now)
        self._kills_executed += 1
        if self.failures.orphans == "shed":
            # Orphaned logs stay admitted-but-incomplete: lost.
            return
        for request, log, _was_in_flight in orphans:
            self._reroute(now, request, log)

    def _reroute(self, now: float, request: Request, log: RequestLog) -> None:
        """Re-route one orphaned request, hedging if the spec asks."""
        spec = self.failures
        candidates = self._hedges.get(request.rid)
        if candidates is not None:
            # One copy of a hedged request died; the survivor (if any)
            # carries on and this copy is simply cancelled.
            remaining = [c for c in candidates if c is not log]
            if remaining:
                self._hedges[request.rid] = remaining
                return
            del self._hedges[request.rid]
        if log.retries >= spec.max_retries:
            return  # retry budget exhausted: lost
        eligible = self.router.eligible(self.replicas, now)
        if not eligible:
            return  # nowhere to go: lost
        # The retry re-enters the batcher *now*; its log keeps the
        # original arrival so the measured latency includes the failure.
        retry = dataclasses.replace(request, arrival=now)
        target = self.router.route(retry, self.replicas, now)
        primary = self.replicas[target]
        if not primary.routable(now):
            return  # blind router picked a corpse: lost
        new_log = primary.offer(retry)
        if not new_log.admitted:
            return  # target queue full — admitted once, never answered
        new_log.arrival = log.arrival
        new_log.retries = log.retries + 1
        self._logs[self._log_index[request.rid]] = new_log
        if spec.hedge:
            others = [
                i
                for i in eligible
                if i != target and self.replicas[i].routable(now)
            ]
            if others:
                hedge_log = self.replicas[others[0]].offer(retry)
                if hedge_log.admitted:
                    hedge_log.arrival = log.arrival
                    hedge_log.retries = new_log.retries
                    new_log.hedged = True
                    hedge_log.hedged = True
                    self._hedges[request.rid] = [new_log, hedge_log]

    def _execute_revive(self, now: float, event: FailureEvent) -> None:
        replica = self.replicas[event.replica]
        if replica.alive:
            return
        spinup = self.failures.spinup
        transfer = self._reprovision(replica, now, now + spinup)
        replica.revive(now, available_from=now + spinup + transfer)

    def _autoscale_tick(self, now: float) -> None:
        scaler = self.autoscaler
        policy = scaler.policy
        decision = scaler.decide(now, self.replicas)
        if decision == "up":
            standby = next(
                (r for r in self.replicas if not r.active and r.alive), None
            )
            if standby is not None:
                transfer = self._reprovision(
                    standby, now, now + policy.spinup
                )
                standby.activate(
                    now, available_from=now + policy.spinup + transfer
                )
                scaler.record(
                    now,
                    "up",
                    standby.replica_id,
                    sum(1 for r in self.replicas if r.active),
                )
        elif decision == "down":
            actives = [r for r in self.replicas if r.active and r.alive]
            if len(actives) > policy.min_replicas:
                victim = actives[-1]
                victim.deactivate(now)
                scaler.record(
                    now,
                    "down",
                    victim.replica_id,
                    sum(1 for r in self.replicas if r.active),
                )
        scaler.tune(now, self.replicas)

    # ------------------------------------------------------------------
    # Dynamic-graph execution (serve-while-ingesting)
    # ------------------------------------------------------------------
    def _execute_update(self, now: float, batch: UpdateBatch) -> None:
        """Apply one update batch; install/compact/rebalance per policy.

        Updates apply *between* request batches: the event loop fires
        every batch due strictly before ``now`` first, so a snapshot
        installed here is what the next fired batch samples.
        """
        self._delta.apply(batch)
        self._dyn_pending.append((now, batch.num_edges))
        if self._tracker is not None:
            self._tracker.apply_updates(batch.src, batch.dst, batch.delete)
        policy = self.dynamic
        compact = (
            policy.compact_every > 0
            and self._delta.batches_applied % policy.compact_every == 0
        )
        if compact:
            self._install_graph(now, compact=True)
        elif now - self._dyn_last_install >= policy.snapshot_every:
            self._install_graph(now, compact=False)
        if (
            self._tracker is not None
            and policy.repartition_threshold is not None
            and self._tracker.needs_rebalance(policy.repartition_threshold)
        ):
            self._rebalance(now)

    def _install_graph(self, now: float, *, compact: bool) -> None:
        """Materialize the delta and swap it under the compiled layers.

        The rebuild is charged to *every* replica's sample queue (each
        device merges its own copy, so in-flight sampling queues behind
        the refresh — the latency half of the staleness-vs-latency
        trade).  The compiled pipelines are shared across the fleet, so
        the graph rebinds once.
        """
        delta = self._delta
        workload = (
            delta.compact_workload() if compact else delta.merge_workload()
        )
        dirty = delta.drain_dirty()
        name = "graph_compact" if compact else "graph_snapshot"
        for replica in self.replicas:
            with replica.sample_ctx.on_queue(
                replica._sample_queue, not_before=now
            ):
                replica.sample_ctx.record(name, **workload)
            self._dyn_refresh_seconds += self.device.kernel_time(
                bytes_moved=workload["bytes_read"] + workload["bytes_written"],
                flops=workload["flops"],
                tasks=workload["tasks"],
            )
        matrix = delta.compact() if compact else delta.snapshot()
        self._current_graph = matrix
        for pipeline in self._pipelines:
            for sampler in pipeline.samplers:
                sampler.graph = matrix
        if not compact:
            self._dyn_snapshots += 1
        self._dyn_last_install = now
        # Staleness: each pending batch was invisible from its arrival
        # until this install.
        for arrived, edges in self._dyn_pending:
            lag = now - arrived
            self._dyn_staleness_sum += lag * edges
            self._dyn_staleness_max = max(self._dyn_staleness_max, lag)
            self._dyn_staleness_edges += edges
        self._dyn_pending = []
        if self.dynamic.invalidate_cache and dirty.size:
            for replica in self.replicas:
                if replica.cache is None:
                    continue
                replica.cache.invalidate(dirty)
                if compact and isinstance(replica.cache, FeatureCache):
                    # A compaction is the natural re-admission point:
                    # refill the tombstoned slots against live degrees.
                    replica.cache.rerank(delta.degrees())

    def _rebalance(self, now: float) -> None:
        """Bounded shard migration when degree balance drifts too far.

        Moves at most ``max_migrate_rows`` nodes from the most to the
        least loaded shard (affinity-scored, see
        :func:`~repro.partition.incremental_rebalance`), charges each
        receiving replica's feature-row stream over the interconnect on
        its transfer queue — the same wire re-replication uses — and
        rebases the drift tracker so the next trigger measures fresh
        drift.
        """
        policy = self.dynamic
        tracker = self._tracker
        plan = incremental_rebalance(
            self._current_graph,
            self.partition.assignment,
            self.num_replicas,
            target_balance=max(tracker.baseline_balance, 1.0),
            max_moves=policy.max_migrate_rows,
        )
        if plan.num_moved == 0:
            # Nothing movable under the overshoot guard: rebase so the
            # trigger does not refire on every subsequent batch.
            tracker.rebase(self.partition)
            return
        self.partition = dataclasses.replace(
            self.partition,
            assignment=plan.assignment,
            edge_cut=plan.edge_cut,
            shard_degrees=plan.shard_degrees,
        )
        link = (
            self.link
            if self.link is not None
            else default_link_for(self.device.name)
        )
        for i, replica in enumerate(self.replicas):
            replica.shard = self.partition.view(i)
            incoming = plan.rows_into(i)
            if incoming.size == 0:
                continue
            nbytes = int(incoming.size) * replica._row_bytes
            seconds = link.bulk_transfer_time(nbytes)
            with replica.io_ctx.on_queue(
                replica._transfer_queue, not_before=now
            ):
                replica.io_ctx.record(
                    f"shard_migration[{link.name}]",
                    tasks=int(incoming.size),
                    fixed_seconds=seconds,
                )
            self._dyn_migrated_bytes += nbytes
        if hasattr(self.router, "partition"):
            self.router.partition = self.partition
        if policy.invalidate_cache:
            # Moved rows change owners, so every replica's residency
            # verdict for them is stale.
            for replica in self.replicas:
                if replica.cache is not None:
                    replica.cache.invalidate(plan.moved_nodes)
        self._dyn_rebalances += 1
        self._dyn_migrated_rows += plan.num_moved
        tracker.rebase(self.partition)

    def _resolve_hedges(self) -> None:
        """First completion wins; the duplicate is cancelled in
        accounting (its device time stays burned, its log is dropped)."""
        for rid, candidates in self._hedges.items():
            done = [c for c in candidates if c.completed]
            if not done:
                continue  # both copies died: the log in place stays lost
            winner = min(done, key=lambda c: c.completion)
            if winner is not candidates[0]:
                self._hedge_wins += 1
            self._logs[self._log_index[rid]] = winner

    # ------------------------------------------------------------------
    def run(self, requests: list[Request]) -> ServeReport:
        """Serve the whole stream across the cluster; aggregate report.

        The log list is kept in global arrival order (the order arrivals
        were routed), so the cluster fingerprint is the same shape as a
        single replica's and the 1-replica case is bit-identical to the
        pre-refactor monolith.  Without a failure spec or autoscaler the
        event list holds only arrivals and this loop replays the
        pre-control-plane walk exactly.
        """
        ordered = sorted(requests, key=lambda r: (r.arrival, r.rid))
        control = self.failures is not None or self.autoscaler is not None
        self._logs: list[RequestLog] = []
        self._log_index: dict[int, int] = {}
        self._hedges: dict[int, list[RequestLog]] = {}
        self._kills_executed = 0
        self._hedge_wins = 0
        self._reprovision_bytes = 0
        self._reset_dynamic_counters()
        events = self._build_events(ordered)
        # Session-scoped cache accounting: a simulator reused across
        # sessions must not bleed one session's hit/miss tally into the
        # next report.
        for replica in self.replicas:
            replica.begin_session()
        with self._span("serve_session", "serve", requests=len(ordered)):
            for time, kind, _seq, payload in events:
                for replica in self.replicas:
                    replica.advance_until(time)
                if kind == _ARRIVAL:
                    self._route_arrival(time, payload)
                elif kind == _UPDATE:
                    self._execute_update(time, payload)
                elif kind == _KILL:
                    self._execute_kill(time, payload)
                elif kind == _REVIVE:
                    self._execute_revive(time, payload)
                else:
                    self._autoscale_tick(time)
            for replica in self.replicas:
                replica.drain()
            if self.feature_tiers:
                # One summary span per replica so the Chrome trace shows
                # where each replica's gathered rows actually lived.
                for replica in self.replicas:
                    if replica.cache is None:
                        continue
                    stats = replica.cache.epoch_stats()
                    with self._span(
                        f"tiered_cache[r{replica.replica_id}]",
                        "cache",
                        device_hits=stats.hits,
                        p2p_hits=stats.p2p_hits,
                        host_hits=stats.host_hits,
                        remote_hits=stats.remote_hits,
                        device_rows=stats.cached_rows,
                        host_rows=stats.host_rows,
                    ):
                        pass
        self._resolve_hedges()
        logs = self._logs
        if control:
            end = max(
                (r.last_completion for r in self.replicas), default=0.0
            )
            for replica in self.replicas:
                replica.close_meter(end)
        report = summarize(
            logs,
            cache=CacheStats.merged(
                [
                    r.cache.epoch_stats() if r.cache is not None else None
                    for r in self.replicas
                ]
            ),
        )
        report.replicas = self.num_replicas
        report.router = self.router.name
        report.per_replica = replica_breakdown(logs, self.replicas)
        report.cross_shard_rows = sum(
            r.cross_shard_rows for r in self.replicas
        )
        report.cross_shard_bytes = sum(
            r.cross_shard_bytes for r in self.replicas
        )
        report.link_seconds = sum(r.link_seconds for r in self.replicas)
        report.composer = self.composer_name
        if self.task != "node":
            report.task = self.task
            report.pairs_served = sum(r.pairs_served for r in self.replicas)
            report.compaction_saved_rows = sum(
                r.compaction_saved_rows for r in self.replicas
            )
        report.padding_seeds = sum(r.padding_seeds for r in self.replicas)
        report.dedup_rows = sum(r.dedup_rows for r in self.replicas)
        report.superbatch_requests = sum(
            r.superbatch_requests for r in self.replicas
        )
        report.superbatch_batches = sum(
            r.superbatch_batches for r in self.replicas
        )
        if self.feature_tiers:
            report.feature_tiers = True
            report.p2p_rows = sum(r.p2p_rows for r in self.replicas)
            report.p2p_bytes = sum(r.p2p_bytes for r in self.replicas)
            report.p2p_seconds = sum(r.p2p_seconds for r in self.replicas)
        if control:
            report.elastic = True
            report.failures = self._kills_executed
            report.hedge_wins = self._hedge_wins
            report.gpu_seconds = sum(r.up_seconds for r in self.replicas)
            report.reprovision_bytes = self._reprovision_bytes
            if self.autoscaler is not None:
                actions = [e.action for e in self.autoscaler.events]
                report.scale_ups = actions.count("up")
                report.scale_downs = actions.count("down")
                report.tune_moves = actions.count("tune")
        if self._delta is not None:
            # Updates still pending at session end stayed invisible for
            # the rest of the session; they count as stale to the end.
            end = max(
                max((r.last_completion for r in self.replicas), default=0.0),
                events[-1][0] if events else 0.0,
            )
            for arrived, edges in self._dyn_pending:
                lag = end - arrived
                self._dyn_staleness_sum += lag * edges
                self._dyn_staleness_max = max(self._dyn_staleness_max, lag)
                self._dyn_staleness_edges += edges
            self._dyn_pending = []
            delta = self._delta
            report.dynamic = True
            report.ingested_edges = delta.inserted_edges
            report.deleted_edges = delta.deleted_edges
            report.update_batches = delta.batches_applied
            report.snapshots = self._dyn_snapshots
            report.compactions = delta.compactions
            report.mean_staleness_ms = (
                self._dyn_staleness_sum / self._dyn_staleness_edges * 1e3
                if self._dyn_staleness_edges
                else 0.0
            )
            report.max_staleness_ms = self._dyn_staleness_max * 1e3
            report.refresh_ms = self._dyn_refresh_seconds * 1e3
            report.rebalances = self._dyn_rebalances
            report.migrated_rows = self._dyn_migrated_rows
            report.migrated_bytes = self._dyn_migrated_bytes
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
        spec = WorkloadSpec(seed=seed, task=cluster.task)
    elif spec.task != cluster.task:
        raise ServeError(
            f"workload spec task {spec.task!r} does not match the "
            f"session task {cluster.task!r}"
        )
    workload = cluster.build_workload(spec)
    return cluster, cluster.run(workload)
