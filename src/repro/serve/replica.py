"""One serving replica: batcher, admission, ladder, device contexts.

This is the single-replica serving loop, factored out so a cluster can
run N of them side by side.  A :class:`Replica` owns everything one
serving process would:

* its own pair of :class:`~repro.device.ExecutionContext`\\ s (sampling
  on the ``sample`` queue, host-resident feature I/O on the wires its
  feature source names),
* the parts it is handed: the compiled pipeline pair, the
  :class:`~repro.tasks.Task` that says what a payload means, and the
  :class:`~repro.cache.FeatureSource` (pool + store, or none) fronting
  its feature table,
* the dynamic batcher (max_batch/max_wait), bounded-queue admission,
  and the SLO-aware degradation ladder,
* optionally a :class:`~repro.partition.ShardView` plus a
  :class:`~repro.device.LinkSpec`: the shard of the graph this replica
  owns, and the interconnect over which frontier nodes sampled outside
  that shard are fetched from their owners.

The replica exposes an *incremental* event API — :meth:`offer` (admit
or shed one arrival), :meth:`advance_until` (fire every batch due
strictly before a timestamp), and :meth:`drain` (fire everything left) —
so a cluster simulator can interleave N replicas in global
simulated-time order.  Driving a single replica with that API replays
the exact decision sequence of the original monolithic loop, which is
what keeps the 1-replica cluster bit-identical to the pre-refactor
simulator (the fingerprint-compat test).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.algorithms import TABLE8_PARAMS, make_algorithm
from repro.cache import FeatureSource, plan_gather
from repro.core import GraphSample
from repro.datasets import Dataset
from repro.device import DeviceSpec, ExecutionContext, LinkSpec
from repro.errors import ServeError, check_count, check_real
from repro.partition import ShardView
from repro.profile.spans import Profiler, maybe_span
from repro.serve.compose import BatchComposer, BatchPlan
from repro.serve.metrics import FLEET_COUNTERS, RequestLog
from repro.serve.workload import Request
from repro.sparse.formats import as_index_array
from repro.stats import SlidingWindow
from repro.tasks import Task

#: Degradation-ladder depth: 0 = full fidelity, 1 = reduced fanout,
#: 2 = reduced fanout + cached-only features.
MAX_DEGRADE_LEVEL = 2

#: Sliding-window length (completed requests) of the p99 monitor.
LATENCY_WINDOW = 64

#: The ladder steps back up once windowed p99 < RECOVER_MARGIN * slo.
RECOVER_MARGIN = 0.7

#: Admission/degradation presets selectable from the CLI ``--policy``
#: flag; each maps to (bounded queue?, SLO ladder?).
POLICY_PRESETS: dict[str, tuple[bool, bool]] = {
    "none": (False, False),
    "shed": (True, False),
    "degrade": (False, True),
    "full": (True, True),
}


def degraded_kwargs(kwargs: dict) -> dict:
    """The reduced-fidelity variant of an algorithm config.

    Fanouts are halved (floored at 1), layer widths halved — the ladder
    step the issue's K=10 -> 5 example describes.
    """
    out = dict(kwargs)
    if "fanouts" in out:
        out["fanouts"] = tuple(max(1, k // 2) for k in out["fanouts"])
    if "layer_width" in out:
        out["layer_width"] = max(1, out["layer_width"] // 2)
    return out


def build_pipelines(dataset: Dataset, algorithm: str) -> list:
    """Compile the full-fidelity and degraded pipelines for ``algorithm``.

    Both are compiled up front so ladder moves cost nothing at serve
    time.  Pipelines are stateless with respect to the execution context
    (``sample_batch`` takes ``ctx=``), so a cluster compiles once and
    shares the pair across all replicas.
    """
    if algorithm not in TABLE8_PARAMS:
        raise ServeError(
            f"no serving config for {algorithm!r}; "
            f"available: {sorted(TABLE8_PARAMS)}"
        )
    example = dataset.train_ids[: min(256, len(dataset.train_ids))]
    kwargs = TABLE8_PARAMS[algorithm]
    return [
        make_algorithm(algorithm, **kwargs).build(dataset.graph, example),
        make_algorithm(algorithm, **degraded_kwargs(kwargs)).build(
            dataset.graph, example
        ),
    ]


def replica_rng(seed: int, replica_id: int) -> np.random.Generator:
    """Replica ``i``'s sampling RNG, derived from the session seed.

    Replica 0 uses the session seed's stream directly — bit-identical to
    the pre-refactor single-replica simulator.  Higher replicas spawn
    independent streams off the same entropy via the seed-sequence spawn
    key, so no two replicas share draws and no ``numpy.random`` global
    state is ever touched.
    """
    if replica_id == 0:
        return np.random.default_rng(seed)
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(replica_id,))
    )


@dataclasses.dataclass(frozen=True)
class ServePolicy:
    """Batching + admission + degradation knobs for one serving session."""

    max_batch: int = 8
    #: Longest a batch head may wait before firing, in simulated seconds.
    max_wait: float = 2e-3
    #: Bound on the waiting queue; ``None`` disables shedding.
    queue_capacity: int | None = 64
    #: p99 latency target in simulated seconds; ``None`` disables the
    #: degradation ladder.
    slo: float | None = None
    #: Samples required in the window before the ladder may move.
    min_samples: int = 32

    def __post_init__(self) -> None:
        check_count("max batch", self.max_batch, error=ServeError)
        check_real("max wait", self.max_wait, "[0, inf)", error=ServeError)
        if self.queue_capacity is not None:
            check_count("queue capacity", self.queue_capacity, error=ServeError)
        if self.slo is not None:
            check_real("SLO", self.slo, "(0, inf)", error=ServeError)
        check_count("min_samples", self.min_samples, error=ServeError)

    @classmethod
    def preset(
        cls,
        name: str,
        *,
        max_batch: int = 8,
        max_wait: float = 2e-3,
        queue_capacity: int = 64,
        slo: float | None = None,
    ) -> "ServePolicy":
        """Build a policy from a ``--policy`` preset name."""
        try:
            shed, degrade = POLICY_PRESETS[name]
        except KeyError:
            raise ServeError(
                f"unknown policy {name!r}; available: "
                f"{sorted(POLICY_PRESETS)}"
            ) from None
        if degrade and slo is None:
            raise ServeError(
                f"policy {name!r} needs an SLO target (--slo-ms)"
            )
        return cls(
            max_batch=max_batch,
            max_wait=max_wait,
            queue_capacity=queue_capacity if shed else None,
            slo=slo if degrade else None,
        )


def fetch_union(samples: list[GraphSample]) -> tuple[np.ndarray, int]:
    """The sorted union of the samples' ``all_nodes``, and the rows it
    saves over fetching each sample's own ``all_nodes``.

    One sort of ``node * R + request`` keys (``R`` samples) serves both:
    the distinct keys are every sample's distinct nodes, and they come
    out grouped by node, so the union is the node of each group.  (A
    flag scan over the ``R·N`` key space costs more than the sort.)
    """
    parts = [
        [sample.seeds, *(layer.output_nodes for layer in sample.layers)]
        for sample in samples
    ]
    nodes = as_index_array(np.concatenate([p for ps in parts for p in ps]))
    owner = np.repeat(np.arange(len(samples)), [sum(map(len, ps)) for ps in parts])
    keys = np.sort(nodes * len(samples) + owner)
    node_of = keys // len(samples)
    new_key = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new_key[1:])
    new_node = np.ones(len(keys), dtype=bool)
    np.not_equal(node_of[1:], node_of[:-1], out=new_node[1:])
    union = node_of[new_node]
    return union, int(np.count_nonzero(new_key)) - len(union)


class Replica:
    """One serving replica: its device contexts plus the parts it is handed.

    Every part arrives built — :class:`~repro.serve.cluster.ClusterSimulator`
    is the one place a serving name becomes an object.

    Parameters
    ----------
    dataset:
        The graph being served; seeds index its nodes.
    device:
        Device spec for sampling *and* feature transfer.  The feature
        table itself is host-resident (the serving deployment), so cache
        misses cross PCIe.
    policy:
        Batching/admission/degradation knobs.
    seed:
        Session seed; replica ``replica_id`` derives its own RNG stream
        from it (:func:`replica_rng`).
    profiler:
        Records this replica's spans and launches, or ``None``.
    replica_id:
        Position of this replica in its cluster.
    pipelines:
        The compiled ``[full, degraded]`` pipeline pair (shared across a
        cluster).
    composer:
        The fleet's :class:`~repro.serve.compose.BatchComposer`.
    queue_prefix:
        Prefix for the device queue names (``"r1:"`` in a cluster), so
        each replica's timelines render as its own thread-row group in
        the Chrome trace.  Empty for a 1-replica cluster, keeping the
        original ``sample``/``transfer`` names.
    shard:
        The :class:`~repro.partition.ShardView` this replica owns, or
        ``None`` when the cluster is not graph-partitioned.
    link:
        Interconnect to the rest of the fleet: frontier nodes sampled
        outside ``shard`` are fetched from their owner over it, and the
        feature source's p2p rows ride it too.
    task:
        The :class:`~repro.tasks.Task` that decodes request payloads
        into sampler seeds.
    active:
        False for an autoscaler standby, which receives no traffic.
    features:
        The :class:`~repro.cache.FeatureSource` fronting the feature
        table: its pool backs the I/O context, its wires are the I/O
        queues, its store (if any) is :attr:`cache`.
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        device: DeviceSpec,
        policy: ServePolicy,
        seed: int,
        profiler: Profiler | None,
        replica_id: int,
        pipelines: list,
        composer: BatchComposer,
        queue_prefix: str,
        shard: ShardView | None,
        link: LinkSpec,
        task: Task,
        active: bool,
        features: FeatureSource,
    ) -> None:
        self.device = device
        self.task = task
        self.policy = policy
        self.profiler = profiler
        self.replica_id = replica_id
        self.shard = shard
        self.link = link
        self._rng = replica_rng(seed, replica_id)
        self._pipelines = pipelines
        self.composer = composer
        self.features = features
        #: The store fronting the feature table (``None`` without one).
        self.cache = self.features.store
        self._prefix = queue_prefix
        self._sample_queue = f"{queue_prefix}sample"
        self._transfer_queue = f"{queue_prefix}transfer"
        self._p2p_queue = f"{queue_prefix}p2p"
        self.sample_ctx = ExecutionContext(
            device,
            graph_on_device=dataset.graph_on_device,
            queues=(self._sample_queue,),
        )
        # Feature fetches run on their own context with a host-resident
        # "graph" (= the feature table), so misses are priced over PCIe;
        # the source says which queues its fetches need, and each wire
        # having its own is why a batch's tier fetches overlap.
        self.io_ctx = ExecutionContext(
            device,
            graph_on_device=False,
            queues=self.features.wires(queue_prefix),
            memory=self.features.pool,
        )
        if profiler is not None:
            # The first replica's sampling ledger doubles as the
            # profiler's simulated clock (the pre-refactor behavior);
            # later replicas just mirror their launches into spans.
            if profiler.context is None:
                profiler.attach(self.sample_ctx)
            else:
                self.sample_ctx.profiler = profiler
            self.io_ctx.profiler = profiler
        # Degradation-ladder state.
        self._level = 0
        #: Sliding window of completed-request latencies: the ladder's
        #: p99 monitor, and the signal the autoscaler reads.
        self.latency_window = SlidingWindow(LATENCY_WINDOW)
        # Batcher state (the incremental event API's working set).
        self._pending: list[Request] = []
        self._by_rid: dict[int, RequestLog] = {}
        self._batch_id = 0
        # Fired-but-unfinished requests as (completion, request) pairs:
        # the load-balancing signal (:meth:`outstanding`) counts them,
        # and a kill replays the ones whose completion lies after the
        # failure.  Pruned on every batch completion, so the list stays
        # bounded by concurrent in-service work — not session length.
        self._in_flight: list[tuple[float, Request]] = []
        # Lifecycle state (the cluster control plane's working set).
        #: False once a failure event killed this replica.
        self.alive = True
        #: False for autoscaler standbys and scaled-down replicas;
        #: inactive replicas receive no traffic.
        self.active = active
        #: Simulated time this replica becomes routable (revived or
        #: newly activated replicas sit out spin-up + re-replication).
        self.available_from = 0.0
        #: Accumulated in-service seconds (the GPU-hours meter).
        self.up_seconds = 0.0
        self._up_since: float | None = 0.0 if active else None
        self._deactivated_at: float | None = None
        #: Latest completion this replica produced (meter close-out).
        self.last_completion = 0.0
        #: Kills this replica absorbed.
        self.failures = 0
        #: Bytes re-replicated into this replica (revivals, scale-ups).
        self.reprovision_bytes = 0
        # This replica's share of every fleet total the report carries
        # (``ServeReport``'s ``_fleet_sum()`` fields, documented there).
        for name, zero in FLEET_COUNTERS.items():
            setattr(self, name, zero)

    # ------------------------------------------------------------------
    def outstanding(self, now: float) -> int:
        """Requests queued *or in service* at ``now`` — the load signal.

        Batches fire ahead of the arrival being routed, so the batcher
        queue alone is a stale signal (usually zero everywhere); what a
        real balancer tracks is outstanding requests — dispatched but
        not yet answered.  Counts the waiting queue plus every fired
        request whose batch completes after ``now``.
        """
        if self._in_flight:
            self._in_flight = [
                (t, r) for (t, r) in self._in_flight if t > now
            ]
        return len(self._pending) + len(self._in_flight)

    # ------------------------------------------------------------------
    # Lifecycle (the cluster control plane's surface)
    # ------------------------------------------------------------------
    def routable(self, now: float) -> bool:
        """May the router send traffic here at ``now``?"""
        return self.active and self.alive and now >= self.available_from

    def kill(self, now: float) -> list[tuple[Request, RequestLog]]:
        """Die at ``now``; return the orphaned ``(request, log)`` pairs.

        The waiting queue in arrival order first, then the in-flight
        requests whose batches would have completed after ``now`` (their
        device time stays charged — the work was burned, the answer
        died with the node).  The caller decides replay-vs-shed per the
        failure spec.
        """
        orphans = [(r, self._by_rid.pop(r.rid)) for r in self._pending]
        self._pending.clear()
        for completion, request in self._in_flight:
            if completion > now:
                log = self._by_rid.pop(request.rid, None)
                if log is not None:
                    # The batch already "ran" in simulation (logs fill at
                    # fire time), but its answer dies here: scrub the
                    # completion so the request counts as lost, not done.
                    log.start = math.nan
                    log.completion = math.nan
                    log.batch_id = -1
                    log.batch_size = 0
                    orphans.append((request, log))
        self._in_flight = []
        self.alive = False
        self.failures += 1
        self._close_meter(now)
        return orphans

    def revive(self, now: float, *, available_from: float) -> None:
        """Come back from the dead; routable from ``available_from``."""
        self.alive = True
        self.available_from = available_from
        self._up_since = now

    def activate(self, now: float, *, available_from: float) -> None:
        """Autoscaler scale-up: standby (or drained replica) rejoins."""
        self.active = True
        self.available_from = available_from
        self._deactivated_at = None
        if self._up_since is None:
            self._up_since = now

    def deactivate(self, now: float) -> None:
        """Autoscaler scale-down: stop receiving traffic and drain.

        The GPU-time meter closes immediately when the replica is idle;
        otherwise it stays open until the drain finishes and the
        end-of-session :meth:`close_meter` charges through the last
        completion instead of the whole makespan.
        """
        self.active = False
        if not self._pending and not self._in_flight:
            self._close_meter(now)
        else:
            self._deactivated_at = now

    def _close_meter(self, now: float) -> None:
        if self._up_since is not None:
            self.up_seconds += max(0.0, now - self._up_since)
            self._up_since = None
        self._deactivated_at = None

    def close_meter(self, end: float) -> None:
        """End-of-session GPU-time close-out.

        Replicas still in the fleet at session end are charged through
        ``end`` (the session makespan); a scaled-down replica that was
        still draining is charged only through its last completion.
        """
        if self._up_since is None:
            return
        if self._deactivated_at is not None:
            self._close_meter(max(self._deactivated_at, self.last_completion))
        else:
            self._close_meter(max(end, self.last_completion))

    # ------------------------------------------------------------------
    # Device charges other layers place on this replica's queues
    # ------------------------------------------------------------------
    def charge_hop(
        self,
        kind: str,
        link: LinkSpec,
        rows: int,
        not_before: float,
        *,
        bulk: bool = False,
        queue: str | None = None,
    ) -> tuple[int, float]:
        """Move ``rows`` feature rows over ``link``; ``(bytes, seconds)``.

        Every interconnect hop — cross-shard frontier rows, the p2p
        band, re-replication, shard migration — is this one fixed-cost
        ``kind[link]`` launch on one of the I/O context's queues
        (``transfer`` unless given).  ``bulk`` streams pay the link's
        per-chunk latency (:meth:`~repro.device.LinkSpec.bulk_transfer_time`).
        """
        nbytes = rows * self.features.row_bytes
        transfer_time = link.bulk_transfer_time if bulk else link.transfer_time
        seconds = transfer_time(nbytes)
        with self.io_ctx.on_queue(
            queue or self._transfer_queue, not_before=not_before
        ):
            self.io_ctx.record(
                f"{kind}[{link.name}]", tasks=rows, fixed_seconds=seconds
            )
        return nbytes, seconds

    def reprovision(self, link: LinkSpec, now: float, spinup: float) -> float:
        """Charge this replica's state re-replication; when it is routable.

        A revived or newly activated replica does not start cold: after
        ``spinup`` its shard (partitioned cluster) or its warm
        feature-cache rows (unpartitioned) stream back from a peer over
        ``link``, on the transfer queue — so its first post-recovery
        batches also queue behind the stream.
        """
        rows = (
            self.shard.num_nodes
            if self.shard is not None
            else self.features.cached_rows
        )
        if rows * self.features.row_bytes == 0:
            return now + spinup
        nbytes, seconds = self.charge_hop(
            "reprovision", link, rows, now + spinup, bulk=True
        )
        self.reprovision_bytes += nbytes
        return now + spinup + seconds

    def charge_refresh(
        self, name: str, workload: dict, not_before: float
    ) -> float:
        """Charge a graph rebuild (``workload`` = its launch numbers) on
        the sample queue, so in-flight sampling queues behind it; the
        device seconds it took."""
        with self.sample_ctx.on_queue(
            self._sample_queue, not_before=not_before
        ):
            return self.sample_ctx.record(name, **workload).seconds

    def offer(self, request: Request) -> RequestLog:
        """Admit ``request`` into the waiting queue, or shed it.

        Returns the request's log either way, so the caller (the cluster
        or the single-replica loop) can keep one global-arrival-order
        log list across replicas.
        """
        capacity = self.policy.queue_capacity
        admitted = capacity is None or len(self._pending) < capacity
        log = RequestLog(
            rid=request.rid,
            arrival=request.arrival,
            admitted=admitted,
            # A refusal records the ladder level in force at the time.
            level=0 if admitted else self._level,
            replica=self.replica_id,
            seeds=int(request.seeds.size),
        )
        if admitted:
            self._pending.append(request)
            self._by_rid[request.rid] = log
        return log

    def _plan(self):
        """The composer's next batch plan over the current queue state."""
        return self.composer.plan(
            self._pending,
            self.policy,
            self.sample_ctx.queue(self._sample_queue).ready,
        )

    def _fire(self, plan: BatchPlan) -> None:
        """Pop the planned members off the queue and serve them."""
        batch = [self._pending[i] for i in plan.indices]
        for i in sorted(plan.indices, reverse=True):
            del self._pending[i]
        self._serve(batch, plan)
        self._batch_id += 1

    def advance_until(self, now: float) -> None:
        """Fire every batch due strictly before ``now``.

        Strict inequality matters: an arrival landing exactly at a fire
        time joins the queue first (and the batch, if it has room) —
        the original monolithic loop's tie-break, preserved so the
        1-replica cluster is decision-for-decision identical.  The fire
        time is the composer's, causality-clamped to the composed
        batch's own members (see :func:`~repro.serve.compose.clamp_fire`).
        """
        while (plan := self._plan()) is not None and plan.fire < now:
            self._fire(plan)

    def drain(self) -> None:
        """Fire every remaining batch (end of the arrival stream)."""
        while (plan := self._plan()) is not None:
            self._fire(plan)

    # ------------------------------------------------------------------
    def _observe(self, latency: float) -> None:
        """Feed one completion into the SLO monitor and move the ladder.

        The window is fed even without an SLO: the autoscaler reads the
        same signal.  On every ladder transition the window is cleared —
        samples measured at the old fidelity level would otherwise keep
        driving the p99 judgement and double-step or flap the ladder, so
        each level's verdict waits for ``min_samples`` completions served
        *at* that level.
        """
        window = self.latency_window
        window.push(latency)
        slo = self.policy.slo
        if slo is None:
            return
        if len(window) < self.policy.min_samples:
            return
        p99 = window.percentile(99.0)
        if p99 > slo and self._level < MAX_DEGRADE_LEVEL:
            self._level += 1
            window.clear()
        elif p99 < RECOVER_MARGIN * slo and self._level > 0:
            self._level -= 1
            window.clear()

    def _seeds_of(self, payload: np.ndarray) -> np.ndarray:
        """The task's sampler seeds for ``payload``; tallies the pairs it
        scores and the endpoint slots its compaction collapsed away."""
        seeds, pairs = self.task.request_seeds(payload)
        self.pairs_served += pairs
        self.compaction_saved_rows += int(payload.size) - int(seeds.size)
        return seeds

    def _serve(self, batch: list[Request], plan: BatchPlan) -> None:
        """Sample for one composed batch, fetch features, complete it.

        The composer's plan picks how the members' seeds reach the
        sampler.  A joint batch concatenates them into one anonymous
        :meth:`sample_batch` invocation.  A super-batch keeps each
        request its own sampling instance inside a single
        :meth:`~repro.sampler.CompiledSampler.run_superbatch` launch
        sequence, and the per-request samples come back split out; the
        feature fetch still happens once, over the *deduplicated* union
        of every request's nodes — the rows saved versus per-request
        fetches are the amortization ``dedup_rows`` reports.
        """
        fire, batch_id = plan.fire, self._batch_id
        level = self._level
        pipeline = self._pipelines[1 if level >= 1 else 0]
        seed_sets = [r.seeds for r in batch]
        if not plan.superbatch:
            sizes = [int(s.size) for s in seed_sets]
            self.padding_seeds += max(sizes) * len(sizes) - sum(sizes)
            seed_sets = [np.concatenate(seed_sets)]
        seed_sets = [self._seeds_of(payload) for payload in seed_sets]
        attrs: dict[str, object] = dict(
            requests=len(batch),
            seeds=sum(int(s.size) for s in seed_sets),
            level=level,
        )
        if self._prefix:
            # In a fleet, batch spans carry the replica id (standalone
            # spans stay byte-identical to the pre-refactor trace).
            attrs["replica"] = self.replica_id
        name = "serve_superbatch" if plan.superbatch else "serve_batch"
        with maybe_span(self.profiler, f"{name}[{batch_id}]", "serve", **attrs):
            with self.sample_ctx.on_queue(self._sample_queue, not_before=fire):
                if plan.superbatch:
                    samples = pipeline.sample_superbatch(
                        seed_sets, ctx=self.sample_ctx, rng=self._rng
                    )
                    nodes, saved = fetch_union(samples)
                    self.dedup_rows += saved
                    self.superbatch_requests += len(batch)
                    self.superbatch_batches += 1
                else:
                    nodes = pipeline.sample_batch(
                        seed_sets[0], ctx=self.sample_ctx, rng=self._rng
                    ).all_nodes
            sampled_at = self.sample_ctx.queue(self._sample_queue).ready
            completion = self._fetch_features(nodes, sampled_at, level)
        self._complete(batch, fire, completion, batch_id, level)

    def _fetch_features(
        self, nodes: np.ndarray, sampled_at: float, level: int
    ) -> float:
        """Feature I/O for one batch's node set; returns its completion.

        Cache lookup, cross-shard interconnect hop for remotely-owned
        frontier nodes, then the feature source's own charge (local read
        on ``transfer``, remote tail on its queue) and the p2p hop on
        its queue — the fetch completes at the *max* of the wires.
        """
        plan = plan_gather(nodes, self.cache)
        if level >= MAX_DEGRADE_LEVEL and self.cache is not None:
            # Cached-only service reads just the device-resident rows:
            # misses — cross-shard, host, p2p or remote — are answered
            # from stale/default embeddings and cross no wire at all.
            plan = plan.cached_only()
        elif self.shard is not None:
            # Frontier nodes owned by other shards hop the interconnect
            # from their owner's device before the local feature read.
            remote = self.shard.remote_count(nodes)
            if remote > 0:
                remote_bytes, hop = self.charge_hop(
                    "cross_shard_fetch", self.link, remote, sampled_at
                )
                self.cross_shard_rows += remote
                self.cross_shard_bytes += remote_bytes
                self.link_seconds += hop
        completion = self.features.charge(
            self.io_ctx,
            plan,
            not_before=sampled_at,
            prefix=self._prefix,
            name="serve_feature_fetch",
        )
        if plan.p2p_rows > 0:
            # Peer HBM is DMA'd straight into the staging buffer over
            # the fleet link, so it leaves the transfer queue entirely.
            p2p_bytes, hop = self.charge_hop(
                "p2p_fetch",
                self.link,
                plan.p2p_rows,
                sampled_at,
                queue=self._p2p_queue,
            )
            self.p2p_rows += plan.p2p_rows
            self.p2p_bytes += p2p_bytes
            self.p2p_seconds += hop
            completion = max(
                completion, self.io_ctx.queue(self._p2p_queue).ready
            )
        return completion

    def _complete(
        self,
        batch: list[Request],
        fire: float,
        completion: float,
        batch_id: int,
        level: int,
    ) -> None:
        """Fill every member's log and feed the SLO monitor.

        Also prunes in-flight entries that completed at or before this
        batch's fire time: batches fire in global time order, so those
        entries can never be counted by a later :meth:`outstanding`
        call — and without the prune here, routers that never query
        load (round-robin, shard-affinity) would let the list grow one
        entry per request for the whole session.
        """
        if self._in_flight:
            self._in_flight = [
                (t, r) for (t, r) in self._in_flight if t > fire
            ]
        for request in batch:
            log = self._by_rid[request.rid]
            log.start = fire
            log.completion = completion
            log.batch_id = batch_id
            log.batch_size = len(batch)
            log.level = level
            self._in_flight.append((completion, request))
            self._observe(completion - request.arrival)
        self.last_completion = max(self.last_completion, completion)
