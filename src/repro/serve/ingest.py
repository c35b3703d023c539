"""Serve-while-ingesting: graph updates as events on the cluster loop.

The one module under ``repro.serve`` that knows the graph can change,
imported only when a session asks to ingest (static sessions never load
:mod:`repro.dynamic`).  :class:`IngestSession` owns the
:class:`~repro.dynamic.DeltaGraph`, the partition-drift tracker and the
staleness ledger; it puts one event per update batch on the loop and,
on the :class:`~repro.dynamic.DynamicPolicy`'s cadence, installs a
snapshot or compaction under the compiled samplers and rebalances
shards that drifted.
"""

from __future__ import annotations

import dataclasses

from repro.cache import graph_degrees
from repro.dynamic import (
    DeltaGraph,
    DynamicPolicy,
    UpdateBatch,
    UpdateSpec,
    generate_update_stream,
)
from repro.errors import ServeError
from repro.partition import PartitionTracker, incremental_rebalance
from repro.serve.control import EVENT_PRIORITY

#: Cap on rows moved per incremental rebalance.
MAX_MIGRATE_ROWS = 256


class IngestSession:
    """The ``updates=`` / ``dynamic=`` session extension (see
    :mod:`repro.serve.cluster`).  ``updates`` is an
    :class:`~repro.dynamic.UpdateSpec` (generated here over the graph's
    degree hotness) or a pre-built batch sequence.  With no batches to
    apply it schedules nothing and reports nothing, which keeps
    zero-ingest sessions bit-identical to static ones."""

    def __init__(
        self,
        session,
        updates: UpdateSpec | list | tuple | None,
        policy: DynamicPolicy | None,
    ) -> None:
        self.policy = policy if policy is not None else DynamicPolicy()
        if (
            self.policy.repartition_threshold is not None
            and session.partition is None
        ):
            raise ServeError(
                "a repartition threshold needs a graph partition whose "
                "drift it can track"
            )
        dataset = session.dataset
        if isinstance(updates, UpdateSpec):
            updates = generate_update_stream(
                updates,
                num_nodes=dataset.num_nodes,
                hotness=graph_degrees(dataset.graph),
            )
        self.updates: list[UpdateBatch] = sorted(
            updates or (), key=lambda b: (b.time, b.uid)
        )
        self.session = session
        self.delta = DeltaGraph(dataset.graph)
        self.tracker = (
            PartitionTracker(session.partition)
            if session.partition is not None
            else None
        )
        #: Most recently installed graph (what the samplers currently
        #: bind); starts as the immutable base.
        self.graph = dataset.graph
        self.snapshots = 0
        self.rebalances = 0
        self.migrated_rows = 0
        self.migrated_bytes = 0
        self.refresh_seconds = 0.0
        #: The staleness ledger: (arrival time, edge count) of applied-
        #: but-not-yet-installed update batches, and (lag, edge count) of
        #: every batch an install (or the session's end) made visible.
        self._pending: list[tuple[float, int]] = []
        self._settled: list[tuple[float, int]] = []
        self._last_install = 0.0

    def events(self, ordered: list):
        for batch in self.updates:
            yield (
                batch.time, EVENT_PRIORITY["update"], batch.uid, self.apply, batch
            )

    # ------------------------------------------------------------------
    def apply(self, now: float, batch: UpdateBatch) -> None:
        """Apply one update batch; install/compact/rebalance per policy.

        Updates apply *between* request batches: the event loop fires
        every batch due strictly before ``now`` first, so a snapshot
        installed here is what the next fired batch samples.
        """
        self.delta.apply(batch)
        self._pending.append((now, batch.num_edges))
        if self.tracker is not None:
            self.tracker.apply_updates(batch.src, batch.dst, batch.delete)
        policy = self.policy
        compact = (
            policy.compact_every > 0
            and self.delta.batches_applied % policy.compact_every == 0
        )
        if compact:
            self._install_graph(now, compact=True)
        elif now - self._last_install >= policy.snapshot_every:
            self._install_graph(now, compact=False)
        if (
            self.tracker is not None
            and policy.repartition_threshold is not None
            and self.tracker.needs_rebalance(policy.repartition_threshold)
        ):
            self._rebalance(now)

    def _settle_staleness(self, visible_at: float) -> None:
        """Every pending batch was invisible from its arrival until
        ``visible_at`` (an install, or the end of the session)."""
        self._settled += [(visible_at - t, edges) for t, edges in self._pending]
        self._pending = []

    def _install_graph(self, now: float, *, compact: bool) -> None:
        """Materialize the delta and swap it under the compiled layers.

        The rebuild is charged to *every* replica's sample queue (each
        device merges its own copy, so in-flight sampling queues behind
        the refresh — the latency half of the staleness-vs-latency
        trade).  The compiled pipelines are shared across the fleet, so
        the graph rebinds once.
        """
        delta, session = self.delta, self.session
        workload = (
            delta.compact_workload() if compact else delta.merge_workload()
        )
        dirty = delta.drain_dirty()
        name = "graph_compact" if compact else "graph_snapshot"
        for replica in session.replicas:
            self.refresh_seconds += replica.charge_refresh(name, workload, now)
        self.graph = delta.compact() if compact else delta.snapshot()
        for pipeline in session.pipelines:
            for sampler in pipeline.samplers:
                sampler.graph = self.graph
        if not compact:
            self.snapshots += 1
        self._last_install = now
        self._settle_staleness(now)
        if dirty.size:
            # Rows whose degree band changed fall out of residency; a
            # compaction is the natural re-admission point, so it hands
            # over the live degrees to refill against.
            degrees = delta.degrees() if compact else None
            for replica in session.replicas:
                replica.features.graph_updated(dirty, degrees)

    def _rebalance(self, now: float) -> None:
        """Bounded shard migration when degree balance drifts too far.

        Moves at most :data:`MAX_MIGRATE_ROWS` nodes from the most to the
        least loaded shard (affinity-scored, see
        :func:`~repro.partition.incremental_rebalance`), charges each
        receiving replica's feature-row stream over the interconnect on
        its transfer queue — the same wire re-replication uses — and
        rebases the drift tracker so the next trigger measures fresh
        drift.
        """
        session, tracker = self.session, self.tracker
        plan = incremental_rebalance(
            self.graph,
            session.partition.assignment,
            session.num_replicas,
            target_balance=max(tracker.baseline_balance, 1.0),
            max_moves=MAX_MIGRATE_ROWS,
        )
        if plan.num_moved == 0:
            # Nothing movable under the overshoot guard: rebase so the
            # trigger does not refire on every subsequent batch.
            tracker.rebase(session.partition)
            return
        session.partition = dataclasses.replace(
            session.partition,
            assignment=plan.assignment,
            edge_cut=plan.edge_cut,
            shard_degrees=plan.shard_degrees,
        )
        for i, replica in enumerate(session.replicas):
            replica.shard = session.partition.view(i)
            incoming = int(plan.rows_into(i).size)
            if incoming == 0:
                continue
            nbytes, _ = replica.charge_hop(
                "shard_migration", session.link, incoming, now, bulk=True
            )
            self.migrated_bytes += nbytes
        session.router.partition = session.partition
        # Moved rows change owners, so every replica's residency verdict
        # for them is stale.
        for replica in session.replicas:
            replica.features.graph_updated(plan.moved_nodes)
        self.rebalances += 1
        self.migrated_rows += plan.num_moved
        tracker.rebase(session.partition)

    # ------------------------------------------------------------------
    def finish(self, last_event: float) -> dict[str, object]:
        if not self.updates:
            return {}
        # Updates still pending at session end stayed invisible for the
        # rest of the session; they count as stale to the end.
        self._settle_staleness(
            max(last_event, *(r.last_completion for r in self.session.replicas))
        )
        delta = self.delta
        edges = sum(e for _, e in self._settled)
        return {
            "dynamic": True,
            "ingested_edges": delta.inserted_edges,
            "deleted_edges": delta.deleted_edges,
            "update_batches": delta.batches_applied,
            "snapshots": self.snapshots,
            "compactions": delta.compactions,
            # Edge-weighted mean, plain max, of the settled lags.
            "mean_staleness_ms": (
                sum(lag * e for lag, e in self._settled) / edges * 1e3
                if edges
                else 0.0
            ),
            "max_staleness_ms": max([0.0, *(lag for lag, _ in self._settled)]) * 1e3,
            "refresh_ms": self.refresh_seconds * 1e3,
            "rebalances": self.rebalances,
            "migrated_rows": self.migrated_rows,
            "migrated_bytes": self.migrated_bytes,
        }
