"""Incremental repartitioning for mutating graphs.

A partition computed at session start drifts as streamed edges land:
hot destinations gain degree fastest (the update stream is Zipf-skewed
by design), so the shard holding the hottest nodes creeps past its fair
share of work and the edge cut creeps as new edges straddle shards.
Recomputing the partition from scratch fixes both but migrates most of
the graph — every reassigned node's feature row crosses the
interconnect.  This module implements the middle path the ROADMAP asks
for:

* :class:`PartitionTracker` — O(batch) bookkeeping of per-shard degree
  sums and cut drift as deltas land, so the cluster can ask "has any
  shard drifted past the threshold?" without touching the graph;
* :func:`incremental_rebalance` — move a *bounded* set of nodes from
  overloaded to underloaded shards, hubs first, preferring nodes with
  high affinity to the receiving shard (so the cut does not degrade),
  stopping as soon as the balance target is met;
* :func:`full_repartition` — the from-scratch comparator, expressed as
  the same :class:`MigrationPlan` so benchmarks can put migration bytes
  and resulting cut side by side.

Migration *cost* is charged by the caller
(:class:`~repro.serve.cluster.ClusterSimulator`) over the
:class:`~repro.device.LinkSpec`, exactly like re-replication — this
module only decides *what* moves.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ShapeError, check_count, check_real
from repro.partition.partitioners import (
    GraphPartition,
    _edge_cut_fraction,
    _shard_degree_sums,
    make_partition,
)

__all__ = [
    "MigrationPlan",
    "PartitionTracker",
    "full_repartition",
    "incremental_rebalance",
]


class PartitionTracker:
    """Tracks partition-quality drift as edge deltas land.

    The tracker never reads the graph: each applied batch adjusts the
    per-shard degree sums (one ``bincount`` over the batch) and counts
    streamed edges whose endpoints straddle shards.  ``degree_balance``
    therefore always reflects the *live* degree distribution, while
    ``edge_cut`` stays the installed partition's static figure — the
    drift signal is the balance, which is also what the greedy
    partitioner optimizes.
    """

    def __init__(self, partition: GraphPartition) -> None:
        self.rebase(partition)

    def rebase(self, partition: GraphPartition) -> None:
        """Adopt ``partition`` as the new baseline (post-rebalance)."""
        self.partition = partition
        self.shard_degrees = partition.shard_degrees.astype(
            np.float64
        ).copy()
        self.baseline_balance = self.degree_balance()
        self.streamed_edges = 0
        self.streamed_cut_edges = 0

    def apply_updates(
        self, src: np.ndarray, dst: np.ndarray, delete: np.ndarray
    ) -> None:
        """Fold one update batch into the drift statistics."""
        src = np.asarray(src)
        dst = np.asarray(dst)
        delete = np.asarray(delete, dtype=bool)
        if src.size == 0:
            return
        assignment = self.partition.assignment
        sign = np.where(delete, -1.0, 1.0)
        self.shard_degrees += np.bincount(
            assignment[dst],
            weights=sign,
            minlength=self.partition.num_shards,
        )
        self.streamed_edges += int(src.size)
        self.streamed_cut_edges += int(
            np.count_nonzero(assignment[src] != assignment[dst])
        )

    def degree_balance(self) -> float:
        """Max live shard degree over mean (1.0 = perfect balance)."""
        mean = float(self.shard_degrees.mean())
        return float(self.shard_degrees.max()) / mean if mean > 0 else 1.0

    @property
    def drift(self) -> float:
        """Balance degradation since the baseline partition."""
        return self.degree_balance() - self.baseline_balance

    def streamed_cut_fraction(self) -> float:
        """Cut fraction among streamed edges (new-edge locality)."""
        if not self.streamed_edges:
            return 0.0
        return self.streamed_cut_edges / self.streamed_edges

    def needs_rebalance(self, threshold: float) -> bool:
        """Has balance drifted past ``threshold`` over the baseline?"""
        return self.drift >= threshold


@dataclasses.dataclass(frozen=True)
class MigrationPlan:
    """A proposed reassignment plus its traffic and quality figures."""

    #: Global ids of reassigned nodes.
    moved_nodes: np.ndarray
    #: Shard each moved node leaves / joins (parallel to ``moved_nodes``).
    sources: np.ndarray
    targets: np.ndarray
    #: The complete post-move assignment array.
    assignment: np.ndarray
    #: Per-shard degree sums under the new assignment.
    shard_degrees: np.ndarray
    #: Edge-cut fraction under the new assignment.
    edge_cut: float

    @property
    def num_moved(self) -> int:
        return int(self.moved_nodes.size)

    def migration_bytes(self, row_bytes: int) -> int:
        """Feature bytes that must cross the interconnect."""
        return self.num_moved * int(row_bytes)

    def rows_into(self, shard_id: int) -> np.ndarray:
        """Moved nodes whose new owner is ``shard_id``."""
        return self.moved_nodes[self.targets == shard_id]

    def rows_out_of(self, shard_id: int) -> np.ndarray:
        """Moved nodes leaving ``shard_id``."""
        return self.moved_nodes[self.sources == shard_id]


def incremental_rebalance(
    graph,
    assignment: np.ndarray,
    num_shards: int,
    *,
    target_balance: float = 1.1,
    max_moves: int = 256,
) -> MigrationPlan:
    """Bounded node migration from overloaded to underloaded shards.

    Deterministic greedy: while some shard's degree sum exceeds the
    ``target_balance`` multiple of the mean, move nodes from the most
    loaded shard to the least loaded one.  Candidates are the source
    shard's nodes scored by ``affinity - 0.5 * stay``, where
    ``affinity`` is the candidate's edge count into the receiving shard
    and ``stay`` its edge count into its current shard — a node mostly
    wired into the receiver *improves* the cut when it moves.  Ties
    break hubs-first then lower id.  A move is skipped when it would
    push the receiver past the donor (overshoot guard); the loop stops
    at ``max_moves``, when balance is met, or when no candidate remains.
    """
    check_count("shards", num_shards)
    check_count("max moves", max_moves)
    check_real("target balance", target_balance, "[1, inf)")
    csc = graph.get("csc")
    indptr, rows = csc.indptr, csc.rows
    num_nodes = len(indptr) - 1
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (num_nodes,):
        raise ShapeError(
            f"assignment shape {assignment.shape} != nodes ({num_nodes},)"
        )
    degrees = np.diff(indptr).astype(np.float64)
    new_assignment = assignment.copy()
    loads = _shard_degree_sums(
        degrees, new_assignment, num_shards
    ).astype(np.float64)
    mean = float(loads.mean())
    moved: list[int] = []
    sources: list[int] = []
    targets: list[int] = []
    while len(moved) < max_moves and mean > 0:
        over = int(np.argmax(loads))
        under = int(np.argmin(loads))
        if over == under or loads[over] <= target_balance * mean:
            break
        candidates = np.flatnonzero(new_assignment == over)
        candidates = candidates[degrees[candidates] > 0]
        if candidates.size == 0:
            break
        # Edge affinity of each candidate's in-neighborhood toward the
        # receiving shard vs its current shard (the column slice is the
        # sampler's access pattern, so it is also the cut that matters).
        owner_rows = new_assignment[rows]
        affinity = np.zeros(candidates.size, dtype=np.float64)
        stay = np.zeros(candidates.size, dtype=np.float64)
        for i, node in enumerate(candidates.tolist()):
            owners = owner_rows[indptr[node] : indptr[node + 1]]
            affinity[i] = np.count_nonzero(owners == under)
            stay[i] = np.count_nonzero(owners == over)
        score = affinity - 0.5 * stay
        # Best cut improvement first, then hubs, then lower id.
        pick_order = np.lexsort((candidates, -degrees[candidates], -score))
        picked = -1
        for idx in pick_order.tolist():
            node = int(candidates[idx])
            # Overshoot guard: never make the receiver heavier than the
            # donor was — that would just oscillate the pair.
            if loads[under] + degrees[node] <= loads[over]:
                picked = node
                break
        if picked < 0:
            break
        new_assignment[picked] = under
        loads[over] -= degrees[picked]
        loads[under] += degrees[picked]
        moved.append(picked)
        sources.append(over)
        targets.append(under)
    return MigrationPlan(
        moved_nodes=np.asarray(moved, dtype=np.int64),
        sources=np.asarray(sources, dtype=np.int64),
        targets=np.asarray(targets, dtype=np.int64),
        assignment=new_assignment,
        shard_degrees=_shard_degree_sums(
            np.diff(indptr), new_assignment, num_shards
        ),
        edge_cut=_edge_cut_fraction(indptr, rows, new_assignment),
    )


def full_repartition(
    graph,
    assignment: np.ndarray,
    num_shards: int,
    *,
    method: str = "greedy",
    seed: int = 0,
) -> MigrationPlan:
    """From-scratch repartition expressed as a :class:`MigrationPlan`.

    The comparator for :func:`incremental_rebalance`: same plan shape,
    but every node whose shard changed counts as migrated — the
    benchmark puts its (usually much larger) ``migration_bytes``
    against the incremental plan's at their respective cuts.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    fresh = make_partition(method, graph, num_shards, seed=seed)
    changed = np.flatnonzero(fresh.assignment != assignment)
    return MigrationPlan(
        moved_nodes=changed,
        sources=assignment[changed],
        targets=fresh.assignment[changed],
        assignment=fresh.assignment,
        shard_degrees=fresh.shard_degrees,
        edge_cut=fresh.edge_cut,
    )
