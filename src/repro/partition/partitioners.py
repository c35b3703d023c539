"""Seed-node graph partitioners for sharded serving.

A sharded deployment assigns every node of the graph to one of ``k``
shards; each serving replica owns one shard's adjacency and feature
rows.  Requests route to the replica owning their seed nodes, and any
frontier node the sampler touches outside that shard must cross the
simulated interconnect (`repro.device.interconnect`) before its feature
row can be read.  The partitioner therefore controls the cluster's
cross-shard traffic tax: the fraction of edges cut is a direct proxy for
the fraction of sampled frontier rows that pay the link.

Two deterministic partitioners, the classic endpoints of the
quality/cost trade:

* **hash** — a mixed integer hash of the node id, mod ``k``.  Zero
  preprocessing, perfectly balanced in expectation, but oblivious to
  structure: the expected edge cut is ``(k-1)/k``.
* **greedy** — degree-balanced greedy edge-cut (the streaming
  linear-deterministic-greedy family used by large-scale graph systems):
  nodes are visited in descending-degree order and placed on the shard
  holding most of their already-placed neighbors, scaled by a
  degree-budget penalty so no shard hoards the hubs.  Cuts far fewer
  edges than hashing on clustered graphs while keeping per-shard *work*
  (degree sum, which is what sampling cost follows) balanced.

Everything is pure NumPy over the graph's CSC and fully deterministic:
ties break toward the lower shard id, so a fixed (graph, k) pair names
exactly one partition — the property the routing fingerprint tests
assert through.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ShapeError, check_count, check_ids


@dataclasses.dataclass(frozen=True)
class ShardView:
    """One shard's slice of the graph: node set plus membership mask.

    The view is what a serving replica holds: enough to answer "is this
    frontier node mine?" in O(1) per node (the cross-shard traffic
    split) and to size the shard's share of work.  ``degree_sum`` is the
    shard's total in-degree — the quantity the greedy partitioner
    balances, since sampling cost scales with adjacency touched, not
    node count.
    """

    shard_id: int
    #: Sorted global ids of the nodes this shard owns.
    nodes: np.ndarray
    #: Boolean membership mask over all graph nodes.
    mask: np.ndarray
    #: Total in-degree of the shard's nodes.
    degree_sum: int

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)

    def contains(self, nodes: np.ndarray) -> np.ndarray:
        """Boolean array: which of ``nodes`` this shard owns."""
        return self.mask[check_ids("node", nodes, self.mask.size)]

    def remote_count(self, nodes: np.ndarray) -> int:
        """How many of ``nodes`` live on *other* shards (link traffic)."""
        owned = self.contains(nodes)
        return int(owned.size) - int(np.count_nonzero(owned))


@dataclasses.dataclass(frozen=True)
class GraphPartition:
    """A complete node-to-shard assignment plus its quality metrics."""

    method: str
    num_shards: int
    #: ``(N,)`` int64 array: shard id of every node.
    assignment: np.ndarray
    #: Fraction of edges whose endpoints land on different shards.
    edge_cut: float
    #: Per-shard total in-degree (the balance the greedy method targets).
    shard_degrees: np.ndarray

    def shard_of(self, nodes: np.ndarray) -> np.ndarray:
        """Shard id of each of ``nodes``."""
        return self.assignment[check_ids("node", nodes, self.assignment.size)]

    def view(self, shard_id: int) -> ShardView:
        """The :class:`ShardView` a replica owning ``shard_id`` holds."""
        if not 0 <= shard_id < self.num_shards:
            raise ShapeError(
                f"shard {shard_id} out of range for {self.num_shards} shards"
            )
        mask = self.assignment == shard_id
        return ShardView(
            shard_id=shard_id,
            nodes=np.flatnonzero(mask).astype(np.int64),
            mask=mask,
            degree_sum=int(self.shard_degrees[shard_id]),
        )


# ----------------------------------------------------------------------
# Assignment builders
# ----------------------------------------------------------------------
def _check_hash(num_shards: int, seed: int) -> None:
    check_count("shard count", num_shards)
    # ``seed + 1`` must fit the uint64 the hash mixes it as.
    if check_count("hash seed", seed, low=0) >= 2**64 - 1:
        raise ShapeError(f"hash seed must be < 2**64 - 1, got {seed!r}")


def _graph_csc(graph):
    csc = graph.get("csc")
    return csc.indptr, csc.rows


def _edge_cut_fraction(
    indptr: np.ndarray, rows: np.ndarray, assignment: np.ndarray
) -> float:
    """Fraction of edges whose endpoints sit on different shards."""
    if rows.size == 0:
        return 0.0
    cols = np.repeat(
        np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
    )
    return float(np.mean(assignment[rows] != assignment[cols]))


def _shard_degree_sums(
    degrees: np.ndarray, assignment: np.ndarray, num_shards: int
) -> np.ndarray:
    return np.bincount(
        assignment, weights=degrees.astype(np.float64), minlength=num_shards
    ).astype(np.int64)


def hash_assignment(
    num_nodes: int, num_shards: int, *, seed: int = 0
) -> np.ndarray:
    """Structure-oblivious shard assignment by mixed integer hash.

    A splitmix64-style finalizer over ``node_id ^ seed-mix`` — cheap,
    stateless, balanced in expectation, and *not* simply ``id % k`` (a
    modulo would alias with any id-correlated structure the synthetic
    generators bake in).
    """
    _check_hash(num_shards, seed)
    # splitmix64 arithmetic is mod-2^64 by design; silence NumPy's
    # overflow warning for the deliberate wraparound.
    with np.errstate(over="ignore"):
        x = np.arange(num_nodes, dtype=np.uint64)
        x = x + np.uint64(0x9E3779B97F4A7C15) * np.uint64(seed + 1)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        return (x % np.uint64(num_shards)).astype(np.int64)


def hash_partition(graph, num_shards: int, *, seed: int = 0) -> GraphPartition:
    """Partition a graph's nodes by hashing ids onto shards."""
    _check_hash(num_shards, seed)
    indptr, rows = _graph_csc(graph)
    num_nodes = len(indptr) - 1
    assignment = hash_assignment(num_nodes, num_shards, seed=seed)
    degrees = np.diff(indptr)
    return GraphPartition(
        method="hash",
        num_shards=num_shards,
        assignment=assignment,
        edge_cut=_edge_cut_fraction(indptr, rows, assignment),
        shard_degrees=_shard_degree_sums(degrees, assignment, num_shards),
    )


def greedy_partition(graph, num_shards: int) -> GraphPartition:
    """Degree-balanced greedy edge-cut partitioning.

    Nodes are visited hubs-first (descending in-degree, ties toward the
    lower id) and placed on the shard maximizing::

        |placed neighbors on shard| * (1 - shard_degree / degree_budget)

    where ``degree_budget`` is each shard's fair share of total degree.
    The affinity term chases low edge cut; the penalty term keeps shard
    *work* balanced — a shard at its degree budget scores zero affinity
    and only receives nodes when every shard is equally loaded.  Ties
    break toward the less-loaded shard, then the lower shard id, so the
    result is deterministic.
    """
    check_count("shard count", num_shards)
    indptr, rows = _graph_csc(graph)
    degrees = np.diff(indptr)
    # Shard ids shifted by one, so 0 marks an unplaced node and one
    # bincount over a node's neighbors counts every shard's placed ones.
    placed = np.zeros(len(indptr) - 1, dtype=np.int64)
    loads = [0.0] * num_shards
    # Fair share of degree per shard; the +1 keeps a degenerate all-
    # isolated graph from dividing by zero.
    budget = max(float(degrees.sum()) / num_shards, 1.0)
    # Each shard's degree-budget factor, kept in step with its load.
    room = [1.0] * num_shards
    order = np.argsort(-degrees.astype(np.float64), kind="stable")
    starts, degree_of = indptr.tolist(), degrees.tolist()
    for node in order.tolist():
        affinity = np.bincount(
            placed[rows[starts[node] : starts[node + 1]]],
            minlength=num_shards + 1,
        ).tolist()
        # Best score, then lightest shard, then lowest id.
        best, best_score = 0, -1.0
        for shard in range(num_shards):
            score = affinity[shard + 1] * room[shard]
            if score > best_score or (
                score == best_score and loads[shard] < loads[best]
            ):
                best, best_score = shard, score
        placed[node] = best + 1
        loads[best] += degree_of[node]
        room[best] = max(0.0, 1.0 - loads[best] / budget)
    assignment = placed - 1
    return GraphPartition(
        method="greedy",
        num_shards=num_shards,
        assignment=assignment,
        edge_cut=_edge_cut_fraction(indptr, rows, assignment),
        shard_degrees=_shard_degree_sums(degrees, assignment, num_shards),
    )


#: Partitioner registry, mirroring the device/link ``get_*`` contract.
PARTITION_METHODS = ("hash", "greedy")


def make_partition(
    method: str, graph, num_shards: int, *, seed: int = 0
) -> GraphPartition:
    """Build a partition by method name (``hash`` or ``greedy``)."""
    if method == "hash":
        return hash_partition(graph, num_shards, seed=seed)
    if method == "greedy":
        return greedy_partition(graph, num_shards)
    raise ShapeError(
        f"unknown partition method {method!r}; "
        f"available: {list(PARTITION_METHODS)}"
    )
