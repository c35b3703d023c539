"""Deterministic streaming-update workloads for serve-while-ingesting.

The request side of a serving session is covered by
:mod:`repro.serve.workload`; this module generates the *update* side —
batches of edge inserts/deletes arriving on the same simulated clock, so
:class:`~repro.serve.cluster.ClusterSimulator` can interleave them with
the request stream.

Shape of the stream:

* batches arrive as a Poisson process whose mean edge rate is
  ``spec.rate`` (so inter-batch gaps are exponential with mean
  ``BATCH_EDGES / rate``) — memoryless, like the request baseline;
* destination endpoints are Zipf-skewed over hotness ranks using the
  same ``rank^-skew`` law the request generator uses (hot nodes gain
  edges fastest — exactly the drift that stresses degree-ordered caches
  and degree-balanced partitions);
* source endpoints are uniform, with self-loops nudged away;
* a ``delete_fraction`` of edges remove a previously *inserted* edge
  (uniformly chosen from the survivors), modelling churn without ever
  draining the base graph;
* every inserted edge carries a uniform(0, 1) weight, matching the
  synthetic datasets' weight law — :class:`~repro.dynamic.delta.DeltaGraph`
  uses it over weighted bases and ignores it over unweighted ones.

Everything is driven by one :class:`numpy.random.Generator` seeded from
the spec: equal specs produce bit-identical streams, which the CI
dynamic-smoke determinism tripwire diffs across two runs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core import new_rng
from repro.errors import ServeError, check_count, check_real

__all__ = ["UpdateBatch", "UpdateSpec", "generate_update_stream"]

#: Edges per arriving batch (the ingest pipeline's micro-batch).
BATCH_EDGES = 8


@dataclasses.dataclass(frozen=True)
class UpdateBatch:
    """One batch of edge mutations arriving at simulated ``time``.

    ``delete[i]`` says whether edge ``i`` is a delete (tombstone one
    live occurrence of ``src[i] -> dst[i]``) or an insert.
    """

    uid: int
    time: float
    src: np.ndarray
    dst: np.ndarray
    delete: np.ndarray
    #: Per-edge insert weights (float32; zero at delete positions).
    #: Consumed only when the base graph is weighted.
    weights: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    @property
    def num_deletes(self) -> int:
        return int(np.count_nonzero(self.delete))


@dataclasses.dataclass(frozen=True)
class UpdateSpec:
    """Everything needed to regenerate an update stream bit-for-bit."""

    #: Total streamed edges over the session (across all batches).
    num_edges: int = 256
    #: Mean ingest rate in edges per simulated second.
    rate: float = 200_000.0
    #: Fraction of streamed edges that delete a previously inserted
    #: edge instead of adding a new one.
    delete_fraction: float = 0.0
    #: Zipf exponent over destination hotness ranks; 0 is uniform.
    skew: float = 1.1
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("update stream edges", self.num_edges, error=ServeError)
        check_real("ingest rate", self.rate, "(0, inf)", error=ServeError)
        check_real("delete fraction", self.delete_fraction, "[0, 1)", error=ServeError)
        check_real("skew", self.skew, "[0, inf)", error=ServeError)
        check_count("seed", self.seed, low=0, error=ServeError)

    @property
    def num_batches(self) -> int:
        return -(-self.num_edges // BATCH_EDGES)


def generate_update_stream(
    spec: UpdateSpec,
    *,
    num_nodes: int,
    hotness: np.ndarray | None = None,
) -> list[UpdateBatch]:
    """Generate the full update-batch stream for ``spec``.

    ``hotness`` maps popularity ranks to concrete node ids exactly like
    :func:`repro.serve.workload.generate_workload` — pass the same
    degree array so streamed edges land on the nodes request traffic
    hits.
    """
    # Deferred: repro.serve.cluster imports this package at module
    # scope, so a top-level serve import here would close a cycle.
    from repro.serve.workload import _RankSampler

    check_count("update stream nodes", num_nodes, low=2, error=ServeError)
    if hotness is None:
        hot_order = np.arange(num_nodes, dtype=np.int64)
    else:
        hotness = np.asarray(hotness)
        if hotness.shape != (num_nodes,):
            raise ServeError(
                f"hotness shape {hotness.shape} != nodes ({num_nodes},)"
            )
        hot_order = np.argsort(-hotness.astype(np.float64), kind="stable")
    rng = new_rng(spec.seed)
    ranks = _RankSampler(num_nodes, spec.skew)
    batches: list[UpdateBatch] = []
    # Live inserted edges available for churn deletes, in insert order.
    reservoir: list[tuple[int, int]] = []
    t = 0.0
    remaining = spec.num_edges
    uid = 0
    while remaining > 0:
        count = min(BATCH_EDGES, remaining)
        t += rng.exponential(BATCH_EDGES / spec.rate)
        src = np.empty(count, dtype=np.int64)
        dst = np.empty(count, dtype=np.int64)
        delete = np.zeros(count, dtype=bool)
        weights = np.zeros(count, dtype=np.float32)
        for i in range(count):
            if (
                spec.delete_fraction > 0.0
                and reservoir
                and rng.random() < spec.delete_fraction
            ):
                victim = int(rng.integers(len(reservoir)))
                u, v = reservoir.pop(victim)
                src[i], dst[i], delete[i] = u, v, True
                continue
            v = int(hot_order[ranks.draw_one(rng)])
            u = int(rng.integers(num_nodes))
            if u == v:
                u = (u + 1) % num_nodes
            src[i], dst[i] = u, v
            weights[i] = rng.random()
            reservoir.append((u, v))
        batches.append(
            UpdateBatch(
                uid=uid,
                time=float(t),
                src=src,
                dst=dst,
                delete=delete,
                weights=weights,
            )
        )
        uid += 1
        remaining -= count
    return batches
