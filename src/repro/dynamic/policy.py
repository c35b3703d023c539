"""Serve-while-ingesting policy knobs.

:class:`DynamicPolicy` bundles the cluster-side decisions a dynamic
session needs: how *stale* the served graph may get before a fresh
snapshot is installed, how often the delta is compacted back into a
canonical base CSC, and when partition drift triggers an incremental
rebalance.  It deliberately mirrors :class:`~repro.serve.replica.ServePolicy`
— frozen, validated at construction, cheap to sweep in benchmarks.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ServeError

__all__ = ["DynamicPolicy"]


@dataclasses.dataclass(frozen=True)
class DynamicPolicy:
    """Knobs for a serve-while-ingesting session.

    The staleness-vs-latency tradeoff lives in ``snapshot_every``: a
    short epoch keeps served samples fresh but charges the merge to the
    sample queue more often (latency); a long epoch amortizes the merge
    but serves a staler graph.
    """

    #: Snapshot epoch in simulated seconds: a new overlay snapshot is
    #: installed once at least this much time passed since the last
    #: install (checked when an update batch lands).
    snapshot_every: float = 5e-4
    #: Compact (full canonical rebuild) every N applied update batches;
    #: 0 disables compaction and every install is an overlay snapshot.
    compact_every: int = 0
    #: Degree-balance drift that triggers an incremental rebalance
    #: (absolute increase of max/mean shard degree balance over the
    #: post-partition baseline).  ``None`` disables repartitioning.
    repartition_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.snapshot_every < 0.0:
            raise ServeError(
                f"snapshot epoch must be >= 0, got {self.snapshot_every}"
            )
        if self.compact_every < 0:
            raise ServeError(
                f"compact cadence must be >= 0, got {self.compact_every}"
            )
        if (
            self.repartition_threshold is not None
            and self.repartition_threshold <= 0.0
        ):
            raise ServeError(
                "repartition threshold must be positive, got "
                f"{self.repartition_threshold}"
            )
