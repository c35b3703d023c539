"""One cache-aware feature-gather accounting path for every consumer.

The serial trainer, the pipelined executor, and the serving replica all
charge a per-batch gather launch whose shape depends on what (if
anything) fronts the feature table: nothing, a flat
:class:`~repro.cache.FeatureCache`, or a
:class:`~repro.cache.TieredFeatureStore`.  Keeping three hand-rolled
copies of that split in sync is how cache accounting drifts, so the
normalization lives here once:

* no cache        — every row crosses PCIe (``host_rows == gathered``);
* flat cache      — cached rows served from HBM, misses cross PCIe;
* tiered store    — device + host bands go through the local gather
  (host band priced as UVA traffic), the remote tail is reported
  separately so the caller can charge it on its own wire.

Calling :func:`plan_gather` *is* the accounting event: it invokes the
cache's ``record_gather`` exactly once, so hit/miss statistics advance
identically to the historical inlined code.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cache.feature_cache import FeatureCache
from repro.cache.tiered import TieredFeatureStore


@dataclasses.dataclass(frozen=True)
class GatherPlan:
    """Row split of one feature gather, normalized across cache kinds."""

    #: Rows moved by the local gather kernel (device + host bands).
    gathered: int
    #: Subset of ``gathered`` priced as UVA/PCIe traffic.
    host_rows: int
    #: Rows left to the remote tier's wire (tiered store only).
    remote_rows: int = 0
    #: Rows DMA'd from sibling replicas' HBM (tiered store's p2p band).
    p2p_rows: int = 0

    @property
    def device_rows(self) -> int:
        """Rows served straight from local HBM (cache hits)."""
        return self.gathered - self.host_rows

    def cached_only(self) -> "GatherPlan":
        """The plan restricted to its device rows: every other row is
        answered from a stale/default embedding and crosses no wire."""
        return GatherPlan(gathered=self.device_rows, host_rows=0)


def plan_gather(
    nodes: np.ndarray,
    cache: FeatureCache | TieredFeatureStore | None,
) -> GatherPlan:
    """Split one batch's rows across tiers, advancing cache statistics."""
    total = len(nodes)
    if cache is None:
        return GatherPlan(gathered=total, host_rows=total)
    if isinstance(cache, TieredFeatureStore):
        split = cache.record_gather(nodes)
        return GatherPlan(
            gathered=split.device_rows + split.host_rows,
            host_rows=split.host_rows,
            remote_rows=split.remote_rows,
            p2p_rows=split.p2p_rows,
        )
    _, host_rows = cache.record_gather(nodes)
    return GatherPlan(gathered=total, host_rows=host_rows)


def record_gather(
    ctx, plan: GatherPlan, row_bytes: int, name: str = "feature_gather"
):
    """Charge the local-wire gather launch (``name``) for ``plan``.

    The remote tail (``plan.remote_rows``) is deliberately *not* charged
    here — it belongs on the remote tier's own queue
    (:meth:`~repro.cache.FeatureSource.charge`).
    """
    return ctx.record(
        name,
        bytes_read=plan.gathered * row_bytes,
        bytes_written=plan.gathered * row_bytes,
        tasks=max(plan.gathered, 1),
        graph_bytes=plan.host_rows * row_bytes,
    )
