"""One cache-aware feature-gather accounting path for every consumer.

The serial trainer, the pipelined executor, and the serving replica all
charge a per-batch gather launch whose shape depends on whether a
:class:`~repro.cache.TieredFeatureStore` fronts the feature table.
Keeping hand-rolled copies of that split in sync is how cache accounting
drifts, so the normalization lives here once:

* no store — every row crosses PCIe (``host_rows == gathered``);
* a store  — device + host bands go through the local gather (host band
  priced as UVA traffic); the p2p band and the remote tail are reported
  separately so the caller can charge each on its own wire.

Calling :func:`plan_gather` *is* the accounting event: it invokes the
store's ``record_gather`` exactly once, so the hit/miss tally advances
once per gather.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.cache.tiered import TieredFeatureStore


@dataclasses.dataclass(frozen=True)
class GatherPlan:
    """Row split of one feature gather by serving tier."""

    #: Rows moved by the local gather kernel (device + host bands).
    gathered: int
    #: Subset of ``gathered`` priced as UVA/PCIe traffic.
    host_rows: int
    #: Rows left to the remote tier's wire.
    remote_rows: int = 0
    #: Rows DMA'd from sibling replicas' HBM (the store's p2p band).
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
    nodes: np.ndarray, store: TieredFeatureStore | None
) -> GatherPlan:
    """Split one batch's rows across tiers, advancing the store's tally."""
    if store is None:
        return GatherPlan(gathered=len(nodes), host_rows=len(nodes))
    return store.record_gather(nodes)


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
