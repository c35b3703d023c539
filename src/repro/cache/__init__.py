"""GPU feature store: hot-node feature rows served from device memory.

FastGL-style observation (see PAPERS.md): mini-batch GNN training moves
far more bytes gathering features than sampling structure, and feature
accesses are as skewed as the graph's degree distribution — caching the
hottest nodes' rows on device removes most of the PCIe traffic.  This
package provides the one degree-ordered store
(:class:`~repro.cache.tiered.TieredFeatureStore`) every consumer charges
feature gathers through: device HBM -> sibling HBM over the interconnect
-> pinned host DRAM -> a remote/disk tier, where a flat cache is the
``host_ratio=1.0``, p2p-off case.  How (and whether) a store fronts a
table is decided in :mod:`repro.cache.store` and nowhere else.
"""

from repro.cache.gather import GatherPlan, plan_gather, record_gather
from repro.cache.ranking import degree_order, graph_degrees
from repro.cache.store import FeatureSource
from repro.cache.tiered import (
    DEFAULT_CACHE_RATIO,
    DEFAULT_HOST_TIER_RATIO,
    REMOTE_TIER,
    CacheStats,
    TieredFeatureStore,
    admit_rows,
)

__all__ = [
    "DEFAULT_CACHE_RATIO",
    "DEFAULT_HOST_TIER_RATIO",
    "REMOTE_TIER",
    "CacheStats",
    "FeatureSource",
    "GatherPlan",
    "plan_gather",
    "record_gather",
    "TieredFeatureStore",
    "admit_rows",
    "degree_order",
    "graph_degrees",
]
