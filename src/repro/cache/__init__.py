"""GPU feature cache: hot-node feature rows served from device memory.

FastGL-style observation (see PAPERS.md): mini-batch GNN training moves
far more bytes gathering features than sampling structure, and feature
accesses are as skewed as the graph's degree distribution — caching the
hottest nodes' rows on device removes most of the PCIe traffic.  This
package provides the degree-ordered static cache the pipelined epoch
executor (:mod:`repro.pipeline`) charges feature gathers through, plus
the multi-tier store (:mod:`repro.cache.tiered`) that extends it past
HBM scale: device HBM -> sibling HBM over the interconnect -> pinned
host DRAM -> a remote/disk tier.  Which of the two (or neither) fronts a
table is decided in :mod:`repro.cache.store` and nowhere else.
"""

from repro.cache.feature_cache import (
    DEFAULT_CACHE_RATIO,
    CacheStats,
    FeatureCache,
    admit_rows,
)
from repro.cache.gather import GatherPlan, plan_gather, record_gather
from repro.cache.ranking import degree_order, graph_degrees
from repro.cache.store import FeatureSource
from repro.cache.tiered import (
    DEFAULT_HOST_TIER_RATIO,
    REMOTE_TIER,
    GatherSplit,
    TieredFeatureStore,
)

__all__ = [
    "DEFAULT_CACHE_RATIO",
    "DEFAULT_HOST_TIER_RATIO",
    "REMOTE_TIER",
    "CacheStats",
    "FeatureCache",
    "FeatureSource",
    "GatherPlan",
    "GatherSplit",
    "plan_gather",
    "record_gather",
    "TieredFeatureStore",
    "admit_rows",
    "degree_order",
    "graph_degrees",
]
