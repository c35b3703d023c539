"""The old home of the flat feature cache, now an alias of the one store.

A flat cache is :class:`~repro.cache.tiered.TieredFeatureStore` with
``host_ratio=1.0`` and p2p off.  This alias exists only because
perfbench's trace-target table (``perfbench/layers.py``) still names
``FeatureCache.split`` / ``FeatureCache.record_gather`` in this module;
re-pointing that table at ``plan_gather`` / ``record_gather`` deletes
both the alias and this module.
"""

from repro.cache.tiered import TieredFeatureStore as FeatureCache

__all__ = ["FeatureCache"]
