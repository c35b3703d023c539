"""One device's path to its feature table — ``feature_tiers`` lives here.

A consumer that gathers feature rows (the pipelined trainer, a serving
replica, the ingest session that invalidates them) holds one
:class:`FeatureSource` and never learns whether a store fronts the
table or how it is tiered.  There is one store class; ``feature_tiers``
decides only what this module does around it: the wires a gather lands
on, where the table sits, and the attributes of the spans it reports.
"""

from __future__ import annotations

import numpy as np

from repro.cache.gather import GatherPlan, record_gather
from repro.cache.ranking import graph_degrees
from repro.cache.tiered import (
    DEFAULT_CACHE_RATIO,
    DEFAULT_HOST_TIER_RATIO,
    REMOTE_TIER,
    CacheStats,
    TieredFeatureStore,
)
from repro.device.interconnect import LinkSpec
from repro.device.memory import MemoryPool
from repro.errors import ServeError, ShapeError


class FeatureSource:
    """The feature table as one device reaches it: pool, store, wires.

    The store ranks rows by the dataset graph's in-degree.

    Parameters
    ----------
    cache_ratio:
        Fraction of nodes whose rows are planned for this device's HBM,
        in ``[0, 1]``; ``0`` means no store at all (every row crosses PCIe).
    feature_tiers, host_tier_ratio:
        Give the store its remote and p2p wires (and that fraction of
        nodes in its pinned-host tier).  Without ``feature_tiers`` the
        store is a flat cache — host tier ratio 1.0, p2p off — and any
        other ``host_tier_ratio`` is refused.
    p2p, link, device, replica_id, fleet_size:
        The tiered store's peer-to-peer band.
    hbm_budget:
        Byte capacity of :attr:`pool`, which the pinned rows are charged
        to; ``None`` leaves it unbounded.
    owned_mask:
        A sharded replica's owned rows.  Shard-affinity routing sends it
        mostly owned-shard traffic, so its flat cache ranks them above
        every other row (which stay admissible last) instead of pinning
        globally hot rows it rarely serves.  A tiered store stays on
        global degrees: its p2p stripe is a fleet-wide construct every
        replica must agree on.
    """

    def __init__(
        self,
        dataset,
        *,
        cache_ratio: float = DEFAULT_CACHE_RATIO,
        feature_tiers: bool = False,
        host_tier_ratio: float = DEFAULT_HOST_TIER_RATIO,
        p2p: bool = False,
        hbm_budget: int | None = None,
        link: LinkSpec | None = None,
        device=None,
        replica_id: int = 0,
        fleet_size: int = 1,
        owned_mask: np.ndarray | None = None,
    ) -> None:
        if not 0.0 <= cache_ratio <= 1.0:  # catches NaN too
            raise ShapeError(f"cache ratio must be in [0, 1], got {cache_ratio}")
        if p2p and not feature_tiers:
            raise ServeError(
                "p2p feature fetch needs the tiered store (feature_tiers)"
            )
        if not feature_tiers and host_tier_ratio != DEFAULT_HOST_TIER_RATIO:
            raise ShapeError(
                f"host tier ratio {host_tier_ratio} changes nothing "
                "without feature_tiers"
            )
        self._tiered = feature_tiers
        self.pool = MemoryPool(hbm_budget)
        feats = dataset.features
        #: Bytes of one feature row (what every row-count charge scales by).
        self.row_bytes = int(feats.shape[1]) * feats.dtype.itemsize
        #: What fronts the table; ``None`` when nothing does.
        self.store: TieredFeatureStore | None = None
        if cache_ratio > 0.0:
            self.store = TieredFeatureStore(
                feats,
                graph_degrees(dataset.graph),
                pool=self.pool,
                device_ratio=cache_ratio,
                host_ratio=host_tier_ratio,
                link=link,
                device=device,
                replica_id=replica_id,
                num_replicas=fleet_size,
                p2p=p2p,
                owned_mask=None if feature_tiers else owned_mask,
            )

    # ------------------------------------------------------------------
    def wires(self, prefix: str = "") -> tuple[str, ...]:
        """Queue names this source's gathers land on, ``transfer`` first.

        A tiered source adds the remote tier's and the p2p band's own
        queues — rows planned there or not — so a batch's tier fetches
        overlap; a flat or absent store needs only ``transfer``.
        """
        names = ("transfer", "remote", "p2p") if self._tiered else ("transfer",)
        return tuple(prefix + name for name in names)

    def table_on_device(self, graph_on_device: bool) -> bool:
        """Where the context being charged must place the feature table.

        The tiered store prices its host band as UVA ``graph_bytes``,
        which only a host-resident table pays; the flat cache follows
        wherever the consumer keeps the graph.
        """
        return graph_on_device and not self._tiered

    def charge(
        self,
        ctx,
        plan: GatherPlan,
        *,
        not_before: float,
        prefix: str = "",
        name: str = "feature_gather",
    ) -> float:
        """Charge ``plan``'s local gather and remote tail; when both landed.

        The local ``name`` launch runs on ``transfer`` with the host band
        as UVA traffic; the remote tail is a fixed-cost launch on its
        own queue, so the fetch completes at the *max* of the two wires.
        The p2p band is an interconnect hop and stays with whoever owns
        the link.
        """
        with ctx.on_queue(prefix + "transfer", not_before=not_before):
            done = record_gather(ctx, plan, self.row_bytes, name).sim_end
        if plan.remote_rows > 0:
            with ctx.on_queue(prefix + "remote", not_before=not_before):
                tail = ctx.record(
                    f"remote_tier_fetch[{REMOTE_TIER.name}]",
                    tasks=plan.remote_rows,
                    fixed_seconds=REMOTE_TIER.transfer_time(
                        plan.remote_rows * self.row_bytes
                    ),
                )
            done = max(done, tail.sim_end)
        return done

    # ------------------------------------------------------------------
    @property
    def cached_rows(self) -> int:
        """Rows pinned in this device's HBM (the re-replication payload)."""
        return self.store.cached_rows if self.store is not None else 0

    def stats(self) -> CacheStats | None:
        """The running hit/miss tally; ``None`` without a store."""
        return self.store.epoch_stats() if self.store is not None else None

    def reset_stats(self) -> None:
        """Clear the tally (residency is untouched)."""
        if self.store is not None:
            self.store.reset_epoch()

    def graph_updated(
        self, dirty: np.ndarray, degrees: np.ndarray | None = None
    ) -> None:
        """Rows in ``dirty`` changed degree band or owner: evict them.

        ``degrees`` (the live in-degrees, passed at a compaction — the
        natural re-admission point) refills a flat store's tombstoned
        slots; a tiered store keeps its seed-time tiers for the session.
        """
        if self.store is None:
            return
        self.store.invalidate(dirty)
        if degrees is not None and not self._tiered:
            self.store.rerank(degrees)

    # ------------------------------------------------------------------
    def epoch_attrs(self) -> dict[str, object] | None:
        """Attributes of a trainer's end-of-epoch ``cache[i]`` span."""
        stats = self.stats()
        if stats is None:
            return None
        attrs: dict[str, object] = dict(
            hits=stats.hits,
            misses=stats.misses,
            hit_rate=round(stats.hit_rate, 4),
            cached_rows=stats.cached_rows,
        )
        if self._tiered:
            attrs.update(
                host_hits=stats.host_hits,
                remote_hits=stats.remote_hits,
                host_rows=stats.host_rows,
            )
        return attrs

    def session_attrs(self) -> dict[str, object] | None:
        """Attributes of the ``tiered_cache[rN]`` span closing a serving
        session — where a tiered store's gathered rows actually lived;
        ``None`` for a flat or absent store, which gets no span."""
        stats = self.stats()
        if stats is None or not self._tiered:
            return None
        return dict(
            device_hits=stats.hits,
            p2p_hits=stats.p2p_hits,
            host_hits=stats.host_hits,
            remote_hits=stats.remote_hits,
            device_rows=stats.cached_rows,
            host_rows=stats.host_rows,
        )
