"""Request routers: which replica answers which arrival.

The cluster simulator consults a :class:`Router` once per arrival, in
global simulated-time order, *after* every replica has fired the batches
due before that instant — so queue-depth-based policies observe exactly
the state a real load balancer would.  All policies are deterministic
under the session seed: the only randomness (power-of-two-choices) draws
from its own seeded :class:`numpy.random.Generator` stream, never the
``numpy.random`` globals, which is what the router-determinism tests
pin.

Policies:

* **round_robin** — arrival ``i`` goes to replica ``i mod N``; the
  baseline every queueing comparison starts from.
* **jsq** — join-shortest-queue: the replica with the fewest waiting
  requests (ties toward the lower replica id).  The optimal-ish policy
  the cluster benchmark locates the crossover for.
* **po2** — power-of-two-choices: sample two distinct replicas from the
  seeded stream, keep the shorter queue.  Most of JSQ's benefit at a
  fraction of the (real-world) state-synchronization cost.
* **shard** — shard-affinity: route to the replica owning the request's
  dominant seed shard (majority vote over the request's seed nodes,
  ties toward the lower shard).  Keeps sampling local to the owner at
  the price of ignoring queue imbalance.

Routing is upstream of batch *composition*: the router only picks a
replica, and the replica's own :class:`~repro.serve.compose.BatchComposer`
decides how the requests it was given coalesce into sampler runs.  The
two policies compose freely (the cluster layer plumbs a composer per
replica, so a heterogeneous A/B cluster can sit behind any router), and
the load signal stays the same either way: ``outstanding`` counts
requests queued or in service, whether they will fire as one joint
batch or one fused super-batch window.

**Fleet membership vs failover.**  Every router sees only the replicas
currently *in* the fleet: autoscaler standbys, scaled-down replicas, and
replicas still inside their spin-up window are never selected —
membership changes are control-plane actions a real balancer is told
about.  Death is different: a crash is only visible through health
checks, so masking dead replicas is opt-in via ``mask_dead`` (set from
``FailureSpec.failover`` when the session has a failure schedule).  With
it off the router stays blind and keeps sending arrivals to the corpse —
the no-failover baseline the availability benchmark contrasts.  When
every replica is eligible, each policy reduces to the pre-failover
choice exactly, which is what keeps failure-free sessions bit-identical
to their pins.
"""

from __future__ import annotations

import numpy as np

from repro.core import new_rng
from repro.errors import ServeError
from repro.partition import GraphPartition
from repro.serve.replica import Replica
from repro.serve.workload import Request

#: Router policy names understood by :func:`make_router`.
ROUTER_POLICIES = ("round_robin", "jsq", "po2", "shard")


class Router:
    """Base router: maps one arrival to a replica index."""

    name = "base"

    #: Skip replicas a failure event killed.  Set from
    #: ``FailureSpec.failover``; off, the router stays blind to deaths
    #: (the no-failover baseline) but still respects fleet membership.
    mask_dead = True

    def eligible(self, replicas: list[Replica], now: float) -> list[int]:
        """Replica indices this router may select at ``now``.

        Fleet membership (``active``, spin-up complete) always gates;
        liveness gates only under ``mask_dead``.
        """
        out = []
        for i, replica in enumerate(replicas):
            if not replica.active or now < replica.available_from:
                continue
            if self.mask_dead and not replica.alive:
                continue
            out.append(i)
        return out

    def route(
        self, request: Request, replicas: list[Replica], now: float
    ) -> int:
        raise NotImplementedError

    def repartition(self, partition: GraphPartition) -> None:
        """The graph was repartitioned mid-session; only routers that
        read the shard map care."""


class RoundRobinRouter(Router):
    """Cycle through replicas in arrival order, ignoring their load."""

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def route(
        self, request: Request, replicas: list[Replica], now: float
    ) -> int:
        # With the full fleet eligible this is the plain modular walk.
        eligible = self.eligible(replicas, now)
        target = eligible[self._next % len(eligible)]
        self._next += 1
        return target


class JoinShortestQueueRouter(Router):
    """Send each arrival to the replica with the fewest outstanding
    requests (queued plus in service — the
    :meth:`~repro.serve.replica.Replica.outstanding` signal; the batcher
    queue alone is stale by routing time, since due batches have already
    fired).

    Ties break toward the lower replica id, so the choice is a pure
    function of the observed loads — the invariant the JSQ correctness
    test asserts (never a strictly more loaded replica than any
    alternative).
    """

    name = "jsq"

    def route(
        self, request: Request, replicas: list[Replica], now: float
    ) -> int:
        eligible = self.eligible(replicas, now)
        loads = {i: replicas[i].outstanding(now) for i in eligible}
        return min(eligible, key=lambda i: (loads[i], i))


class PowerOfTwoRouter(Router):
    """Sample two distinct replicas, keep the shorter queue.

    The classic load-balancing result: two random choices close most of
    the gap to full JSQ.  Draws come from this router's own seeded
    generator, so a fixed seed fixes the whole routing sequence.  With a
    reduced fleet the two draws come from the eligible subset (one
    eligible replica short-circuits without consuming a draw, so the
    post-recovery stream realigns with the full-fleet one).
    """

    name = "po2"

    def __init__(self, *, seed: int = 0) -> None:
        self._rng = new_rng(seed)

    def route(
        self, request: Request, replicas: list[Replica], now: float
    ) -> int:
        eligible = self.eligible(replicas, now)
        if len(eligible) == 1:
            return eligible[0]
        # Positions into ``eligible``: with the full fleet these are the
        # raw replica indices, so the stream matches the pre-failover one.
        first, second = self._rng.choice(len(eligible), size=2, replace=False)
        a, b = eligible[int(first)], eligible[int(second)]
        load_a = replicas[a].outstanding(now)
        load_b = replicas[b].outstanding(now)
        if load_a == load_b:
            return min(a, b)
        return a if load_a < load_b else b


class ShardAffinityRouter(Router):
    """Route each request to the replica owning its dominant seed shard.

    The dominant shard is the one holding the most of the request's seed
    nodes (ties toward the lower shard id — deterministic; a request
    with *no* seeds degenerates to shard 0 by the same rule).  Shard
    ``s`` maps onto replica ``s mod N``, which is the identity in the
    intended deployment (one shard per replica).  When the owner is not
    eligible, failover walks the remaining shards in descending seed
    count (ties toward the lower shard id) and falls back to the
    lowest-id eligible replica — the deterministic spill order the
    failover tests pin.
    """

    name = "shard"

    def __init__(self, partition: GraphPartition) -> None:
        self.partition = partition

    def repartition(self, partition: GraphPartition) -> None:
        self.partition = partition

    def route(
        self, request: Request, replicas: list[Replica], now: float
    ) -> int:
        shards = self.partition.shard_of(request.seeds)
        counts = np.bincount(shards, minlength=self.partition.num_shards)
        eligible = self.eligible(replicas, now)
        if len(eligible) == len(replicas):
            return int(counts.argmax()) % len(replicas)
        eligible_set = set(eligible)
        by_count = sorted(
            range(len(counts)), key=lambda s: (-int(counts[s]), s)
        )
        for shard in by_count:
            target = shard % len(replicas)
            if target in eligible_set:
                return target
        return eligible[0]


def make_router(
    name: str | Router,
    *,
    seed: int = 0,
    partition: GraphPartition | None = None,
) -> Router:
    """Build a router by policy name (passes instances through).

    ``seed`` feeds only the policies that draw randomness (``po2``);
    ``partition`` is required by (and only by) ``shard``.
    """
    if isinstance(name, Router):
        return name
    if name == "round_robin":
        return RoundRobinRouter()
    if name == "jsq":
        return JoinShortestQueueRouter()
    if name == "po2":
        return PowerOfTwoRouter(seed=seed)
    if name == "shard":
        if partition is None:
            raise ServeError(
                "the shard-affinity router needs a graph partition "
                "(--partition hash|greedy)"
            )
        return ShardAffinityRouter(partition)
    raise ServeError(
        f"unknown router policy {name!r}; available: {list(ROUTER_POLICIES)}"
    )
