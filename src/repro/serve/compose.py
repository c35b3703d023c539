"""Batch composition policies for the serving replica.

Admission (may this request join the queue?) and *composition* (which
queued requests form the next sampler invocation, and when does it
fire?) are separate decisions.  Admission stays on the replica — it is
where the bounded queue and the shed/degrade ladder live — while
composition is delegated to a pluggable :class:`BatchComposer`:

* :class:`FifoComposer` — the classic dynamic batcher: the oldest
  ``max_batch`` requests coalesce into one joint sampler call.  This is
  the pre-composer replica path, decision-for-decision (the FIFO
  fingerprint pin holds it to the PR 5 value bit-identically).
* :class:`SizeBinnedComposer` — requests are grouped into power-of-two
  seed-count bins and batches never mix bins, so a padded deployment
  wastes no slots padding a 1-seed lookup up to a 64-seed scan.
* :class:`SuperbatchComposer` — every pending request is taken at once
  and executed as one super-batched compiled run
  (``sampler.run_superbatch``): independent
  per-request sampling instances fused into a single launch sequence,
  then split back per request.  This generalizes the paper's
  super-batch optimization (Table 7) from training epochs to the
  serving hot loop — kernel-launch overhead is amortized over the whole
  window instead of one dynamic batch.

The composer contract:

* ``plan(pending, policy, queue_ready)`` is **pure**: it never mutates
  the queue and the same inputs always produce the same plan (the
  serving fingerprints depend on this).
* ``pending`` is in arrival order; the returned indices are strictly
  increasing positions into it, and every index appears in at most one
  plan because the replica pops planned members before re-planning —
  together these give the exactly-once batching invariant the property
  tests fuzz.
* The fire time is **causality-clamped by the composed members**: a
  batch can never fire before the sampling queue is free nor before its
  own youngest member arrived, and a partial batch waits out
  ``max_wait`` from its oldest member.  Computing this from the members
  (not from global queue positions) is the contract fix for the latent
  FIFO bug where the fire time indexed ``pending[max_batch - 1]`` — the
  wrong request entirely once composition is non-prefix.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING, Sequence

from repro.errors import ServeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.replica import ServePolicy
    from repro.serve.workload import Request

__all__ = [
    "COMPOSER_POLICIES",
    "BatchComposer",
    "BatchPlan",
    "FifoComposer",
    "SizeBinnedComposer",
    "SuperbatchComposer",
    "clamp_fire",
    "make_composer",
]

#: Composition policies selectable from the CLI ``--composer`` flag.
COMPOSER_POLICIES: tuple[str, ...] = ("fifo", "binned", "superbatch")


@dataclasses.dataclass(frozen=True)
class BatchPlan:
    """One composed batch: which pending requests, when, and how."""

    #: Strictly increasing positions into the pending queue.
    indices: tuple[int, ...]
    #: Simulated time the batch fires (causality-clamped, see module doc).
    fire: float
    #: True when the batch executes through the super-batched compiled
    #: path (one fused run, per-request unflattened results) instead of
    #: the joint concatenated sampler call.
    superbatch: bool = False


def clamp_fire(
    members: Sequence["Request"],
    queue_ready: float,
    *,
    full: bool,
    policy: "ServePolicy",
) -> float:
    """Causality-clamped fire time for a composed batch.

    A batch fires as soon as the sampling queue is free — but no earlier
    than its youngest member arrived (the request that completed the
    batch may have landed after the device went idle).  A partial batch
    additionally waits out ``max_wait`` from its *oldest* member.

    ``members`` must be in arrival order (a subsequence of the pending
    queue), so the youngest member is the last one.  For the FIFO
    prefix-of-the-queue composition this reduces exactly to the legacy
    formula — ``max(queue_ready, pending[max_batch - 1].arrival)`` for a
    full batch, ``max(queue_ready, head.arrival + max_wait)`` for a
    partial one — which is what keeps the FIFO fingerprint pinned.
    """
    if not members:
        raise ServeError("cannot compute a fire time for an empty batch")
    fire = max(queue_ready, members[-1].arrival)
    if not full:
        fire = max(fire, members[0].arrival + policy.max_wait)
    return fire


class BatchComposer(abc.ABC):
    """Strategy deciding which pending requests form the next batch."""

    #: CLI / report name of the policy.
    name: str = ""
    #: True when the composed batches execute through the replica's
    #: super-batched path (requires ``pipeline.supports_superbatch``).
    requires_superbatch: bool = False

    @abc.abstractmethod
    def plan(
        self,
        pending: Sequence["Request"],
        policy: "ServePolicy",
        queue_ready: float,
    ) -> BatchPlan | None:
        """The next batch to fire, or ``None`` with an empty queue.

        Must be pure (no queue mutation, no hidden state) and must
        return a plan whenever ``pending`` is non-empty, so the
        replica's drain loop always makes progress.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class FifoComposer(BatchComposer):
    """The legacy dynamic batcher: oldest ``max_batch`` requests, FIFO.

    Bit-identical to the pre-composer replica: same members, same fire
    times, same joint concatenated sampler call (the pinned-fingerprint
    test holds this path to the PR 5 value).
    """

    name = "fifo"

    def plan(
        self,
        pending: Sequence["Request"],
        policy: "ServePolicy",
        queue_ready: float,
    ) -> BatchPlan | None:
        if not pending:
            return None
        members = list(pending[: policy.max_batch])
        full = len(pending) >= policy.max_batch
        fire = clamp_fire(members, queue_ready, full=full, policy=policy)
        return BatchPlan(indices=tuple(range(len(members))), fire=fire)


def seed_bin(num_seeds: int) -> int:
    """Power-of-two seed-count bin: sizes ``[2**(b-1), 2**b)`` share bin
    ``b`` (1 -> bin 1, 2-3 -> bin 2, 4-7 -> bin 3, ...)."""
    return max(1, int(num_seeds)).bit_length()


class SizeBinnedComposer(BatchComposer):
    """Batches never mix seed-count bins, minimizing padding waste.

    Pending requests are grouped into power-of-two seed-count bins; each
    bin behaves like its own FIFO batcher (oldest ``max_batch`` members,
    full when the bin holds ``max_batch``, ``max_wait`` from the bin
    head otherwise) and the bin whose batch fires earliest wins.  Ties
    break toward the older head, then the smaller bin — both total
    orders, so planning stays deterministic.
    """

    name = "binned"

    def plan(
        self,
        pending: Sequence["Request"],
        policy: "ServePolicy",
        queue_ready: float,
    ) -> BatchPlan | None:
        if not pending:
            return None
        bins: dict[int, list[int]] = {}
        for pos, request in enumerate(pending):
            bins.setdefault(seed_bin(request.seeds.size), []).append(pos)
        best: tuple[float, float, int, tuple[int, ...]] | None = None
        for key in sorted(bins):
            positions = bins[key]
            indices = tuple(positions[: policy.max_batch])
            members = [pending[i] for i in indices]
            full = len(positions) >= policy.max_batch
            fire = clamp_fire(members, queue_ready, full=full, policy=policy)
            candidate = (fire, members[0].arrival, key, indices)
            if best is None or candidate < best:
                best = candidate
        assert best is not None
        return BatchPlan(indices=best[3], fire=best[0])


class SuperbatchComposer(BatchComposer):
    """All pending requests fused into one super-batched compiled run.

    Fires on the same triggers as the FIFO batcher — ``max_batch``
    requests pending, or the oldest has waited ``max_wait`` — but takes
    the *entire* pending queue when it does (bounded only by the
    admission queue capacity), executing it as one ``run_superbatch``
    launch sequence with per-request results split back out.  Under load
    this amortizes the per-launch overhead over the whole window instead
    of one dynamic batch: the serving analogue of the paper's super-batch
    optimization.
    """

    name = "superbatch"
    requires_superbatch = True

    def plan(
        self,
        pending: Sequence["Request"],
        policy: "ServePolicy",
        queue_ready: float,
    ) -> BatchPlan | None:
        if not pending:
            return None
        members = list(pending)
        full = len(pending) >= policy.max_batch
        fire = clamp_fire(members, queue_ready, full=full, policy=policy)
        return BatchPlan(
            indices=tuple(range(len(members))), fire=fire, superbatch=True
        )


def make_composer(composer: str | BatchComposer) -> BatchComposer:
    """Build a composer from a policy name (passes instances through)."""
    if isinstance(composer, BatchComposer):
        return composer
    if composer == "fifo":
        return FifoComposer()
    if composer == "binned":
        return SizeBinnedComposer()
    if composer == "superbatch":
        return SuperbatchComposer()
    raise ServeError(
        f"unknown composer {composer!r}; available: "
        f"{sorted(COMPOSER_POLICIES)}"
    )
