"""Failure injection for the serving cluster: who dies, when, and what
happens to the requests they were holding.

A :class:`FailureSpec` is a *schedule*, not a process: every kill (and
optional revival) is a concrete ``(time, replica)`` pair, so a fixed
spec names exactly one deterministic chaos experiment — the same
property the workload specs have.

Failure semantics (executed by :class:`FailureSession`, whose kill and
revive handlers the cluster's event loop calls at their scheduled times):

* a **kill** at time ``t`` removes the replica from service instantly:
  its waiting queue is orphaned and every in-flight batch whose
  completion lies after ``t`` dies with the device (the simulated time
  those batches burned stays burned — the work was really done, the
  answer just never made it out);
* **orphans** are either ``"retry"``-ed — re-routed through the router
  at time ``t``, at most :data:`MAX_RETRIES` times each, optionally
  *hedged* (a duplicate sent to a second replica; the first completion
  wins and the loser is cancelled in accounting) — or ``"shed"``
  (dropped on the floor and counted as lost);
* with ``failover`` enabled the routers stop selecting dead replicas;
  without it the router stays blind and every request sent to a dead
  replica is lost — the baseline the availability benchmark contrasts;
* a kill with a ``downtime`` **revives**: at ``t + downtime`` the
  replacement process starts, pays the spec's ``spinup`` plus a
  re-replication transfer (its shard — or its warm feature-cache rows —
  stream back over the interconnect), and only then becomes routable.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ServeError, check_count, check_real
from repro.serve.control import EVENT_PRIORITY, close_meters
from repro.serve.metrics import RequestLog
from repro.serve.workload import Request

#: What happens to a dead replica's queued + in-flight requests.
ORPHAN_POLICIES = ("retry", "shed")

#: Re-route attempts per orphaned request before it is declared lost.
MAX_RETRIES = 2


@dataclasses.dataclass(frozen=True)
class FailureEvent:
    """One scheduled replica kill (and optional revival)."""

    #: Simulated second the replica dies.
    time: float
    #: Replica id to kill.
    replica: int
    #: Seconds until a replacement process starts; ``None`` = never.
    downtime: float | None = None

    def __post_init__(self) -> None:
        check_real("failure time", self.time, "[0, inf)", error=ServeError)
        check_count("failure replica", self.replica, low=0, error=ServeError)
        if self.downtime is not None:
            check_real("failure downtime", self.downtime, "(0, inf)", error=ServeError)


@dataclasses.dataclass(frozen=True)
class FailureSpec:
    """A deterministic chaos schedule plus the failover policy knobs."""

    events: tuple[FailureEvent, ...]
    #: ``"retry"`` re-routes orphaned requests, ``"shed"`` drops them.
    orphans: str = "retry"
    #: Send retried requests to *two* replicas; first completion wins.
    hedge: bool = False
    #: Mask dead replicas from the routers.  ``False`` keeps the
    #: routers blind (requests sent to a corpse are lost) — the
    #: no-failover baseline.
    failover: bool = True
    #: Process-start latency a revived replica pays before its
    #: re-replication transfer even begins.
    spinup: float = 1e-3

    def __post_init__(self) -> None:
        if self.orphans not in ORPHAN_POLICIES:
            raise ServeError(
                f"unknown orphan policy {self.orphans!r}; available: "
                f"{list(ORPHAN_POLICIES)}"
            )
        check_real("spin-up delay", self.spinup, "[0, inf)", error=ServeError)
        # Tuple-ify so hand-built lists validate too.
        object.__setattr__(self, "events", tuple(self.events))

    @classmethod
    def single_kill(
        cls,
        replica: int,
        time: float,
        *,
        downtime: float | None = None,
        **kwargs: object,
    ) -> "FailureSpec":
        """The one-kill schedule the chaos smoke test runs."""
        return cls(
            events=(
                FailureEvent(time=time, replica=replica, downtime=downtime),
            ),
            **kwargs,
        )


class FailureSession:
    """The ``failures=`` session extension (see :mod:`repro.serve.cluster`):
    one kill (and optional revive) event per :class:`FailureEvent`, with
    the semantics in the module docstring.  Also flips the router's
    ``mask_dead`` from the spec's ``failover`` flag."""

    def __init__(self, session, spec: FailureSpec, fleet: int) -> None:
        for event in spec.events:
            if event.replica >= fleet:
                raise ServeError(
                    f"failure schedule kills replica {event.replica} "
                    f"but the fleet has {fleet} replicas"
                )
        session.router.mask_dead = spec.failover
        self.session = session
        self.spec = spec
        #: rid -> the live copies of a hedged retry.
        self._hedges: dict[int, list[RequestLog]] = {}

    def events(self, ordered: list):
        """Schedule position breaks ties between equal-time kills."""
        kill, revive = EVENT_PRIORITY["kill"], EVENT_PRIORITY["revive"]
        for idx, event in enumerate(self.spec.events):
            yield (event.time, kill, idx, self.kill, event)
            if event.downtime is not None:
                yield (event.time + event.downtime, revive, idx, self.revive, event)

    def kill(self, now: float, event: FailureEvent) -> None:
        replica = self.session.replicas[event.replica]
        if not replica.alive:
            return
        orphans = replica.kill(now)
        if self.spec.orphans == "shed":
            # Orphaned logs stay admitted-but-incomplete: lost.
            return
        for request, log in orphans:
            self._reroute(now, request, log)

    def _reroute(self, now: float, request: Request, log: RequestLog) -> None:
        """Re-route one orphaned request, hedging if the spec asks."""
        spec, session = self.spec, self.session
        replicas, router = session.replicas, session.router
        candidates = self._hedges.get(request.rid)
        if candidates is not None:
            # One copy of a hedged request died; the survivor (if any)
            # carries on and this copy is simply cancelled.
            remaining = [c for c in candidates if c is not log]
            if remaining:
                self._hedges[request.rid] = remaining
                return
            del self._hedges[request.rid]
        if log.retries >= MAX_RETRIES:
            return  # retry budget exhausted: lost
        eligible = router.eligible(replicas, now)
        if not eligible:
            return  # nowhere to go: lost
        # The retry re-enters the batcher *now*; its log keeps the
        # original arrival so the measured latency includes the failure.
        retry = dataclasses.replace(request, arrival=now)
        target = router.route(retry, replicas, now)
        primary = replicas[target]
        if not primary.routable(now):
            return  # blind router picked a corpse: lost
        new_log = primary.offer(retry)
        if not new_log.admitted:
            return  # target queue full — admitted once, never answered
        new_log.arrival = log.arrival
        new_log.retries = log.retries + 1
        session.file_log(new_log)
        if spec.hedge:
            others = [
                i
                for i in eligible
                if i != target and replicas[i].routable(now)
            ]
            if others:
                hedge_log = replicas[others[0]].offer(retry)
                if hedge_log.admitted:
                    hedge_log.arrival = log.arrival
                    hedge_log.retries = new_log.retries
                    new_log.hedged = True
                    hedge_log.hedged = True
                    self._hedges[request.rid] = [new_log, hedge_log]

    def revive(self, now: float, event: FailureEvent) -> None:
        replica = self.session.replicas[event.replica]
        if replica.alive:
            return
        ready = replica.reprovision(self.session.link, now, self.spec.spinup)
        replica.revive(now, available_from=ready)

    def finish(self, last_event: float) -> dict[str, object]:
        """Settle hedges — first completion wins; the duplicate is
        cancelled in accounting (its device time stays burned, its log
        is dropped) — and close the uptime meters."""
        hedge_wins = 0
        for candidates in self._hedges.values():
            done = [c for c in candidates if c.completed]
            if not done:
                continue  # both copies died: the log in place stays lost
            winner = min(done, key=lambda c: c.completion)
            if winner is not candidates[0]:
                hedge_wins += 1
            self.session.file_log(winner)
        replicas = self.session.replicas
        return {
            **close_meters(replicas),
            "failures": sum(r.failures for r in replicas),
            "hedge_wins": hedge_wins,
        }
