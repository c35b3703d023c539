"""The serving control plane: elastic autoscaling.

The degradation ladder (PR 4) already computes a sliding-window p99 per
replica; this module turns that signal — plus queue occupancy — into
*replica lifecycle* decisions instead of fidelity ones.  An
:class:`Autoscaler` is evaluated at a fixed simulated interval (an
:class:`AutoscaleSession` tick on the cluster's event loop):

* **scale up** when the pooled windowed p99 breaches ``high_p99`` or
  mean outstanding-per-replica exceeds ``high_occupancy``: the lowest-id
  standby replica is activated, pays the spin-up latency plus a
  re-replication transfer over the interconnect (its shard, or its warm
  cache rows, must stream in before it is routable);
* **scale down** when p99 sits below half of ``high_p99`` *and*
  occupancy below ``low_occupancy``: the highest-id active replica stops
  receiving traffic and drains what it holds.  GPU-time accounting
  (``ServeReport.gpu_seconds``) closes its meter when the drain ends,
  so "elastic vs static at equal GPU-hours" is an honest comparison;
* a **cooldown** separates consecutive scale operations, the standard
  guard against control-loop flapping.

Everything here is deterministic: decisions are pure functions of the
simulated clock and the replicas' windowed signals, so an elastic
session fingerprints as reproducibly as a static one.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ServeError
from repro.stats import percentile

__all__ = ["AutoscalePolicy", "Autoscaler", "ScaleEvent"]

#: Same-timestamp order of everything the cluster loop dispatches, stated
#: once: failures land before revivals before autoscale ticks before
#: graph updates before arrivals — so an arrival at the instant of a kill
#: is routed by the post-kill fleet, and one at the instant of an update
#: is served after that update applied.
EVENT_PRIORITY = {"kill": 0, "revive": 1, "tick": 2, "update": 3, "arrival": 4}


def close_meters(replicas: list) -> dict[str, object]:
    """Close every replica's GPU-time meter; the report fields kills and
    scale-ups share.  Idempotent, so a session with both a failure
    schedule and an autoscaler may call it from each."""
    end = max(r.last_completion for r in replicas)
    for replica in replicas:
        replica.close_meter(end)
    return {
        "elastic": True,
        "gpu_seconds": sum(r.up_seconds for r in replicas),
        "reprovision_bytes": sum(r.reprovision_bytes for r in replicas),
    }


@dataclasses.dataclass(frozen=True)
class AutoscalePolicy:
    """Control-law knobs for the elastic autoscaler."""

    #: Active-replica bounds the controller must respect.
    min_replicas: int = 1
    max_replicas: int = 4
    #: Seconds between controller evaluations (simulated).
    interval: float = 1e-3
    #: Windowed completions required before latency signals are trusted.
    min_samples: int = 16
    #: Pooled windowed p99 (seconds) above which the fleet grows; below
    #: half of it (with low occupancy) the fleet may shrink.
    high_p99: float = 2e-3
    #: Mean outstanding requests per active replica to scale up at.
    high_occupancy: float = 8.0
    #: Occupancy below which scale-down is allowed.
    low_occupancy: float = 1.0
    #: Minimum seconds between consecutive scale operations.
    cooldown: float = 2e-3
    #: Process-start latency a newly activated replica pays before its
    #: re-replication transfer begins.
    spinup: float = 1e-3

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ServeError(
                f"min replicas must be at least 1, got {self.min_replicas}"
            )
        if self.max_replicas < self.min_replicas:
            raise ServeError(
                f"max replicas ({self.max_replicas}) must be >= min "
                f"replicas ({self.min_replicas})"
            )
        if self.interval <= 0.0:
            raise ServeError(
                f"autoscale interval must be positive, got {self.interval}"
            )
        if self.high_p99 <= 0.0:
            raise ServeError(
                f"high p99 threshold must be positive, got {self.high_p99}"
            )
        if self.low_occupancy < 0.0 or self.high_occupancy <= self.low_occupancy:
            raise ServeError(
                "occupancy thresholds must satisfy 0 <= low < high, got "
                f"low={self.low_occupancy} high={self.high_occupancy}"
            )
        if self.cooldown < 0.0:
            raise ServeError(
                f"cooldown must be non-negative, got {self.cooldown}"
            )
        if self.spinup < 0.0:
            raise ServeError(
                f"spin-up delay must be non-negative, got {self.spinup}"
            )
        if self.min_samples < 1:
            raise ServeError(
                f"min samples must be positive, got {self.min_samples}"
            )


@dataclasses.dataclass(frozen=True)
class ScaleEvent:
    """One executed control action, for the report's scale log."""

    time: float
    #: ``"up"`` or ``"down"``.
    action: str
    #: Replica the action targeted.
    replica: int
    #: Live active replicas *after* the action.
    detail: int


class Autoscaler:
    """Evaluates the control law over the cluster's live replicas.

    :class:`AutoscaleSession` carries actions out (activation,
    reprovision charges); the autoscaler owns the *decision*: given the
    simulated clock and the replica list, should the fleet grow, shrink,
    or hold.  Keeping the decision pure (no side effects beyond its own
    cooldown clock) is what keeps elastic sessions deterministic.
    """

    def __init__(self, policy: AutoscalePolicy) -> None:
        self.policy = policy
        self._last_scale_at = -float("inf")
        self.events: list[ScaleEvent] = []

    # ------------------------------------------------------------------
    def pooled_p99(self, replicas: list) -> tuple[float, int]:
        """Pooled windowed p99 over the active replicas' SLO monitors.

        Returns ``(p99_seconds, sample_count)``; the caller treats the
        latency signal as untrusted below ``min_samples``.
        """
        samples: list[float] = []
        for replica in replicas:
            if replica.active and replica.alive:
                samples.extend(replica.latency_window.values())
        return percentile(samples, 99.0), len(samples)

    def occupancy(self, replicas: list, now: float) -> float:
        """Mean outstanding requests per *routable* active replica."""
        live = [r for r in replicas if r.routable(now)]
        if not live:
            return float("inf")
        return sum(r.outstanding(now) for r in live) / len(live)

    def decide(self, now: float, replicas: list) -> str | None:
        """``"up"``, ``"down"``, or ``None`` for this evaluation tick."""
        policy = self.policy
        active = sum(1 for r in replicas if r.active and r.alive)
        if now - self._last_scale_at < policy.cooldown:
            return None
        p99, samples = self.pooled_p99(replicas)
        occupancy = self.occupancy(replicas, now)
        latency_hot = samples >= policy.min_samples and p99 > policy.high_p99
        latency_cold = samples >= policy.min_samples and p99 < policy.high_p99 / 2
        if (
            (latency_hot or occupancy > policy.high_occupancy)
            and active < policy.max_replicas
        ):
            return "up"
        if (
            latency_cold
            and occupancy < policy.low_occupancy
            and active > policy.min_replicas
        ):
            return "down"
        return None

    def record(self, now: float, action: str, replica: int, detail: int) -> None:
        """Log an executed action and start the cooldown clock."""
        self._last_scale_at = now
        self.events.append(
            ScaleEvent(time=now, action=action, replica=replica, detail=detail)
        )


class AutoscaleSession:
    """The ``autoscale=`` session extension (see :mod:`repro.serve.cluster`):
    one evaluation tick per interval, executing what the controller
    decides.  The fleet is pre-built at ``max_replicas`` with standbys
    inactive, so a scale-up never constructs state mid-run — which ties
    the fleet size to something other than the shard count, hence no
    partitions."""

    def __init__(
        self,
        session,
        autoscale: AutoscalePolicy | Autoscaler,
        num_replicas: int,
    ) -> None:
        scaler = (
            Autoscaler(autoscale)
            if isinstance(autoscale, AutoscalePolicy)
            else autoscale
        )
        if session.partition is not None:
            raise ServeError(
                "autoscaling is incompatible with a graph partition: "
                "sharding ties the fleet size to the shard count"
            )
        bounds = scaler.policy
        if not bounds.min_replicas <= num_replicas <= bounds.max_replicas:
            raise ServeError(
                f"initial fleet of {num_replicas} lies outside the "
                f"autoscaler's [{bounds.min_replicas}, "
                f"{bounds.max_replicas}] bounds"
            )
        self.session = session
        self.scaler = scaler
        #: Replicas to pre-build (initial fleet plus standbys).
        self.fleet_size = bounds.max_replicas

    def events(self, ordered: list):
        """One tick per ``interval`` up to the last arrival."""
        if not ordered:
            return
        interval = self.scaler.policy.interval
        tick = 1
        while tick * interval <= ordered[-1].arrival:
            yield (tick * interval, EVENT_PRIORITY["tick"], tick, self.tick, None)
            tick += 1

    def tick(self, now: float, _payload: None) -> None:
        scaler, replicas = self.scaler, self.session.replicas
        policy = scaler.policy
        decision = scaler.decide(now, replicas)
        moved = None
        if decision == "up":
            moved = next(
                (r for r in replicas if not r.active and r.alive), None
            )
            if moved is not None:
                ready = moved.reprovision(self.session.link, now, policy.spinup)
                moved.activate(now, available_from=ready)
        elif decision == "down":
            actives = [r for r in replicas if r.active and r.alive]
            if len(actives) > policy.min_replicas:
                moved = actives[-1]
                moved.deactivate(now)
        if moved is not None:
            scaler.record(
                now,
                decision,
                moved.replica_id,
                sum(1 for r in replicas if r.active and r.alive),
            )

    def finish(self, last_event: float) -> dict[str, object]:
        actions = [e.action for e in self.scaler.events]
        return {
            **close_meters(self.session.replicas),
            "scale_ups": actions.count("up"),
            "scale_downs": actions.count("down"),
        }
