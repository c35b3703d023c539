"""Fault tolerance & elasticity: failure injection, failover, autoscaling.

The contracts under test:

* a :class:`FailureSpec` is a deterministic schedule (validation,
  equality under equal arguments);
* a kill orphans the victim's queued + in-flight requests: ``shed``
  loses them, ``retry`` re-routes them at most ``MAX_RETRIES`` times, and
  hedged retries resolve first-completion-wins;
* failover masks dead replicas from every router; the blind
  (``failover=False``) baseline loses everything sent to the corpse;
* revival pays spin-up plus a re-replication transfer before the
  replica is routable again;
* the autoscaler grows the fleet under load, drains it when idle,
  respects its bounds/cooldown, and the GPU-time meter makes the
  elastic-vs-static comparison honest;
* chaos sessions are exactly as deterministic as static ones, and
  failure-free autoscaler-off sessions stay bit-identical to their pins
  (the pins themselves live in test_serve.py; here we check the classic
  report surface is untouched).
"""

from __future__ import annotations

import math

import pytest

from repro.datasets import load_dataset
from repro.device import NVLINK, PCIE, V100
from repro.errors import ServeError
from repro.serve import (
    AutoscalePolicy,
    Autoscaler,
    FailureEvent,
    FailureSpec,
    ServePolicy,
    WorkloadSpec,
    replica_breakdown,
    run_cluster_session,
    summarize,
)


@pytest.fixture(scope="module")
def pd():
    return load_dataset("pd", scale=0.25)


#: A stream hot enough that every replica sees sustained traffic.
SPEC = WorkloadSpec(num_requests=300, arrival_rate=150_000.0, seed=7)
POLICY = ServePolicy(max_batch=8, max_wait=5e-4, queue_capacity=32, slo=2e-3)


def _chaos(pd, *, failures=None, autoscale=None, replicas=2, router="jsq",
           spec=SPEC, policy=POLICY, seed=7):
    _, report = run_cluster_session(
        pd,
        device=V100,
        spec=spec,
        policy=policy,
        num_replicas=replicas,
        router=router,
        failures=failures,
        autoscale=autoscale,
        seed=seed,
    )
    return report


# ----------------------------------------------------------------------
# Schedules and policies: validation + determinism
# ----------------------------------------------------------------------
class TestSpecs:
    def test_failure_event_validation(self):
        with pytest.raises(ServeError):
            FailureEvent(time=-1.0, replica=0)
        with pytest.raises(ServeError):
            FailureEvent(time=0.0, replica=-1)
        with pytest.raises(ServeError):
            FailureEvent(time=0.0, replica=0, downtime=0.0)

    def test_failure_spec_validation(self):
        with pytest.raises(ServeError):
            FailureSpec(events=(), orphans="pray")
        with pytest.raises(ServeError):
            FailureSpec(events=(), spinup=-1.0)

    def test_autoscale_policy_validation(self):
        with pytest.raises(ServeError):
            AutoscalePolicy(min_replicas=0)
        with pytest.raises(ServeError):
            AutoscalePolicy(min_replicas=3, max_replicas=2)
        with pytest.raises(ServeError):
            AutoscalePolicy(interval=0.0)
        with pytest.raises(ServeError):
            AutoscalePolicy(high_p99=-1.0)
        with pytest.raises(ServeError):
            AutoscalePolicy(low_occupancy=5.0, high_occupancy=2.0)

    def test_cluster_rejects_out_of_fleet_kill(self, pd):
        with pytest.raises(ServeError):
            _chaos(pd, failures=FailureSpec.single_kill(5, 1e-3), replicas=2)

    def test_autoscale_rejects_partition(self, pd):
        with pytest.raises(ServeError):
            run_cluster_session(
                pd,
                device=V100,
                spec=SPEC,
                policy=POLICY,
                num_replicas=2,
                partition="hash",
                autoscale=AutoscalePolicy(max_replicas=2),
                seed=7,
            )

    def test_autoscale_rejects_initial_fleet_outside_bounds(self, pd):
        with pytest.raises(ServeError):
            run_cluster_session(
                pd,
                device=V100,
                spec=SPEC,
                policy=POLICY,
                num_replicas=3,
                autoscale=AutoscalePolicy(min_replicas=1, max_replicas=2),
                seed=7,
            )


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
class TestFailures:
    def test_shed_orphans_are_lost(self, pd):
        report = _chaos(
            pd,
            failures=FailureSpec.single_kill(1, 8e-4, orphans="shed"),
        )
        assert report.elastic
        assert report.failures == 1
        assert report.lost > 0
        assert report.retried == 0
        assert report.availability < 1.0
        # Conservation: every offered request is answered, shed, or lost.
        assert report.completed + report.shed + report.lost == report.requests

    def test_retry_failover_recovers_orphans(self, pd):
        report = _chaos(pd, failures=FailureSpec.single_kill(1, 8e-4))
        assert report.failures == 1
        assert report.retried > 0
        assert report.lost == 0
        assert report.availability == 1.0
        # Retried requests carry the original arrival: their latency
        # includes the failure, so they sit in the tail.
        retried = [log for log in report.logs if log.retries > 0]
        assert retried
        assert all(log.completed for log in retried)

    def test_no_failover_loses_traffic_sent_to_corpse(self, pd):
        blind = _chaos(
            pd,
            failures=FailureSpec.single_kill(
                1, 8e-4, failover=False, orphans="shed"
            ),
        )
        masked = _chaos(
            pd,
            failures=FailureSpec.single_kill(1, 8e-4, orphans="shed"),
        )
        # The blind router keeps feeding the corpse for the rest of the
        # session; with failover only the orphans at kill time are lost.
        assert blind.lost > masked.lost
        assert blind.availability < masked.availability

    def test_in_flight_orphans_are_scrubbed_not_answered(self, pd):
        report = _chaos(
            pd,
            failures=FailureSpec.single_kill(1, 8e-4, orphans="shed"),
        )
        for log in report.logs:
            if log.admitted and not log.completed:
                assert math.isnan(log.completion)
                assert log.batch_id == -1

    def test_retry_budget_bounds_reroutes(self, pd):
        report = _chaos(pd, failures=FailureSpec.single_kill(1, 8e-4))
        assert all(
            log.retries <= report.logs[0].retries + 2 for log in report.logs
        )
        assert max(log.retries for log in report.logs) <= 2

    def test_revival_restores_service(self, pd):
        downtime = 2e-4
        report = _chaos(
            pd,
            failures=FailureSpec.single_kill(
                1, 8e-4, downtime=downtime, spinup=1e-4
            ),
        )
        assert report.availability == 1.0
        assert report.reprovision_bytes > 0
        stats = report.per_replica[1]
        assert stats.failures == 1
        # The victim serves again after its revival window: at least one
        # completion routed to it lies past kill + downtime + spinup.
        revived_done = [
            log
            for log in report.logs
            if log.replica == 1 and log.completed and log.start > 8e-4 + downtime
        ]
        assert revived_done

    def test_permanent_kill_never_returns(self, pd):
        report = _chaos(pd, failures=FailureSpec.single_kill(1, 8e-4))
        assert report.reprovision_bytes == 0
        late = [
            log
            for log in report.logs
            if log.replica == 1 and log.completed and log.start > 8e-4
        ]
        assert not late

    def test_hedged_retry_first_completion_wins(self, pd):
        report = _chaos(
            pd,
            replicas=3,
            failures=FailureSpec.single_kill(1, 8e-4, hedge=True),
        )
        assert report.availability == 1.0
        assert report.hedged > 0
        hedged = [log for log in report.logs if log.hedged]
        assert all(log.completed for log in hedged)
        # The winning copy's replica must have been alive to answer.
        assert all(log.replica != 1 for log in hedged)

    def test_replica_breakdown_is_summarize_of_the_replicas_slice(self, pd):
        """Retried and hedged logs included: the per-replica table and the
        aggregate report are one fold, field for field."""
        simulator, report = run_cluster_session(
            pd,
            device=V100,
            spec=SPEC,
            policy=POLICY,
            num_replicas=3,
            router="jsq",
            failures=FailureSpec.single_kill(1, 8e-4, downtime=4e-4, hedge=True),
            seed=7,
        )
        assert report.hedged > 0
        breakdown = replica_breakdown(report.logs, simulator.replicas)
        assert breakdown == report.per_replica
        for stats in breakdown:
            mine = summarize(
                [log for log in report.logs if log.replica == stats.replica_id]
            )
            assert mine.requests > 0
            for field in ("requests", "completed", "shed", "degraded",
                          "p50_ms", "p99_ms", "mean_batch"):
                assert getattr(stats, field) == getattr(mine, field), field

    def test_uptime_meter_stops_at_kill(self, pd):
        report = _chaos(pd, failures=FailureSpec.single_kill(1, 8e-4))
        up = {s.replica_id: s.uptime_seconds for s in report.per_replica}
        # The victim's meter closed at the kill; the survivor ran the
        # whole session.
        assert up[1] == pytest.approx(8e-4)
        assert up[0] > up[1]
        assert report.gpu_seconds == pytest.approx(up[0] + up[1])


# ----------------------------------------------------------------------
# Autoscaling
# ----------------------------------------------------------------------
class TestAutoscaler:
    def test_scales_up_under_load(self, pd):
        report = _chaos(
            pd,
            replicas=1,
            autoscale=AutoscalePolicy(
                min_replicas=1,
                max_replicas=4,
                interval=2e-4,
                high_p99=1e-3,
                cooldown=4e-4,
                high_occupancy=6.0,
            ),
        )
        assert report.elastic
        assert report.scale_ups >= 1
        assert report.reprovision_bytes > 0
        # Activated standbys actually served traffic.
        assert sum(
            1 for s in report.per_replica if s.completed > 0
        ) > 1

    def test_respects_max_replicas(self, pd):
        report = _chaos(
            pd,
            replicas=1,
            autoscale=AutoscalePolicy(
                min_replicas=1,
                max_replicas=2,
                interval=1e-4,
                high_p99=1e-4,  # impossibly tight: always "hot"
                cooldown=1e-4,
            ),
        )
        assert report.scale_ups <= 1  # 1 -> 2 is the only legal move

    def test_gpu_seconds_bounded_by_fleet_time(self, pd):
        report = _chaos(
            pd,
            replicas=1,
            autoscale=AutoscalePolicy(
                min_replicas=1, max_replicas=4, interval=2e-4, high_p99=1e-3
            ),
        )
        assert 0.0 < report.gpu_seconds <= 4 * report.makespan * 1.01
        # Elastic capacity costs less than keeping the max fleet up.
        assert report.gpu_seconds < 4 * report.makespan

    def test_scale_log_counts_live_replicas_only(self, pd):
        """A killed replica stays ``active``; the scale log's fleet size
        must count it out, as :meth:`Autoscaler.decide` does."""
        scaler = Autoscaler(
            AutoscalePolicy(
                min_replicas=1,
                max_replicas=4,
                interval=2e-4,
                high_p99=1e-3,
                cooldown=4e-4,
                high_occupancy=6.0,
            )
        )
        _chaos(
            pd,
            replicas=2,
            autoscale=scaler,
            failures=FailureSpec.single_kill(1, 2e-4),
        )
        assert [e.action for e in scaler.events] == ["up", "up"]
        assert [e.detail for e in scaler.events] == [2, 3]

    def test_decide_holds_during_cooldown(self):
        scaler = Autoscaler(
            AutoscalePolicy(interval=1e-4, cooldown=1.0, high_p99=1e-6)
        )
        scaler.record(0.0, "up", 0, 2)
        # Any signal inside the cooldown window is ignored.
        assert scaler.decide(0.5, []) is None

    def test_occupancy_infinite_with_no_routable_replica(self):
        scaler = Autoscaler(AutoscalePolicy())
        assert scaler.occupancy([], 0.0) == float("inf")

    def test_static_report_is_not_elastic(self, pd):
        report = _chaos(pd)
        assert not report.elastic
        assert report.gpu_seconds == 0.0
        metrics = report.to_metrics()
        assert "availability" not in metrics
        assert "scale_ups" not in metrics


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_chaos_session_is_deterministic(self, pd):
        failures = FailureSpec(
            events=(
                FailureEvent(
                    time=0.00012847375071543655, replica=0, downtime=5e-4
                ),
                FailureEvent(
                    time=0.00035521575989414954, replica=2, downtime=5e-4
                ),
            )
        )
        a = _chaos(pd, replicas=3, failures=failures)
        b = _chaos(pd, replicas=3, failures=failures)
        assert str(a.fingerprint()) == str(b.fingerprint())
        assert a.availability == b.availability
        assert a.gpu_seconds == b.gpu_seconds

    def test_elastic_session_is_deterministic(self, pd):
        autoscale = AutoscalePolicy(
            min_replicas=1,
            max_replicas=3,
            interval=2e-4,
            high_p99=1e-3,
        )
        a = _chaos(pd, replicas=1, autoscale=autoscale)
        b = _chaos(pd, replicas=1, autoscale=autoscale)
        assert str(a.fingerprint()) == str(b.fingerprint())
        assert a.scale_ups == b.scale_ups

    def test_failure_free_run_matches_static(self, pd):
        """A failure spec whose kills never fire (empty schedule) and no
        autoscaler must not perturb the classic walk."""
        static = _chaos(pd)
        chaos = _chaos(pd, failures=FailureSpec(events=()))
        assert str(static.fingerprint()) == str(chaos.fingerprint())
        # The control plane still reports (elastic flag), but nothing
        # else differs.
        assert chaos.elastic
        assert chaos.failures == 0
        assert chaos.lost == 0


# ----------------------------------------------------------------------
# Interconnect: chunked re-replication stream
# ----------------------------------------------------------------------
class TestBulkTransfer:
    def test_matches_single_transfer_under_one_chunk(self):
        assert NVLINK.bulk_transfer_time(1024) == NVLINK.transfer_time(1024)

    def test_charges_latency_per_chunk(self):
        chunk = 64 * 2**20
        nbytes = 3 * chunk
        expected = 3 * PCIE.latency + nbytes / PCIE.bandwidth
        assert PCIE.bulk_transfer_time(nbytes) == pytest.approx(expected)

    def test_zero_bytes_is_free(self):
        assert NVLINK.bulk_transfer_time(0) == 0.0

    def test_validation(self):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError):
            NVLINK.bulk_transfer_time(-1)
        with pytest.raises(DeviceError):
            NVLINK.bulk_transfer_time(10, chunk_bytes=0)
