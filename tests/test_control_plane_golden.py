"""Golden sessions for the control plane: kills, autoscaling, ingest.

The four sha256 pins in ``test_serve.py`` / ``test_cluster.py`` cover
static single-replica sessions only; everything the optional cluster
features do — kill / retry / hedge / revive, scale-up / -down / tune,
ingest / compact / rebalance — was guarded by two-run determinism
alone, which a change that alters behaviour *consistently* passes.
Each session below is pinned by one digest over everything it
produced: the request-log fingerprint, every ``to_metrics()`` cell, each
log's routing outcome, each replica's device ledgers and lifecycle
meters, and the autoscaler's action log.

A digest that moves means simulated behaviour moved.  Re-pin only with
``python -m repro verify all`` green and a CHANGES.md line saying why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datasets import load_dataset
from repro.device import V100
from repro.dynamic import DynamicPolicy, UpdateSpec
from repro.serve import (
    AutoscalePolicy,
    Autoscaler,
    FailureEvent,
    FailureSpec,
    ServePolicy,
    WorkloadSpec,
    run_cluster_session,
)

SPEC = WorkloadSpec(num_requests=300, arrival_rate=150_000.0, seed=7)
POLICY = ServePolicy(max_batch=8, max_wait=5e-4, queue_capacity=32, slo=2e-3)
UPDATES = UpdateSpec(
    num_edges=2048, rate=300_000.0, delete_fraction=0.1, seed=5
)

#: sha256 of each session's state tuple (see ``_digest``), captured at
#: commit 83af6ab — the last one where ``ClusterSimulator`` executed every
#: control-plane event itself.
KILL_RETRY_REVIVE_PIN = (
    "543b1bdeb952e016fd366ddb940f1ec8e2998e887991877dc8bf5a7c0d53dc88"
)
HEDGED_PIN = (
    "f46992496453da71e5819e1abb60faa5c660a8b53b4635a2c84629aa89a7da45"
)
BLIND_SHED_PIN = (
    "04d92892bfc9197f7139cefcfb90490e6d5b121296d64366361466873e2d465a"
)
INGEST_REBALANCE_PIN = (
    "62b3d4ce5d60f3071451d210b5b8326d2a3b6d89677dffd0bb6e5e6d2045fae5"
)
FAILURES_INGEST_PIN = (
    "e590da7c95df6ee086967ebc045e2542fb0ffff21d5321ade6bca94b77a5a4d2"
)
AUTOSCALE_TUNE_PIN = (
    "554660d724a91616baf3873dcfe23b5762ad90e5ef3c61f2b5816b95ec037aa8"
)


@pytest.fixture(scope="module")
def pd():
    return load_dataset("pd", scale=0.25)


def _plain(value):
    """Builtin ints/floats/bools only, so the digest never depends on
    how a NumPy scalar happens to print."""
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, int) or hasattr(value, "__index__"):
        return int(value)
    return float(value)


def _digest(cluster, report, scaler=None) -> str:
    state = (
        _plain(report.fingerprint()),
        int(report.hedge_wins),
        tuple((k, float(v)) for k, v in sorted(report.to_metrics().items())),
        tuple(
            (int(log.replica), int(log.retries), bool(log.hedged))
            for log in report.logs
        ),
        tuple(
            (
                int(r.sample_ctx.launch_count()),
                int(r.io_ctx.launch_count()),
                float(r.sample_ctx.busy_seconds),
                float(r.io_ctx.busy_seconds),
                float(r.up_seconds),
                int(r.failures),
            )
            for r in cluster.replicas
        ),
        tuple(
            (float(e.time), e.action, int(e.replica), int(e.detail))
            for e in (scaler.events if scaler is not None else ())
        ),
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


def _session(pd, **kwargs):
    defaults = dict(
        device=V100, spec=SPEC, policy=POLICY, num_replicas=2,
        router="jsq", seed=7,
    )
    defaults.update(kwargs)
    return run_cluster_session(pd, **defaults)


def _kill_retry_revive(pd):
    return _session(
        pd,
        failures=FailureSpec.single_kill(
            1, 8e-4, downtime=2e-4, spinup=1e-4
        ),
    )


def _hedged(pd):
    return _session(
        pd,
        num_replicas=3,
        failures=FailureSpec.single_kill(1, 8e-4, hedge=True),
    )


def _blind_shed(pd):
    return _session(
        pd,
        failures=FailureSpec.single_kill(
            1, 8e-4, failover=False, orphans="shed"
        ),
    )


def _autoscale_and_tune(pd, scaler):
    return _session(pd, num_replicas=1, autoscale=scaler)


def _ingest_rebalance(pd):
    return _session(
        pd,
        router="shard",
        partition="greedy",
        updates=UPDATES,
        dynamic=DynamicPolicy(
            snapshot_every=2e-4, compact_every=8, repartition_threshold=1e-5
        ),
    )


def _failures_and_ingest(pd):
    return _session(
        pd,
        num_replicas=3,
        router="shard",
        partition="hash",
        failures=FailureSpec(
            events=(
                FailureEvent(time=6e-4, replica=2, downtime=3e-4),
                FailureEvent(time=1.2e-3, replica=0),
            ),
            hedge=True,
            spinup=1e-4,
        ),
        updates=UPDATES,
        dynamic=DynamicPolicy(
            snapshot_every=3e-4, compact_every=16, repartition_threshold=1e-5
        ),
    )


def _new_scaler():
    return Autoscaler(
        AutoscalePolicy(
            min_replicas=1,
            max_replicas=4,
            interval=2e-4,
            high_p99=1e-3,
            cooldown=4e-4,
            high_occupancy=6.0,
            tune_batching=True,
        )
    )


class TestControlPlaneGolden:
    def test_kill_retry_revive(self, pd):
        cluster, report = _kill_retry_revive(pd)
        # The session exercises what it claims to before it is pinned.
        assert report.failures == 1 and report.retried > 0
        assert report.reprovision_bytes > 0
        assert _digest(cluster, report) == KILL_RETRY_REVIVE_PIN

    def test_hedged_retry(self, pd):
        cluster, report = _hedged(pd)
        assert report.hedged > 0
        assert _digest(cluster, report) == HEDGED_PIN

    def test_blind_router_shed_orphans(self, pd):
        cluster, report = _blind_shed(pd)
        assert report.lost > 0 and report.retried == 0
        assert _digest(cluster, report) == BLIND_SHED_PIN

    def test_autoscale_and_tune(self, pd):
        scaler = _new_scaler()
        cluster, report = _autoscale_and_tune(pd, scaler)
        assert report.scale_ups >= 1 and report.tune_moves > 0
        assert _digest(cluster, report, scaler) == AUTOSCALE_TUNE_PIN

    def test_ingest_compact_rebalance(self, pd):
        cluster, report = _ingest_rebalance(pd)
        assert report.compactions > 0 and report.snapshots > 0
        assert report.rebalances >= 1 and report.migrated_bytes > 0
        assert _digest(cluster, report) == INGEST_REBALANCE_PIN

    def test_failures_and_ingest_together(self, pd):
        cluster, report = _failures_and_ingest(pd)
        assert report.elastic and report.dynamic
        assert report.failures == 2 and report.update_batches > 0
        assert _digest(cluster, report) == FAILURES_INGEST_PIN

