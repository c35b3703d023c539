"""Golden sessions for the control plane: kills, autoscaling, ingest.

The four sha256 pins in ``test_serve.py`` / ``test_cluster.py`` cover
static single-replica sessions only; everything the optional cluster
features do — kill / retry / hedge / revive, scale-up / -down,
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
    FailureEvent,
    FailureSpec,
    ServePolicy,
    WorkloadSpec,
    run_cluster_session,
)
from repro.serve.control import AutoscaleSession

SPEC = WorkloadSpec(num_requests=300, arrival_rate=150_000.0, seed=7)
POLICY = ServePolicy(max_batch=8, max_wait=5e-4, queue_capacity=32, slo=2e-3)
UPDATES = UpdateSpec(
    num_edges=2048, rate=300_000.0, delete_fraction=0.1, seed=5
)

#: sha256 of each session's state tuple (see ``_digest``).  The ingest /
#: rebalance pin dates from commit 83af6ab, the last one where
#: ``ClusterSimulator`` executed every control-plane event itself; the
#: others were re-pinned when the online batching tuner (and with it the
#: ``tune_moves`` metric) was deleted, with no other change in behaviour.
KILL_RETRY_REVIVE_PIN = (
    "7cf9b450ddd2afb5ac4af0865ebe7808570e3ea68df70f8febf666354824adbe"
)
HEDGED_PIN = (
    "56380cab56d210d7244cc54bd653f9f0d9692d70fdd038a0fc35869cfb6bee4d"
)
BLIND_SHED_PIN = (
    "b96fe5560935ce784bf9d65172417d4e2c6ab653a781c2f63e4a9ae5941839ff"
)
INGEST_REBALANCE_PIN = (
    "62b3d4ce5d60f3071451d210b5b8326d2a3b6d89677dffd0bb6e5e6d2045fae5"
)
FAILURES_INGEST_PIN = (
    "9761e9b2bb4713e5a3185c52096573fb206a331a0aa6e1a731f3fdf9aff9b706"
)
AUTOSCALE_PIN = (
    "2629520424882c086ea47e5c6e84243a6016f53360b364fc995d3568755ab4a2"
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


def _autoscale(pd):
    return _session(pd, num_replicas=1, autoscale=AUTOSCALE_POLICY)


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


AUTOSCALE_POLICY = AutoscalePolicy(
    min_replicas=1,
    max_replicas=4,
    interval=2e-4,
    high_p99=1e-3,
    cooldown=4e-4,
    high_occupancy=6.0,
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

    def test_autoscale(self, pd):
        cluster, report = _autoscale(pd)
        (scaling,) = [
            e for e in cluster.extensions if isinstance(e, AutoscaleSession)
        ]
        scaler = scaling.scaler
        assert report.scale_ups == 3
        assert _digest(cluster, report, scaler) == AUTOSCALE_PIN

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

