"""What the cluster's event loop promises, checked from the outside.

* **Same-timestamp order** — kill < revive < tick < update < arrival:
  an arrival at exactly a kill's time is routed by the post-kill fleet,
  one at exactly an update's time is routed after that update applied,
  and a revive and an autoscale tick at one instant run in that order.
* **Extensions validate first** — a misconfigured ``failures=`` /
  ``autoscale=`` / ``dynamic=`` raises ``ServeError`` from the
  constructor before any replica is built.
* **Static sessions stay static** — a session with no optional feature
  never imports ``repro.dynamic`` or ``repro.serve.ingest``.
* **One session per simulator** — a second ``run()`` raises before it
  records anything.

Everything is observed through public seams (a spy router, a spy
autoscaler, the replicas' launch ledgers), not by reaching into the
loop.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.device import V100
from repro.dynamic import DynamicPolicy, UpdateBatch
from repro.errors import ServeError
from repro.serve import (
    AutoscalePolicy,
    ClusterSimulator,
    FailureEvent,
    FailureSpec,
    Request,
    RoundRobinRouter,
    ServePolicy,
    WorkloadSpec,
)
from repro.serve.control import AutoscaleSession


@pytest.fixture(scope="module")
def pd():
    return load_dataset("pd", scale=0.1)


def _requests(*arrivals: float) -> list[Request]:
    return [
        Request(
            rid=rid,
            arrival=arrival,
            seeds=np.array([rid, rid + 1], dtype=np.int64),
        )
        for rid, arrival in enumerate(arrivals)
    ]


# ----------------------------------------------------------------------
# Same-timestamp ordering
# ----------------------------------------------------------------------
class TestSameTimestampOrder:
    def test_arrival_at_kill_time_sees_the_post_kill_fleet(self, pd):
        kill_at = 1e-3
        cluster = ClusterSimulator(
            pd,
            device=V100,
            num_replicas=2,
            router="round_robin",
            failures=FailureSpec.single_kill(1, kill_at, orphans="shed"),
        )
        # Round-robin would send the second arrival to replica 1 — the
        # replica that dies at the very instant it arrives.
        report = cluster.run(_requests(0.0, kill_at))
        assert report.failures == 1
        second = report.logs[1]
        assert second.replica == 0 and second.completed
        assert report.lost == 0

    def test_arrival_at_update_time_is_routed_after_the_update(self, pd):
        update_at = 1e-3

        class SpyRouter(RoundRobinRouter):
            def __init__(self):
                super().__init__()
                self.snapshots_seen: list[int] = []

            def route(self, request, replicas, now):
                self.snapshots_seen.append(
                    sum(
                        launch.name == "graph_snapshot"
                        for launch in replicas[0].sample_ctx.launches
                    )
                )
                return super().route(request, replicas, now)

        batch = UpdateBatch(
            uid=0,
            time=update_at,
            src=np.array([0, 1], dtype=np.int64),
            dst=np.array([2, 3], dtype=np.int64),
            delete=np.zeros(2, dtype=bool),
        )
        router = SpyRouter()
        cluster = ClusterSimulator(
            pd,
            device=V100,
            router=router,
            updates=[batch],
            # Install on every applied batch, so "applied" is visible as
            # a graph_snapshot launch the moment the update is handled.
            dynamic=DynamicPolicy(snapshot_every=0.0),
        )
        report = cluster.run(_requests(0.0, update_at))
        assert report.snapshots == 1
        # The arrival before the update saw no install; the one at the
        # update's own timestamp already did.
        assert router.snapshots_seen == [0, 1]

    def test_kill_then_tick_and_revive_then_tick(self, pd):
        interval = 5e-4
        ticks: dict[float, list[bool]] = {}

        def spy_decide(now, replicas):
            ticks[now] = [r.alive for r in replicas]
            return None

        cluster = ClusterSimulator(
            pd,
            device=V100,
            num_replicas=2,
            router="jsq",
            autoscale=AutoscalePolicy(
                min_replicas=2, max_replicas=2, interval=interval
            ),
            failures=FailureSpec(
                events=(
                    # Dies at tick 1's instant, revives at tick 2's.
                    FailureEvent(time=interval, replica=1, downtime=interval),
                ),
            ),
        )
        (scaling,) = [
            e for e in cluster.extensions if isinstance(e, AutoscaleSession)
        ]
        scaling.scaler.decide = spy_decide
        cluster.run(_requests(0.0, 1.2e-3))
        assert interval + interval == 2 * interval  # the instants coincide
        assert ticks[interval] == [True, False]  # kill ran before tick 1
        assert ticks[2 * interval] == [True, True]  # revive before tick 2


# ----------------------------------------------------------------------
# Extension validation happens before any replica is built
# ----------------------------------------------------------------------
class TestExtensionsValidateFirst:
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param(
                dict(num_replicas=2, failures=FailureSpec.single_kill(5, 1e-3)),
                id="out-of-fleet kill",
            ),
            pytest.param(
                dict(
                    num_replicas=2,
                    partition="hash",
                    autoscale=AutoscalePolicy(max_replicas=2),
                ),
                id="autoscale + partition",
            ),
            pytest.param(
                dict(
                    num_replicas=3,
                    autoscale=AutoscalePolicy(min_replicas=1, max_replicas=2),
                ),
                id="initial fleet outside bounds",
            ),
            pytest.param(
                dict(dynamic=DynamicPolicy(repartition_threshold=0.1)),
                id="repartition threshold without partition",
            ),
        ],
    )
    def test_misconfiguration_builds_no_replica(self, pd, monkeypatch, kwargs):
        built = []
        monkeypatch.setattr(
            "repro.serve.cluster.Replica",
            lambda *a, **k: built.append(1),
        )
        with pytest.raises(ServeError):
            ClusterSimulator(pd, device=V100, **kwargs)
        assert not built


# ----------------------------------------------------------------------
# Static sessions never load the dynamic-graph machinery
# ----------------------------------------------------------------------
def test_static_session_never_imports_the_ingest_path():
    script = (
        "import sys\n"
        "from repro.datasets import load_dataset\n"
        "from repro.device import V100\n"
        "from repro.serve import run_cluster_session\n"
        "pd = load_dataset('pd', scale=0.1)\n"
        "_, report = run_cluster_session(pd, device=V100)\n"
        "assert report.completed > 0\n"
        "loaded = [m for m in ('repro.dynamic', 'repro.serve.ingest')\n"
        "          if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# One session per simulator
# ----------------------------------------------------------------------
class TestOneShot:
    def test_second_run_raises_before_recording_anything(self, pd):
        cluster = ClusterSimulator(
            pd,
            device=V100,
            num_replicas=2,
            router="shard",
            partition="hash",
            composer="superbatch",
            policy=ServePolicy(max_batch=8, max_wait=5e-4),
            failures=FailureSpec.single_kill(1, 5e-4),
        )
        requests = cluster.build_workload(
            WorkloadSpec(num_requests=64, arrival_rate=100_000.0, seed=3)
        )
        first = cluster.run(requests)
        assert first.failures == 1
        ledger = [
            (r.sample_ctx.launch_count(), r.io_ctx.launch_count())
            for r in cluster.replicas
        ]
        with pytest.raises(ServeError, match="already served"):
            cluster.run(requests)
        assert ledger == [
            (r.sample_ctx.launch_count(), r.io_ctx.launch_count())
            for r in cluster.replicas
        ]
        # The first report is untouched by the refused call.
        assert first.requests == 64 and len(first.logs) == 64
