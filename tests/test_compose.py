"""Batch-composition policies: properties, fuzzing, and the fire-time fix.

The composer contract under test (see ``repro.serve.compose``):

* ``plan`` is pure — it never mutates the pending queue and equal inputs
  produce equal plans;
* draining a queue through repeated plan/pop cycles serves every
  admitted request in **exactly one** batch, for every composer;
* fire times are causality-clamped: never before the sampling queue is
  free, never before the batch's own youngest member arrived, and a
  partial FIFO batch waits out ``max_wait`` from its oldest member;
* no composer exceeds its size invariants (``max_batch`` members for
  fifo/binned, one seed-count bin per binned batch);
* per-request super-batch outputs equal a direct single-request run
  (checked under exhaustive fanouts, where sampling is deterministic
  regardless of the RNG stream);
* the latent fire-time bug is fixed: the legacy formula indexed the
  *global* queue position ``pending[max_batch - 1]``, which is the wrong
  request entirely once composition is non-prefix (heterogeneous-size
  streams under the binned composer).

The fuzz loops run >= 200 seeded random request streams per composer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.device import V100
from repro.errors import ServeError
from repro.serve import (
    COMPOSER_POLICIES,
    ClusterSimulator,
    FifoComposer,
    Replica,
    Request,
    ServePolicy,
    SizeBinnedComposer,
    SuperbatchComposer,
    WorkloadSpec,
    clamp_fire,
    make_composer,
)
from repro.serve.compose import seed_bin


@pytest.fixture(scope="module")
def pd():
    return load_dataset("pd", scale=0.25)


def _stream(rng, n, *, max_seeds=40, num_nodes=400):
    """A seeded random request stream with heterogeneous seed counts."""
    arrivals = np.sort(rng.random(n) * 1e-3)
    return [
        Request(
            rid=i,
            arrival=float(arrivals[i]),
            seeds=rng.choice(
                num_nodes, int(rng.integers(1, max_seeds + 1)), replace=False
            ),
        )
        for i in range(n)
    ]


CASES_PER_COMPOSER = 70  # x3 composers >= 200 fuzz cases


# ----------------------------------------------------------------------
# Property / fuzz: the composer contract over random streams
# ----------------------------------------------------------------------
class TestComposerContract:
    @pytest.mark.parametrize("name", COMPOSER_POLICIES)
    def test_fuzz_exactly_once_causality_and_size_caps(self, name):
        for case in range(CASES_PER_COMPOSER):
            rng = np.random.default_rng(1000 * case + hash(name) % 1000)
            composer = make_composer(name)
            policy = ServePolicy(
                max_batch=int(rng.integers(1, 11)),
                max_wait=float(rng.random() * 1e-3),
                queue_capacity=None,
            )
            pending = _stream(rng, int(rng.integers(1, 40)))
            admitted = sorted(r.rid for r in pending)
            queue_ready = 0.0
            served: list[int] = []
            while pending:
                before = list(pending)
                plan = composer.plan(pending, policy, queue_ready)
                assert plan is not None, f"case {case}: no progress"
                # Purity: no mutation, and equal inputs -> equal plan.
                assert pending == before, f"case {case}: plan mutated queue"
                again = composer.plan(pending, policy, queue_ready)
                assert plan == again, f"case {case}: plan not deterministic"
                # Indices: strictly increasing, in range, unique.
                assert list(plan.indices) == sorted(set(plan.indices))
                assert all(0 <= i < len(pending) for i in plan.indices)
                members = [pending[i] for i in plan.indices]
                # Causality clamp: never before the device is free, never
                # before the batch's own youngest member arrived.
                assert plan.fire >= queue_ready - 1e-15
                assert plan.fire >= max(m.arrival for m in members) - 1e-15
                # Size invariants.
                if name in ("fifo", "binned"):
                    assert len(members) <= policy.max_batch
                    assert not plan.superbatch
                if name == "binned":
                    bins = {seed_bin(m.seeds.size) for m in members}
                    assert len(bins) == 1, f"case {case}: mixed bins {bins}"
                if name == "superbatch":
                    assert plan.superbatch
                served.extend(m.rid for m in members)
                for i in sorted(plan.indices, reverse=True):
                    del pending[i]
                queue_ready = plan.fire + float(rng.random() * 1e-4)
            # Exactly once: every admitted request in exactly one batch.
            assert sorted(served) == admitted, f"case {case}: lost/dup requests"
            assert len(served) == len(admitted)

    @pytest.mark.parametrize("name", COMPOSER_POLICIES)
    def test_empty_queue_plans_nothing(self, name):
        composer = make_composer(name)
        assert composer.plan([], ServePolicy(), 0.0) is None

    def test_fifo_partial_batch_waits_max_wait(self):
        composer = FifoComposer()
        policy = ServePolicy(max_batch=8, max_wait=2e-3)
        pending = _stream(np.random.default_rng(0), 3)
        plan = composer.plan(pending, policy, 0.0)
        assert plan.fire == pytest.approx(pending[0].arrival + policy.max_wait)

    def test_fifo_full_batch_fires_on_youngest_member(self):
        composer = FifoComposer()
        policy = ServePolicy(max_batch=4, max_wait=2e-3)
        pending = _stream(np.random.default_rng(1), 6)
        plan = composer.plan(pending, policy, 0.0)
        assert plan.indices == (0, 1, 2, 3)
        assert plan.fire == pytest.approx(pending[3].arrival)

    def test_clamp_fire_rejects_empty(self):
        with pytest.raises(ServeError):
            clamp_fire([], 0.0, full=True, policy=ServePolicy())


# ----------------------------------------------------------------------
# The latent fire-time bug (regression)
# ----------------------------------------------------------------------
class TestFireTimeRegression:
    def test_binned_fire_time_uses_members_not_global_position(self):
        """The legacy formula read ``pending[max_batch - 1].arrival`` — a
        *global* queue position.  With the binned composer the batch is
        positions 0 and 2 here, so the correct full-batch fire time is
        member 2's arrival; the old global indexing would have charged
        position 1's (a different bin's request that is not in the
        batch at all)."""
        composer = SizeBinnedComposer()
        policy = ServePolicy(max_batch=2, max_wait=5e-3)
        mk = lambda rid, t, n: Request(  # noqa: E731
            rid=rid, arrival=t, seeds=np.arange(n)
        )
        pending = [mk(0, 1e-4, 2), mk(1, 2e-4, 30), mk(2, 4e-4, 3)]
        plan = composer.plan(pending, policy, 0.0)
        assert plan.indices == (0, 2)  # the size-2/3 bin is full
        assert plan.fire == pytest.approx(4e-4)  # member 2, not pending[1]
        assert plan.fire != pytest.approx(2e-4)

    @pytest.mark.parametrize("composer", ["binned", "superbatch"])
    def test_heterogeneous_stream_end_to_end_causality(self, pd, composer):
        """max_seeds_per_request streams through non-prefix composers:
        every completed request starts at or after its arrival and at or
        after every batch-mate's arrival (no causality violation, no
        index errors)."""
        sim = ClusterSimulator(
            pd,
            device=V100,
            policy=ServePolicy(max_batch=4, max_wait=5e-4),
            cache_ratio=0.0,
            seed=0,
            composer=composer,
        )
        spec = WorkloadSpec(
            num_requests=96,
            arrival_rate=150_000.0,
            seeds_per_request=2,
            max_seeds_per_request=32,
            seed=3,
        )
        report = sim.run(sim.build_workload(spec))
        assert report.completed == 96
        by_batch: dict[int, list] = {}
        for log in report.logs:
            assert log.start >= log.arrival - 1e-15
            by_batch.setdefault(log.batch_id, []).append(log)
        for logs in by_batch.values():
            fire = logs[0].start
            assert all(log.start == fire for log in logs)
            assert fire >= max(log.arrival for log in logs) - 1e-15


# ----------------------------------------------------------------------
# Per-request super-batch outputs == direct single-request runs
# ----------------------------------------------------------------------
class TestSuperbatchEquality:
    def test_unflattened_outputs_match_direct_runs(self, pd):
        """Under exhaustive fanouts (K >= every degree) sampling keeps
        all neighbors, so results are RNG-independent — the fused
        super-batch's per-request samples must then exactly equal
        direct single-request runs, layer by layer."""
        from repro.algorithms import make_algorithm

        pipe = make_algorithm("graphsage", fanouts=(512, 512)).build(
            pd.graph, pd.train_ids[:64]
        )
        rng = np.random.default_rng(7)
        seed_batches = [
            rng.choice(pd.num_nodes, n, replace=False) for n in (4, 9, 1, 6)
        ]
        fused = pipe.sample_superbatch(
            seed_batches, rng=np.random.default_rng(1)
        )
        assert len(fused) == len(seed_batches)
        for seeds, sample in zip(seed_batches, fused):
            direct = pipe.sample_batch(seeds, rng=np.random.default_rng(2))
            assert len(sample.layers) == len(direct.layers)
            for got, want in zip(sample.layers, direct.layers):
                np.testing.assert_array_equal(got.input_nodes, want.input_nodes)
                np.testing.assert_array_equal(
                    np.sort(got.output_nodes), np.sort(want.output_nodes)
                )
                g_rows, g_cols, _ = got.matrix.to_coo_arrays()
                w_rows, w_cols, _ = want.matrix.to_coo_arrays()
                assert set(zip(g_rows.tolist(), g_cols.tolist())) == set(
                    zip(w_rows.tolist(), w_cols.tolist())
                )

    def test_empty_superbatch_window_is_noop(self, pd):
        from repro.algorithms import make_algorithm

        pipe = make_algorithm("graphsage", fanouts=(4, 4)).build(
            pd.graph, pd.train_ids[:64]
        )
        assert pipe.samplers[0].run_superbatch([]) == []


# ----------------------------------------------------------------------
# Construction / validation
# ----------------------------------------------------------------------
class TestMakeComposer:
    def test_names_round_trip(self):
        for name in COMPOSER_POLICIES:
            assert make_composer(name).name == name

    def test_instances_pass_through(self):
        composer = SuperbatchComposer()
        assert make_composer(composer) is composer

    def test_unknown_name_rejected(self):
        with pytest.raises(ServeError):
            make_composer("lifo")

    def test_window_only_valid_for_superbatch(self):
        """Only the super-batch composer fuses a window, and its window is
        the whole pending queue: no cap below the admission bound."""
        pending = _stream(np.random.default_rng(2), 20)
        policy = ServePolicy(max_batch=4, max_wait=2e-3, queue_capacity=None)
        plans = {
            name: make_composer(name).plan(pending, policy, 0.0)
            for name in COMPOSER_POLICIES
        }
        assert plans["superbatch"].superbatch
        assert plans["superbatch"].indices == tuple(range(20))
        for name in ("fifo", "binned"):
            assert not plans[name].superbatch
            assert len(plans[name].indices) <= policy.max_batch

    def test_superbatch_requires_capable_pipeline(self, pd):
        class _NoSuperbatch:
            supports_superbatch = False

        with pytest.raises(ServeError):
            Replica(
                pd,
                device=V100,
                composer="superbatch",
                pipelines=[_NoSuperbatch(), _NoSuperbatch()],
            )

    def test_seed_bin_boundaries(self):
        assert seed_bin(1) == 1
        assert seed_bin(2) == seed_bin(3) == 2
        assert seed_bin(4) == seed_bin(7) == 3
        assert seed_bin(8) == 4
