"""End-to-end verification tests: oracle, equivalence sweep, detection.

The heart of the ``repro.verify`` subsystem's own test suite:

* the eager oracle matches an unoptimized compiled run *exactly* under a
  shared RNG stream (differential layer);
* every registered verifiable algorithm is distribution-equivalent
  across the full 8-config optimization grid plus the super-batched
  path (statistical layer, ``slow_statistical``);
* a deliberately broken pass is caught by the statistical checker when
  it slips past the invariant checker, and by the invariant checker
  when it leaves structural evidence — the two layers close each
  other's blind spots.

Failing statistical tests print the root seed; rerun with
``pytest --repro-seed <seed>`` to reproduce exactly.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from repro import cli
from repro.core import new_rng
from repro.errors import GSamplerError, InvariantError, TraceError
from repro.ir.passes import PassManager
from repro.ir.passes.base import Pass
from repro.sampler import OptimizationConfig, compile_sampler
from repro.verify import (
    builtin_specs,
    check_invariants,
    check_linkpred_equivalence,
    trace_oracle,
    verify_algorithm,
)
from repro.verify.equivalence import (
    _sample_matrix,
    collect_edge_marginals,
    compare_to_oracle,
)

ALGORITHMS = sorted(builtin_specs())


def skewed_layer(A, frontiers, K):
    """Sharply weighted sampling whose bias differs from the edge values:
    dropping the probs operand changes the distribution detectably."""
    sub_A = A[:, frontiers]
    probs = sub_A ** 4
    sample_A = sub_A.individual_sample(K, probs)
    return sample_A, sample_A.row()


class TestOptimizationGrid:
    def test_all_combinations_cover_grid(self):
        combos = OptimizationConfig.all_combinations()
        assert len(combos) == 8
        assert len(set(combos)) == 8
        assert OptimizationConfig.plain() in combos
        assert OptimizationConfig() in combos

    def test_labels_unique(self):
        labels = [c.label() for c in OptimizationConfig.all_combinations()]
        assert len(set(labels)) == 8
        assert OptimizationConfig.plain().label() == "C0D0B0"
        assert OptimizationConfig().label() == "C1D1B1"


def _canonical_coo(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, value)`` sorted by (src, dst): storage-order-free."""
    rows, cols, values = matrix.to_coo_arrays()
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], np.asarray(values, np.float64)[order]


class TestExactDifferential:
    """Same RNG stream => the oracle and an unoptimized compiled run
    must agree edge-for-edge, not just in distribution."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_oracle_matches_plain_compile(self, algorithm, verify_graph):
        spec = builtin_specs()[algorithm]
        frontiers = np.arange(12)
        tensors = (
            spec.tensors_fn(verify_graph) if spec.tensors_fn else None
        )
        oracle = trace_oracle(
            spec.layer_fn,
            verify_graph,
            frontiers,
            constants=spec.constants,
            tensors=tensors,
        )
        sampler = compile_sampler(
            spec.layer_fn,
            verify_graph,
            frontiers,
            constants=spec.constants,
            tensors=tensors,
            config=OptimizationConfig.plain(),
            debug=True,
        )
        for seed in (0, 1, 2):
            m_oracle = _sample_matrix(
                oracle.run(frontiers, tensors=tensors, rng=new_rng(seed))
            )
            m_compiled = _sample_matrix(
                sampler.run(frontiers, tensors=tensors, rng=new_rng(seed))
            )
            ro, co, vo = _canonical_coo(m_oracle)
            rc, cc, vc = _canonical_coo(m_compiled)
            np.testing.assert_array_equal(ro, rc)
            np.testing.assert_array_equal(co, cc)
            np.testing.assert_allclose(vo, vc, rtol=1e-5, atol=1e-6)

    def test_oracle_sddmm_matches_kernel(self, verify_graph):
        """SDDMM over 2-D features (the only shape the kernel accepts):
        the oracle's contraction must agree on every edge."""

        def attention(A, frontiers, features):
            sub_A = A[:, frontiers]
            return sub_A.sddmm(features, features[frontiers])

        frontiers = np.arange(12)
        features = np.random.default_rng(3).random((verify_graph.shape[0], 5))
        tensors = {"features": features.astype(np.float32)}
        oracle = trace_oracle(attention, verify_graph, frontiers, tensors=tensors)
        sampler = compile_sampler(
            attention, verify_graph, frontiers, tensors=tensors,
            config=OptimizationConfig.plain(), debug=True,
        )
        ro, co, vo = _canonical_coo(oracle.run(frontiers, tensors=tensors))
        rc, cc, vc = _canonical_coo(sampler.run(frontiers, tensors=tensors))
        assert len(vo) > 0
        np.testing.assert_array_equal(ro, rc)
        np.testing.assert_array_equal(co, cc)
        np.testing.assert_allclose(vo, vc, rtol=1e-5, atol=1e-6)

    def test_oracle_rejects_fused_ops(self, verify_graph):
        spec = builtin_specs()["graphsage"]
        frontiers = np.arange(12)
        sampler = compile_sampler(
            spec.layer_fn, verify_graph, frontiers, constants=spec.constants
        )
        from repro.verify.oracle import EagerOracle

        fused = EagerOracle(sampler.ir, verify_graph, sampler.structure)
        with pytest.raises(TraceError, match="cannot execute"):
            fused.run(frontiers)


@pytest.mark.slow_statistical
class TestDistributionEquivalence:
    """Acceptance criterion: chi-square equivalence (Bonferroni-adjusted
    p > alpha) between the oracle and all 8 configs plus super-batch."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_algorithm_equivalent_across_grid(
        self, algorithm, repro_seed, verify_trials
    ):
        report = verify_algorithm(
            algorithm, trials=verify_trials, alpha=0.01, seed=repro_seed
        )
        # 8 configs + the super-batch path, where the algorithm has one.
        superbatch = builtin_specs()[algorithm].superbatch
        assert report.num_tests == (9 if superbatch else 8)
        assert report.passed, (
            f"reproduce with: pytest --repro-seed {repro_seed}\n"
            + report.summary()
        )


@pytest.mark.slow_statistical
class TestSuperbatchSeesDistinctBatches:
    """The super-batch variant runs distinct frontier sets, so a batch
    that reads another batch's state fails ``verify``.  The defect
    re-introduced here is the one PR 18 fixed: every batch but the first
    debiased with batch 0's probabilities.  While the variant fed one set
    to every slot it passed ``verify ladies`` for seventeen PRs."""

    @staticmethod
    def _fold_to_batch_zero(monkeypatch, graph_rows):
        from repro.ir.interpreter import Interpreter

        def t_index(self, node, args, inputs, rng):
            base, idx = (np.asarray(x) for x in args)
            if self._segmenting:
                idx = idx % graph_rows
            return base[idx]

        monkeypatch.setattr(Interpreter, "_op_t_index", t_index)

    def test_verify_ladies_fails_when_batches_share_probabilities(
        self, verify_graph, repro_seed, monkeypatch
    ):
        intact = verify_algorithm("ladies", trials=80, seed=repro_seed)
        assert intact.passed, intact.summary()
        self._fold_to_batch_zero(monkeypatch, verify_graph.shape[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            broken = verify_algorithm("ladies", trials=80, seed=repro_seed)
        assert [v.name for v in broken.failures()] == ["superbatch(x3)"]

    def test_serving_check_agrees(self, verify_graph, repro_seed, monkeypatch):
        from repro.algorithms import ladies_layer
        from repro.verify import check_serving_equivalence

        windows = [np.arange(12) + 12 * slot for slot in range(3)]
        common = dict(constants={"K": 10}, trials=80, seed=repro_seed)
        intact = check_serving_equivalence(
            ladies_layer, verify_graph, windows, **common
        )
        assert intact.passed, intact.summary()
        self._fold_to_batch_zero(monkeypatch, verify_graph.shape[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            broken = check_serving_equivalence(
                ladies_layer, verify_graph, windows, **common
            )
        assert len(broken.failures()) == len(broken.variants) == 8


@pytest.mark.slow_statistical
class TestBrokenPassDetection:
    """A probs-dropping pass must not survive either verification layer."""

    @staticmethod
    def _drop_probs(ir, *, clear_flag: bool) -> None:
        for node in ir.nodes():
            if node.op == "individual_sample" and node.attrs.get("has_probs"):
                node.inputs = node.inputs[:1]
                if clear_flag:
                    node.attrs["has_probs"] = False

    def test_statistical_checker_catches_silent_drop(
        self, verify_graph, repro_seed, verify_trials
    ):
        # The evil pass covers its tracks (clears has_probs), so the IR
        # is structurally spotless -- only statistics can see the skew.
        frontiers = np.arange(12)
        constants = {"K": 2}
        oracle = trace_oracle(
            skewed_layer, verify_graph, frontiers, constants=constants
        )
        oracle_counts, oracle_sums = collect_edge_marginals(
            lambda rng: _sample_matrix(oracle.run(frontiers, rng=rng)),
            trials=verify_trials,
            seed=repro_seed,
        )
        broken = compile_sampler(
            skewed_layer,
            verify_graph,
            frontiers,
            constants=constants,
            config=OptimizationConfig.plain(),
        )
        self._drop_probs(broken.ir, clear_flag=True)
        check_invariants(broken.ir)  # structurally spotless indeed
        broken_counts, broken_sums = collect_edge_marginals(
            lambda rng: _sample_matrix(broken.run(frontiers, rng=rng)),
            trials=verify_trials,
            seed=repro_seed + 1,
        )
        verdict = compare_to_oracle(
            oracle_counts,
            oracle_sums,
            broken_counts,
            broken_sums,
            name="probs-dropped",
            trials=verify_trials,
            alpha=0.01,
            num_tests=9,
        )
        assert not verdict.passed, (
            f"reproduce with: pytest --repro-seed {repro_seed}\n"
            "probs-dropping mutation was NOT detected statistically: "
            + verdict.describe()
        )
        assert verdict.adjusted_chi2_p < 1e-6  # decisive, not marginal

    def test_intact_sampler_passes_same_gauntlet(
        self, verify_graph, repro_seed, verify_trials
    ):
        # Control experiment: the identical pipeline minus the mutation
        # must be accepted, or the detection above proves nothing.
        frontiers = np.arange(12)
        constants = {"K": 2}
        oracle = trace_oracle(
            skewed_layer, verify_graph, frontiers, constants=constants
        )
        oracle_counts, oracle_sums = collect_edge_marginals(
            lambda rng: _sample_matrix(oracle.run(frontiers, rng=rng)),
            trials=verify_trials,
            seed=repro_seed,
        )
        intact = compile_sampler(
            skewed_layer,
            verify_graph,
            frontiers,
            constants=constants,
            config=OptimizationConfig.plain(),
        )
        intact_counts, intact_sums = collect_edge_marginals(
            lambda rng: _sample_matrix(intact.run(frontiers, rng=rng)),
            trials=verify_trials,
            seed=repro_seed + 2,
        )
        verdict = compare_to_oracle(
            oracle_counts,
            oracle_sums,
            intact_counts,
            intact_sums,
            name="intact",
            trials=verify_trials,
            alpha=0.01,
            num_tests=9,
        )
        assert verdict.passed, (
            f"reproduce with: pytest --repro-seed {repro_seed}\n"
            + verdict.describe()
        )

    def test_invariant_checker_catches_sloppy_drop(self, verify_graph):
        # The same mutation without covering its tracks (has_probs still
        # True) is caught structurally, at the offending pass, by
        # PassManager(debug=True) -- before a single sample is drawn.
        frontiers = np.arange(12)
        from repro.ir.trace import trace

        ir, _ = trace(
            skewed_layer, verify_graph, frontiers, constants={"K": 2}
        )
        outer = self

        class SloppyProbsDrop(Pass):
            name = "sloppy_probs_drop"

            def run(self, ir):
                outer._drop_probs(ir, clear_flag=False)
                return True

        with pytest.raises(InvariantError, match=r"\[sloppy_probs_drop\]"):
            PassManager([SloppyProbsDrop()], debug=True).run(ir)


class TestVerifyAlgorithmApi:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(GSamplerError, match="no verification spec"):
            verify_algorithm("pagerank-from-the-future", trials=5)

    def test_report_shape(self, repro_seed):
        report = verify_algorithm(
            "graphsage", trials=20, seed=repro_seed, superbatch_batches=None
        )
        assert report.num_tests == 8  # superbatch variant disabled
        assert [v.name for v in report.variants] == [
            c.label() for c in OptimizationConfig.all_combinations()
        ]
        assert report.failures() == [
            v for v in report.variants if not v.passed
        ]
        assert "graphsage" in report.summary()

    def test_linkpred_report_names_the_broken_half(self):
        check = check_linkpred_equivalence(trials=40)
        assert check.describe() == (
            "linkpred: compaction ok over 48 pairs, negatives clean/det, "
            "marginals 9/9 variants [ok]"
        )
        broken = dataclasses.replace(
            check, compaction_ok=False, negatives_deterministic=False
        )
        assert broken.describe() == (
            "linkpred: compaction BROKEN over 48 pairs, negatives clean/NONDET, "
            "marginals 9/9 variants [FAIL]"
        )


class TestVerifyCli:
    def test_verify_subcommand_passes(self, capsys):
        assert cli.main(["verify", "graphsage", "--trials", "25"]) == 0
        out = capsys.readouterr().out
        assert "C1D1B1" in out
        assert "superbatch" in out
        assert "verification PASSED" in out

    def test_verify_subcommand_no_superbatch(self, capsys):
        code = cli.main(
            ["verify", "vrgcn", "--trials", "25", "--superbatch-batches", "0"]
        )
        assert code == 0
        assert "superbatch" not in capsys.readouterr().out

    def test_negative_superbatch_batches_exits_2(self):
        """``range(-1)`` built zero batches and the marginal collector span
        forever waiting for a sample; run out of process so a relapse is a
        timeout, not a hung suite."""
        done = subprocess.run(
            [sys.executable, "-m", "repro", "verify", "graphsage",
             "--trials", "5", "--superbatch-batches", "-1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2, done.stderr[-2000:]
        assert "super-batch batches must be >= 0" in done.stderr

    def test_a_run_that_yields_no_sample_raises(self):
        with pytest.raises(GSamplerError, match="yielded no sample"):
            collect_edge_marginals(lambda rng: [], trials=3, seed=0)

    @pytest.mark.parametrize(
        "target, labels",
        [
            ("dynamic", ["compact-bit-identity", "snapshot-vs-rebuilt"]),
            ("linkpred", ["pair-contract", "C0D0B0", "C1D1B1", "superbatch(x3)"]),
        ],
    )
    def test_verify_serving_targets(self, capsys, target, labels):
        """``dynamic`` / ``linkpred`` print only their own rows: a contract
        row of dashes first, then one row per statistical check."""
        assert cli.main(["verify", target, "--trials", "25"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "verification PASSED"
        rows = [line.split() for line in lines[3:-1]]
        assert {row[0] for row in rows} == {target}
        assert rows[0][1:] == [labels[0], "-", "-", "-", "-", "-", "ok"]
        assert [row[1] for row in rows if row[1] in labels] == labels
        assert all(len(row) == 8 and row[-1] == "ok" for row in rows)
