"""Distribution-equivalence checking across the optimization grid.

gSampler's contract (Section 4.1) is that fusion, layout selection, and
super-batching change performance, never sampling semantics.  This
module enforces that contract statistically: a program is executed by
the eager oracle and by a compiled sampler under **all 8
OptimizationConfig combinations plus the super-batched path**, per-edge
selection marginals are accumulated over many independent trials, and
each variant's marginal is compared to the oracle's with a two-sample
chi-square test (Bonferroni-corrected across variants).  A KS test over
the per-trial sampled edge-value mass covers the continuous side —
debiasing arithmetic that skews *weights* rather than *which* edges.

The trial seeds derive deterministically from one root seed, so a
failure is reproducible bit-for-bit by rerunning with the printed seed.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Iterator

import numpy as np

from repro.core import new_rng
from repro.core.matrix import Matrix, from_edges
from repro.errors import GSamplerError, TraceError
from repro.sampler import CompiledSampler, OptimizationConfig, compile_sampler
from repro.verify.oracle import EagerOracle, trace_oracle
from repro.verify.stats import TestResult, bonferroni, chi2_homogeneity, ks_2samp

__all__ = [
    "EquivalenceReport",
    "VariantCheck",
    "VerifySpec",
    "builtin_specs",
    "check_distribution_equivalence",
    "check_serving_equivalence",
    "collect_edge_marginals",
    "verification_graph",
    "verify_algorithm",
]

#: Multiplier separating per-variant seed streams; any odd constant
#: larger than plausible trial counts works.
_SEED_STRIDE = 1_000_003


# ---------------------------------------------------------------------------
# Marginal collection
# ---------------------------------------------------------------------------
def collect_edge_marginals(
    run_one: Callable[[np.random.Generator], Matrix | list[Matrix]],
    *,
    trials: int,
    seed: int,
) -> tuple[dict[tuple[int, int], int], np.ndarray]:
    """Accumulate per-edge selection counts over independent trials.

    ``run_one`` draws one sample (or a list of samples, for super-batch
    launches) with the given RNG.  Returns the edge-count table keyed by
    original ``(src, dst)`` ids and the per-sample edge-value sums used
    for the KS check.
    """
    counts: dict[tuple[int, int], int] = {}
    value_sums: list[float] = []
    produced = 0
    trial = 0
    while produced < trials:
        rng = new_rng(seed + trial)
        trial += 1
        result = run_one(rng)
        matrices = result if isinstance(result, list) else [result]
        if not matrices:
            raise GSamplerError(
                f"a verification run yielded no sample; {trials} trials "
                "can never be reached"
            )
        for matrix in matrices:
            rows, cols, values = matrix.to_coo_arrays()
            for r, c in zip(rows.tolist(), cols.tolist()):
                key = (r, c)
                counts[key] = counts.get(key, 0) + 1
            value_sums.append(float(np.asarray(values, dtype=np.float64).sum()))
            produced += 1
            if produced >= trials:
                break
    return counts, np.asarray(value_sums)


def _aligned_counts(
    a: dict[tuple[int, int], int], b: dict[tuple[int, int], int]
) -> tuple[np.ndarray, np.ndarray]:
    keys = sorted(set(a) | set(b))
    return (
        np.asarray([a.get(k, 0) for k in keys], dtype=np.float64),
        np.asarray([b.get(k, 0) for k in keys], dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class VariantCheck:
    """One variant's comparison against the oracle."""

    name: str
    trials: int
    chi2: TestResult
    ks: TestResult
    adjusted_chi2_p: float
    adjusted_ks_p: float
    passed: bool

    def describe(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        return (
            f"{self.name}: chi2={self.chi2.statistic:.2f} "
            f"(dof={self.chi2.dof}, adj p={self.adjusted_chi2_p:.4f}), "
            f"KS D={self.ks.statistic:.3f} (adj p={self.adjusted_ks_p:.4f}) "
            f"[{verdict}]"
        )


@dataclasses.dataclass
class EquivalenceReport:
    """Full verification outcome for one program."""

    program: str
    alpha: float
    trials: int
    seed: int
    num_tests: int
    variants: list[VariantCheck]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.variants)

    def failures(self) -> list[VariantCheck]:
        return [v for v in self.variants if not v.passed]

    def summary(self) -> str:
        lines = [
            f"distribution equivalence for {self.program!r}: "
            f"{'PASS' if self.passed else 'FAIL'} "
            f"(alpha={self.alpha}, trials={self.trials}, seed={self.seed}, "
            f"Bonferroni m={self.num_tests})"
        ]
        lines.extend("  " + v.describe() for v in self.variants)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------
def _sample_matrix(result: object) -> Matrix:
    """The sampled matrix of a program result (first leaf by contract)."""
    value = result[0] if isinstance(result, tuple) else result
    if not isinstance(value, Matrix):
        raise TraceError(
            "verification requires the program's first output to be the "
            f"sampled matrix, got {type(value).__name__}"
        )
    return value


def compare_to_oracle(
    oracle_counts: dict[tuple[int, int], int],
    oracle_sums: np.ndarray,
    variant_counts: dict[tuple[int, int], int],
    variant_sums: np.ndarray,
    *,
    name: str,
    trials: int,
    alpha: float,
    num_tests: int,
    gate_ks: bool = True,
) -> VariantCheck:
    """Score one variant's marginals against the oracle's."""
    a, b = _aligned_counts(oracle_counts, variant_counts)
    chi2 = chi2_homogeneity(a, b)
    # KS is only meaningful when per-trial sums genuinely vary.  Programs
    # whose rescaling pins the sum to a constant (e.g. VR-GCN's
    # control-variate scaling) differ across variants only by
    # fusion-order float rounding, which KS would flag spuriously.
    combined = np.concatenate([oracle_sums, variant_sums])
    scale = max(abs(float(combined.mean())), 1.0)
    if float(combined.std()) <= 1e-5 * scale:
        ks = TestResult(statistic=0.0, p_value=1.0, dof=0)
    else:
        ks = ks_2samp(oracle_sums, variant_sums)
    adj_chi2 = bonferroni(chi2.p_value, num_tests)
    adj_ks = bonferroni(ks.p_value, num_tests)
    passed = adj_chi2 > alpha and (not gate_ks or adj_ks > alpha)
    return VariantCheck(
        name=name,
        trials=trials,
        chi2=chi2,
        ks=ks,
        adjusted_chi2_p=adj_chi2,
        adjusted_ks_p=adj_ks,
        passed=passed,
    )


#: A variant under test: its label, one run of it, and the oracle
#: marginals ``(edge counts, value sums)`` it must match.
_Variant = tuple[
    str,
    Callable[[np.random.Generator], "Matrix | list[Matrix]"],
    tuple[dict[tuple[int, int], int], np.ndarray],
]


def _score(
    variants: list[_Variant], *, name: str, trials: int, alpha: float, seed: int
) -> EquivalenceReport:
    """Collect every variant's marginals and compare each to its oracle."""
    num_tests = len(variants)
    checks: list[VariantCheck] = []
    for index, (label, run_one, (ref_counts, ref_sums)) in enumerate(
        variants, start=1
    ):
        counts, sums = collect_edge_marginals(
            run_one, trials=trials, seed=seed + index * _SEED_STRIDE
        )
        checks.append(
            compare_to_oracle(
                ref_counts,
                ref_sums,
                counts,
                sums,
                name=label,
                trials=trials,
                alpha=alpha,
                num_tests=num_tests,
            )
        )
    return EquivalenceReport(
        program=name,
        alpha=alpha,
        trials=trials,
        seed=seed,
        num_tests=num_tests,
        variants=checks,
    )


def check_distribution_equivalence(
    fn: Callable,
    graph: Matrix,
    frontiers: np.ndarray,
    *,
    constants: dict | None = None,
    tensors: dict[str, np.ndarray] | None = None,
    trials: int = 200,
    alpha: float = 0.01,
    seed: int = 0,
    superbatch_batches: int | None = 3,
    name: str = "program",
    debug: bool = True,
) -> EquivalenceReport:
    """Verify ``fn`` is distribution-equivalent across the whole grid.

    Runs the eager oracle plus one compiled variant per
    ``OptimizationConfig`` combination (8) and, when the program follows
    the ``(matrix, next_frontiers)`` contract and ``superbatch_batches``
    is set, the super-batched execution path over that many *distinct*
    frontier sets, compared with the oracle run on the same sets.  Every compile happens
    under ``debug=True`` so the per-pass invariant checker also vets the
    pipeline.  Each variant's chi-square/KS p-values are
    Bonferroni-corrected across all variants; the report passes only if
    every adjusted p-value exceeds ``alpha``.
    """
    if trials < 1:
        raise GSamplerError(f"verification needs at least 1 trial, got {trials}")
    if superbatch_batches is not None and superbatch_batches < 0:
        raise GSamplerError(
            "super-batch verification needs a non-negative batch count "
            f"(0 disables it), got {superbatch_batches}"
        )
    if not 0.0 < alpha < 1.0:
        raise GSamplerError(f"alpha must be in (0, 1), got {alpha}")
    frontiers = np.asarray(frontiers)
    oracle = trace_oracle(
        fn, graph, frontiers, constants=constants, tensors=tensors
    )

    def oracle_run(rng: np.random.Generator) -> Matrix:
        return _sample_matrix(oracle.run(frontiers, tensors=tensors, rng=rng))

    reference = collect_edge_marginals(oracle_run, trials=trials, seed=seed)

    variants: list[_Variant] = []
    for config in OptimizationConfig.all_combinations():
        sampler = compile_sampler(
            fn,
            graph,
            frontiers,
            constants=constants,
            tensors=tensors,
            config=config,
            debug=debug,
        )

        def config_run(
            rng: np.random.Generator, _sampler: CompiledSampler = sampler
        ) -> Matrix:
            return _sample_matrix(
                _sampler.run(frontiers, tensors=tensors, rng=rng)
            )

        variants.append((config.label(), config_run, reference))

    if superbatch_batches:
        sb_sampler = compile_sampler(
            fn,
            graph,
            frontiers,
            constants=constants,
            tensors=tensors,
            debug=debug,
        )
        if sb_sampler.structure == ("leaf", "leaf"):
            # Distinct frontier sets (``frontiers`` shifted by its own
            # length per slot), pooled per slot and held to the oracle run
            # on the same sets: a batch that reads another batch's state
            # (PR 18's LADIES debias) is invisible when all slots are equal.
            batches = [
                (frontiers + slot * len(frontiers)) % graph.shape[1]
                for slot in range(superbatch_batches)
            ]

            def superbatch_oracle(rng: np.random.Generator) -> list[Matrix]:
                return [
                    _sample_matrix(oracle.run(batch, tensors=tensors, rng=rng))
                    for batch in batches
                ]

            def superbatch_run(rng: np.random.Generator) -> list[Matrix]:
                results = sb_sampler.run_superbatch(
                    batches, tensors=tensors, rng=rng
                )
                return [matrix for matrix, _ in results]

            variants.append(
                (
                    f"superbatch(x{superbatch_batches})",
                    superbatch_run,
                    collect_edge_marginals(
                        superbatch_oracle, trials=trials, seed=seed
                    ),
                )
            )

    return _score(
        variants, name=name, trials=trials, alpha=alpha, seed=seed
    )


def check_serving_equivalence(
    fn: Callable,
    graph: Matrix,
    seed_sets: list[np.ndarray],
    *,
    constants: dict | None = None,
    tensors: dict[str, np.ndarray] | None = None,
    trials: int = 120,
    alpha: float = 0.01,
    seed: int = 0,
    name: str = "program",
    debug: bool = True,
) -> EquivalenceReport:
    """Verify super-batch *serving* preserves per-request distributions.

    The serving super-batch composer fuses the pending requests'
    heterogeneous seed sets into one ``run_superbatch`` launch sequence
    and splits the results back per request.  This trial holds that path
    to the same statistical contract as training-time super-batching:
    the oracle samples each request's seed set **individually** (the
    per-request serving path), and for every ``OptimizationConfig``
    combination the fused window executes all of ``seed_sets`` in one
    super-batched run.  Both sides emit one matrix per request in the
    same request order, so the pooled per-edge marginals are directly
    comparable; any cross-request interference inside the fused window
    (row-space collisions, RNG coupling, split mis-slicing) shifts the
    marginals and fails the chi-square/KS comparison.
    """
    if trials < 1:
        raise GSamplerError(f"verification needs at least 1 trial, got {trials}")
    if not 0.0 < alpha < 1.0:
        raise GSamplerError(f"alpha must be in (0, 1), got {alpha}")
    if not seed_sets:
        raise GSamplerError("serving verification needs at least one request")
    seed_sets = [np.asarray(s) for s in seed_sets]
    oracle = trace_oracle(
        fn, graph, seed_sets[0], constants=constants, tensors=tensors
    )

    def oracle_run(rng: np.random.Generator) -> list[Matrix]:
        return [
            _sample_matrix(oracle.run(seeds, tensors=tensors, rng=rng))
            for seeds in seed_sets
        ]

    reference = collect_edge_marginals(oracle_run, trials=trials, seed=seed)

    variants: list[_Variant] = []
    for config in OptimizationConfig.all_combinations():
        sampler = compile_sampler(
            fn,
            graph,
            seed_sets[0],
            constants=constants,
            tensors=tensors,
            config=config,
            debug=debug,
        )
        if sampler.structure != ("leaf", "leaf"):
            raise TraceError(
                "serving verification requires the (matrix, "
                "next_frontiers) one-layer contract"
            )

        def serve_run(
            rng: np.random.Generator, _sampler: CompiledSampler = sampler
        ) -> list[Matrix]:
            results = _sampler.run_superbatch(
                seed_sets, tensors=tensors, rng=rng
            )
            return [matrix for matrix, _ in results]

        variants.append((f"serve-{config.label()}", serve_run, reference))

    return _score(
        variants, name=name, trials=trials, alpha=alpha, seed=seed
    )


# ---------------------------------------------------------------------------
# Per-algorithm verification specs
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class VerifySpec:
    """How to verify one registered algorithm's layer program."""

    algorithm: str
    layer_fn: Callable
    constants: dict
    #: Builds the per-run tensors dict from the graph (model-driven
    #: algorithms); None for tensor-free programs.
    tensors_fn: Callable[[Matrix], dict[str, np.ndarray]] | None = None
    #: Whether the super-batched path participates in verification.
    superbatch: bool = True


def _asgcn_tensors(graph: Matrix) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    features = rng.random((graph.shape[0], 8)).astype(np.float32)
    w_att = (rng.standard_normal(8) * 0.1).astype(np.float32)
    return {"features": features, "w_att": w_att}


def _pass_tensors(graph: Matrix) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    features = rng.random((graph.shape[0], 8)).astype(np.float32)
    W1, W2 = (rng.standard_normal((2, 8, 4)) * 0.3).astype(np.float32)
    W3 = rng.standard_normal(3).astype(np.float32)
    return {"features": features, "W1": W1, "W2": W2, "W3": W3}


#: What is the verifier's own, per compiled algorithm: a fan-out small
#: enough for the 96-node verification graph and, for the model-driven
#: ones, seeded 8-dim stand-in tensors.  Everything else about a spec is
#: read from the registered algorithm.
_VERIFY_SIZES: dict[str, tuple[int, Callable | None]] = {
    "graphsage": (4, None),
    "labor": (4, None),
    "ladies": (10, None),
    "fastgcn": (10, None),
    "asgcn": (10, _asgcn_tensors),
    "pass": (4, _pass_tensors),
    "vrgcn": (3, None),
    # ShaDow's expansion stage is the GraphSAGE layer program; the
    # induction step is deterministic and covered structurally.
    "shadow": (6, None),
}


def builtin_specs() -> dict[str, VerifySpec]:
    """Verification specs: one per registered algorithm with a traced
    ECSF layer (a compiled algorithm without verification sizes is an
    error, not an omission).

    Walk algorithms (deepwalk, node2vec, ...) drive kernels directly
    rather than compiled IR, so the pass pipeline cannot skew them; they
    have no ``layer`` and are covered by their own structural tests.
    """
    from repro.algorithms import available_algorithms, make_algorithm

    specs = {}
    for name in available_algorithms():
        algo = make_algorithm(name)
        if algo.layer is None:
            continue
        if name not in _VERIFY_SIZES:
            raise GSamplerError(
                f"compiled algorithm {name!r} has no verification sizes; "
                "add a row to repro.verify.equivalence._VERIFY_SIZES"
            )
        fanout, tensors_fn = _VERIFY_SIZES[name]
        specs[name] = VerifySpec(
            name,
            algo.layer,
            {"K": fanout},
            tensors_fn=tensors_fn,
            superbatch=algo.superbatch,
        )
    return specs


def verification_graph(
    num_nodes: int = 96, avg_degree: int = 8, seed: int = 5
) -> Matrix:
    """A small deterministic weighted graph for verification runs.

    Every node receives at least one in-edge (frontiers are never
    isolated) and edge weights span two orders of magnitude so that
    bias-dropping bugs shift marginals detectably.
    """
    rng = np.random.default_rng(seed)
    extra = num_nodes * max(avg_degree - 1, 1)
    src = np.concatenate(
        [rng.integers(0, num_nodes, num_nodes), rng.integers(0, num_nodes, extra)]
    )
    dst = np.concatenate([np.arange(num_nodes), rng.integers(0, num_nodes, extra)])
    keys = np.unique(src * num_nodes + dst)
    weights = (rng.random(len(keys)) ** 2 + 0.01).astype(np.float32)
    return from_edges(keys // num_nodes, keys % num_nodes, num_nodes, weights=weights)


def verify_algorithm(
    algorithm: str,
    graph: Matrix | None = None,
    frontiers: np.ndarray | None = None,
    *,
    trials: int = 200,
    alpha: float = 0.01,
    seed: int = 0,
    superbatch_batches: int | None = 3,
) -> EquivalenceReport:
    """Run the full equivalence check for one registered algorithm."""
    specs = builtin_specs()
    if algorithm not in specs:
        raise GSamplerError(
            f"no verification spec for {algorithm!r}; verifiable "
            f"algorithms: {sorted(specs)}"
        )
    spec = specs[algorithm]
    if graph is None:
        graph = verification_graph()
    if frontiers is None:
        frontiers = np.arange(min(12, graph.shape[1]))
    tensors = spec.tensors_fn(graph) if spec.tensors_fn is not None else None
    return check_distribution_equivalence(
        spec.layer_fn,
        graph,
        frontiers,
        constants=spec.constants,
        tensors=tensors,
        trials=trials,
        alpha=alpha,
        seed=seed,
        superbatch_batches=superbatch_batches if spec.superbatch else None,
        name=algorithm,
    )
