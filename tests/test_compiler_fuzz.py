"""Compiler fuzzing: optimized execution == eager execution, always.

Generates random straight-line sampling programs over the matrix API
(random chains of compute ops, a random select step, random finalize),
compiles each both with all optimizations and with none, runs them with
identical RNG streams, and requires identical samples.  This is the
strongest guarantee the pass pipeline can offer: no fusion, hoisting,
layout choice, or CSE may change program semantics.  Every compile runs
under ``debug=True``, so each generated program also exercises the IR
invariant checker after every pass.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import new_rng
from repro.core.matrix import from_edges
from repro.device import ExecutionContext, V100
from repro.sampler import OptimizationConfig, compile_sampler


def _graph(seed: int):
    rng = np.random.default_rng(seed)
    n = 80
    src = np.concatenate([rng.integers(0, n, n), rng.integers(0, n, 600)])
    dst = np.concatenate([np.arange(n), rng.integers(0, n, 600)])
    keys = np.unique(src * n + dst)
    weights = (rng.random(len(keys)) + 0.1).astype(np.float32)
    return from_edges(keys // n, keys % n, n, weights=weights)


# One step of the random compute chain: (kind, param).
_COMPUTE_STEPS = st.lists(
    st.sampled_from(
        [
            "pow2", "mul2", "add1", "relu", "exp_clip", "div_colsum",
            "mul_rowsum", "scale", "combine",
        ]
    ),
    min_size=0,
    max_size=4,
)


#: The one tensor input of every generated program (``scale`` reads it).
_TENSORS = {"mix": np.array([0.5, 1.5, 0.75], dtype=np.float32)}


def _apply_steps(sub, steps, mix):
    for step in steps:
        if step == "pow2":
            sub = sub**2
        elif step == "mul2":
            sub = sub * 2.0
        elif step == "add1":
            sub = sub + 1.0
        elif step == "relu":
            sub = sub.relu()
        elif step == "exp_clip":
            sub = (sub * 0.1).exp()
        elif step == "div_colsum":
            sub = sub.div(sub.sum(axis=1) + 1.0, axis=1)
        elif step == "mul_rowsum":
            sub = sub.mul(sub.sum(axis=0) + 1.0, axis=0)
        elif step == "scale":
            sub = sub.scale(mix, 1)
        elif step == "combine":
            sub = sub + sub**2
    return sub


def _make_program(steps, select, k):
    def program(A, frontiers, K, mix):
        sub = A[:, frontiers]
        biased = _apply_steps(sub, steps, mix)
        if select == "individual":
            out = sub.individual_sample(K, biased)
        elif select == "individual_uniform":
            out = sub.individual_sample(K)
        elif select == "labor":
            out = sub.labor_sample(K)
        else:
            out = sub.collective_sample(K, (biased**2).sum(axis=0))
        return out, out.row()

    return program


@given(
    steps=_COMPUTE_STEPS,
    select=st.sampled_from(
        ["individual", "individual_uniform", "labor", "collective"]
    ),
    k=st.integers(1, 6),
    graph_seed=st.integers(0, 50),
    run_seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
@example(
    steps=['mul_rowsum', 'pow2', 'mul_rowsum', 'exp_clip'],
    select='collective',
    k=2,
    graph_seed=0,
    run_seed=0,
).via('discovered failure')
def test_optimized_equals_plain(steps, select, k, graph_seed, run_seed):
    graph = _graph(graph_seed)
    seeds = np.arange(12)
    program = _make_program(steps, select, k)
    common = dict(constants={"K": k}, tensors=_TENSORS, debug=True)
    optimized = compile_sampler(program, graph, seeds, **common)
    plain = compile_sampler(
        program, graph, seeds, config=OptimizationConfig.plain(), **common
    )
    m_opt, next_opt = optimized.run(
        seeds, tensors=_TENSORS, ctx=ExecutionContext(V100), rng=new_rng(run_seed)
    )
    m_plain, next_plain = plain.run(
        seeds, tensors=_TENSORS, ctx=ExecutionContext(V100), rng=new_rng(run_seed)
    )
    ro, co, vo = m_opt.to_coo_arrays()
    rp, cp, vp = m_plain.to_coo_arrays()
    opt_edges = sorted(zip(ro.tolist(), co.tolist(), np.round(vo, 4).tolist()))
    plain_edges = sorted(zip(rp.tolist(), cp.tolist(), np.round(vp, 4).tolist()))
    assert opt_edges == plain_edges
    np.testing.assert_array_equal(np.sort(next_opt), np.sort(next_plain))


@given(
    steps=_COMPUTE_STEPS,
    k=st.integers(1, 4),
    num_batches=st.integers(2, 4),
    run_seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_superbatch_structural_invariants(steps, k, num_batches, run_seed):
    """Super-batched results obey the same structural contracts as
    per-batch runs: column sets match inputs, fanouts hold, all edges are
    graph edges."""
    graph = _graph(1)
    program = _make_program(steps, "individual_uniform", k)
    sampler = compile_sampler(
        program, graph, np.arange(8), constants={"K": k}, tensors=_TENSORS,
        debug=True,
    )
    rng = np.random.default_rng(run_seed)
    batches = [
        np.sort(rng.choice(graph.shape[0], 8, replace=False))
        for _ in range(num_batches)
    ]
    results = sampler.run_superbatch(
        batches, tensors=_TENSORS, rng=new_rng(run_seed)
    )
    assert len(results) == num_batches
    from tests.conftest import to_dense

    dense = to_dense(graph)
    for (matrix, nxt), batch in zip(results, batches):
        np.testing.assert_array_equal(matrix.column(), batch)
        rows, cols, _ = matrix.to_coo_arrays()
        assert all(dense[r, c] != 0 for r, c in zip(rows, cols))
        counts = np.bincount(cols, minlength=graph.shape[0])
        assert counts.max(initial=0) <= k
        np.testing.assert_array_equal(np.sort(nxt), np.unique(rows))
