"""LABOR vs collective/individual sampling: frontier at equal error.

The variance-reduction pitch of LABOR (Balin & Catalyurek, 2023) is a
*frontier* claim, so the bench holds estimator quality fixed and measures
what each sampler must transfer to achieve it.  The estimand is the one
GNN aggregation actually computes: each seed's neighbor aggregate
``h_c = sum_{r in N(c)} x_r`` (with ``x`` the per-node feature-row norm),
estimated per mini-batch slice ``A[:, seeds]`` on graphsage/PD/V100.

* **LABOR** admits edge ``(r, c)`` with probability ``min(1, K/deg_c)``
  using one shared coin per row node; Horvitz–Thompson weights keep
  ``h_c`` unbiased while shared coins collapse the union frontier.
* **collective_sample** (the layer-wise Select of LADIES/FastGCN) draws
  a width-``k`` row set shared by all seeds, debiased by the standard
  inclusion-probability weights ``1/(1-(1-q_r)^k)``.  Sweeping ``k``
  trades frontier size against per-seed error — but the debiasing is
  only approximate for weighted draws without replacement, so its error
  floor is bias-limited (the documented layer-wise failure mode).
* **individual_sample** (GraphSAGE's node-wise Select) has identical
  per-edge marginals to LABOR but independent coins, so its union
  frontier is the uncorrelated worst case.

Matched point: the collective width whose per-seed relative error
(mean squared error over trials and seeds, bias included) is
statistically indistinguishable from LABOR's — TOST-style equivalence,
the bootstrap CI of the error ratio contained in a ±10% margin.
Acceptance: at that width LABOR's mean frontier (and the
feature-transfer bytes it drives) is >= 20% smaller.

The sweep writes its ``BENCH_labor_pd_v100.json`` record into a scratch
directory and requires it to equal the committed golden byte for byte,
so any drift in the frontier fails while the tracked file stays untouched.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.bench import format_table
from repro.core import new_rng
from repro.core.sampling import collective_sample, individual_sample, labor_sample
from repro.datasets import load_dataset
from repro.profile import bench_path, write_record
from repro.sparse import CSC
from repro.sparse.formats import gather_ranges

from benchmarks.conftest import BENCH_SCALE

SEEDS = 512
FANOUT = 8
TRIALS = 160
#: Collective layer widths swept for the equal-error match.
WIDTHS = (512, 640, 768, 896, 1024, 1280)
BOOTSTRAP = 300
#: Equivalence margin: errors within ±10% of each other, CI and all,
#: count as matched (the bootstrap has enough power at 160x512
#: samples to "distinguish" sub-2% differences, so a point-null test
#: would reject everything; TOST equivalence is the right criterion).
EQUIV_MARGIN = 1.10
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _batch_slice(graph_csc: CSC, seeds: np.ndarray) -> CSC:
    """``A[:, seeds]`` as a CSC with global row ids (unfused extract)."""
    starts = graph_csc.indptr[seeds]
    lengths = graph_csc.indptr[seeds + 1] - starts
    indptr = np.zeros(len(seeds) + 1, dtype=graph_csc.indptr.dtype)
    np.cumsum(lengths, out=indptr[1:])
    flat = gather_ranges(starts, lengths)
    return CSC(
        indptr=indptr,
        rows=graph_csc.rows[flat],
        values=None,
        shape=(graph_csc.shape[0], len(seeds)),
    )


def _per_seed_estimates(sub: CSC, trial_fn) -> np.ndarray:
    """(TRIALS, seeds) matrix of per-seed aggregate estimates."""
    T = sub.shape[1]
    est = np.empty((TRIALS, T))
    for t in range(TRIALS):
        est[t] = trial_fn(t)
    return est


def _rel_sq_errors(est: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-trial mean relative squared error (bias included)."""
    return np.mean(((est - truth) / truth) ** 2, axis=1)


def _bootstrap_ratio_ci(
    a: np.ndarray, b: np.ndarray, seed: int = 0
) -> tuple[float, float]:
    """95% bootstrap CI for ``mean(a) / mean(b)`` over trials."""
    rng = new_rng(seed)
    ratios = np.empty(BOOTSTRAP)
    for i in range(BOOTSTRAP):
        ai = a[rng.integers(0, len(a), size=len(a))]
        bi = b[rng.integers(0, len(b), size=len(b))]
        ratios[i] = ai.mean() / bi.mean()
    return float(np.percentile(ratios, 2.5)), float(np.percentile(ratios, 97.5))


def test_labor_equal_error_frontier(report, tmp_path):
    ds = load_dataset("pd", scale=BENCH_SCALE)
    graph_csc = ds.graph.get("csc")
    rng = new_rng(11)
    seeds = rng.choice(ds.train_ids, size=SEEDS, replace=False)
    sub = _batch_slice(graph_csc, seeds)
    T = len(seeds)
    x = np.linalg.norm(ds.features, axis=1)
    col_of_edge = np.repeat(np.arange(T), np.diff(sub.indptr))
    truth = np.bincount(col_of_edge, weights=x[sub.rows], minlength=T)
    row_bytes = ds.features.shape[1] * 4

    # -- LABOR at the graphsage fanout -------------------------------
    frontiers: list[int] = []

    def labor_trial(t: int) -> np.ndarray:
        s = labor_sample(sub, FANOUT, rng=new_rng(1_000 + t))
        frontiers.append(len(np.unique(s.rows)))
        cols = np.repeat(np.arange(T), np.diff(s.indptr))
        return np.bincount(cols, weights=s.values * x[s.rows], minlength=T)

    labor_est = _per_seed_estimates(sub, labor_trial)
    labor_err = _rel_sq_errors(labor_est, truth)
    labor_frontier = float(np.mean(frontiers))
    labor_bias = float(np.abs(labor_est.mean(axis=0) - truth).mean() / truth.mean())

    # -- individual_sample: same marginals, independent coins ---------
    ind_frontiers = []
    for t in range(32):
        s = individual_sample(sub, FANOUT, rng=new_rng(3_000 + t))
        ind_frontiers.append(len(np.unique(s.rows)))
    ind_frontier = float(np.mean(ind_frontiers))

    # -- collective width sweep ---------------------------------------
    deg_row = np.bincount(sub.rows, minlength=sub.shape[0]).astype(np.float64)
    q = deg_row / deg_row.sum()
    rows = [
        [
            f"labor K={FANOUT}",
            f"{labor_err.mean():.4f}",
            f"{labor_bias:.2%}",
            f"{labor_frontier:.0f}",
            f"{labor_frontier * row_bytes / 2**20:.3f}",
            "-",
        ]
    ]
    sweep = {}
    for width in WIDTHS:
        pi = -np.expm1(width * np.log1p(-np.minimum(q, 1 - 1e-12)))
        weight = np.zeros(sub.shape[0])
        nz = pi > 0
        weight[nz] = x[nz] / pi[nz]

        def coll_trial(t: int, width=width, weight=weight) -> np.ndarray:
            r = collective_sample(sub, width, rng=new_rng(width * 10_000 + t))
            z = np.zeros(sub.shape[0])
            z[r.selected_rows] = weight[r.selected_rows]
            return np.bincount(col_of_edge, weights=z[sub.rows], minlength=T)

        est = _per_seed_estimates(sub, coll_trial)
        err = _rel_sq_errors(est, truth)
        lo, hi = _bootstrap_ratio_ci(labor_err, err, seed=width)
        sweep[width] = (err, lo, hi)
        rows.append(
            [
                f"collective k={width}",
                f"{err.mean():.4f}",
                f"{np.abs(est.mean(axis=0) - truth).mean() / truth.mean():.2%}",
                str(width),
                f"{width * row_bytes / 2**20:.3f}",
                f"[{lo:.2f}, {hi:.2f}]",
            ]
        )
    report(
        "labor_equal_error",
        format_table(
            ["Sampler", "Rel. error (MSE)", "|bias|", "Frontier rows",
             "Transfer (MiB)", "err ratio 95% CI"],
            rows,
            title=(
                f"Frontier at equal per-seed estimator error — "
                f"graphsage batch ({SEEDS} seeds) on PD scale "
                f"{BENCH_SCALE}, V100 feature rows ({row_bytes} B); "
                f"{TRIALS} trials"
            ),
        ),
    )

    # LABOR stays unbiased (HT weights); that is the contract the
    # correlated coins must not break.
    assert labor_bias < 0.05

    # Correlation is the whole point: same marginals as the node-wise
    # sampler, much smaller union frontier.
    assert labor_frontier <= 0.8 * ind_frontier

    # Matched point: the width whose error is statistically
    # indistinguishable from LABOR's (the ratio CI sits inside the
    # equivalence margin); among those, the closest match.
    matched = [
        (abs(np.log(labor_err.mean() / err.mean())), width)
        for width, (err, lo, hi) in sweep.items()
        if lo >= 1.0 / EQUIV_MARGIN and hi <= EQUIV_MARGIN
    ]
    assert matched, "no collective width matched LABOR's error"
    matched_width = min(matched)[1]

    # The headline: >= 20% smaller frontier (and transfer bytes) than
    # collective_sample at statistically indistinguishable error.
    assert labor_frontier <= 0.8 * matched_width
    assert labor_frontier * row_bytes <= 0.8 * matched_width * row_bytes

    # The lane is a golden: the record this sweep writes must equal the
    # committed one (a meant move re-pins by committing the new file).
    record_path = bench_path(tmp_path, "labor_pd_v100")
    write_record(
        record_path,
        tag="labor_pd_v100",
        meta={
            "algorithm": "labor",
            "baseline": "collective_sample",
            "dataset": "pd",
            "device": "v100",
            "scale": BENCH_SCALE,
            "seeds": SEEDS,
            "fanout": FANOUT,
            "trials": TRIALS,
        },
        metrics={
            "labor_frontier_rows": labor_frontier,
            "labor_transfer_bytes": labor_frontier * row_bytes,
            "individual_frontier_rows": ind_frontier,
            "matched_collective_width": matched_width,
            "frontier_ratio": labor_frontier / matched_width,
            "labor_rel_mse": float(labor_err.mean()),
            "labor_rel_bias": labor_bias,
        },
    )
    committed = bench_path(REPO_ROOT, "labor_pd_v100")
    assert record_path.read_text() == committed.read_text(), (
        f"if the move is meant, re-pin: cp {record_path} {committed}"
    )
