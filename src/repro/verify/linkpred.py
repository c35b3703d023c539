"""Link-prediction equivalence: compaction, negatives, pair-seeded grid.

The link-prediction path adds three things on top of the node-seed
samplers, and each gets its own check here:

* **Compaction round-trip.**  :func:`~repro.tasks.unique_and_compact_node_pairs`
  must satisfy ``seeds[compacted] == original`` for positive and
  negative pair sets alike, emit sorted unique int64 seeds, and be a
  pure function of its inputs.
* **Negative-sampler properties.**  Corrupted pairs must never collide
  with the live edge set (no false negatives), avoid self-loops, and be
  bit-reproducible under a fixed generator seed.
* **Pair-seeded marginals.**  Sampling from a *compacted node-pair
  frontier* must be distribution-equivalent across the whole
  :class:`~repro.sampler.OptimizationConfig` grid (plus the super-batch
  path) — the same chi-square/KS machinery the node-seed algorithms are
  held to, seeded by the unique endpoint set of a positive+negative
  pair batch instead of raw node ids.

CLI: ``gsampler-repro verify linkpred`` (also folded into ``verify all``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core import new_rng
from repro.errors import GSamplerError, check_count, check_real
from repro.tasks import (
    edge_endpoints_of,
    edge_keys,
    negative_sample,
    unique_and_compact_node_pairs,
)
from repro.verify.equivalence import (
    EquivalenceReport,
    builtin_specs,
    check_distribution_equivalence,
    verification_graph,
)

__all__ = ["LinkpredCheck", "check_linkpred_equivalence"]


@dataclasses.dataclass(frozen=True)
class LinkpredCheck:
    """Outcome of one link-prediction equivalence run."""

    trials: int
    #: Candidate pairs exercised by the compaction / negative checks.
    pairs: int
    #: ``seeds[compacted] == original`` held for every pair set, seeds
    #: sorted unique int64.
    compaction_ok: bool
    #: No negative collided with a live edge or formed a self-loop.
    no_false_negatives: bool
    #: Equal generator seeds reproduced the exact negative stream.
    negatives_deterministic: bool
    #: Pair-seeded sampling vs the oracle across the config grid.
    marginals: EquivalenceReport

    @property
    def passed(self) -> bool:
        return (
            self.compaction_ok
            and self.no_false_negatives
            and self.negatives_deterministic
            and self.marginals.passed
        )

    def describe(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        bad = len(self.marginals.failures())
        return (
            f"linkpred: compaction "
            f"{'ok' if self.compaction_ok else 'BROKEN'} over "
            f"{self.pairs} pairs, negatives "
            f"{'clean' if self.no_false_negatives else 'COLLIDE'}/"
            f"{'det' if self.negatives_deterministic else 'NONDET'}, "
            f"marginals {len(self.marginals.variants) - bad}/"
            f"{len(self.marginals.variants)} variants [{verdict}]"
        )


def check_linkpred_equivalence(
    *,
    num_nodes: int = 96,
    avg_degree: int = 8,
    graph_seed: int = 5,
    pairs: int = 24,
    trials: int = 200,
    alpha: float = 0.01,
    seed: int = 0,
) -> LinkpredCheck:
    """Run all three halves of the link-prediction contract."""
    check_count("trials", trials, error=GSamplerError)
    check_real("alpha", alpha, "(0, 1)", error=GSamplerError)
    graph = verification_graph(num_nodes, avg_degree, seed=graph_seed)
    src, dst = edge_endpoints_of(graph)
    live_keys = np.sort(edge_keys(src, dst, num_nodes))

    # -- half 1+2: compaction round-trip & negative properties ----------
    rng = new_rng(seed)
    compaction_ok = True
    no_false_negatives = True
    eids = rng.choice(len(src), size=min(pairs, len(src)), replace=False)
    pos = np.stack([src[eids], dst[eids]], axis=1)
    neg_dst = negative_sample(pos[:, 0], num_nodes, live_keys, new_rng(seed))
    neg_dst_again = negative_sample(
        pos[:, 0], num_nodes, live_keys, new_rng(seed)
    )
    negatives_deterministic = np.array_equal(neg_dst, neg_dst_again)
    neg = np.stack([pos[:, 0], neg_dst], axis=1)
    neg_keys = edge_keys(neg[:, 0], neg[:, 1], num_nodes)
    if (
        np.isin(neg_keys, live_keys).any()
        or (neg[:, 0] == neg[:, 1]).any()
    ):
        no_false_negatives = False
    seeds, cpos, cneg = unique_and_compact_node_pairs(pos, neg)
    if (
        seeds.dtype != np.int64
        or not np.array_equal(seeds, np.unique(seeds))
        or not np.array_equal(seeds[cpos], pos)
        or not np.array_equal(seeds[cneg], neg)
    ):
        compaction_ok = False

    # -- half 3: pair-seeded marginals across the config grid -----------
    spec = builtin_specs()["graphsage"]
    marginals = check_distribution_equivalence(
        spec.layer_fn,
        graph,
        seeds,
        constants=spec.constants,
        trials=trials,
        alpha=alpha,
        seed=seed,
        name="linkpred-pair-seeded",
    )

    return LinkpredCheck(
        trials=trials,
        pairs=int(len(pos) + len(neg)),
        compaction_ok=compaction_ok,
        no_false_negatives=no_false_negatives,
        negatives_deterministic=negatives_deterministic,
        marginals=marginals,
    )
