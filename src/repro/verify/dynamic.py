"""Dynamic-graph equivalence: compaction bit-identity + overlay marginals.

The dynamic subsystem's correctness contract has two halves:

* **Bit-identity after compaction.**  A :class:`~repro.dynamic.DeltaGraph`
  that has absorbed an update stream and then :meth:`compact`-ed must be
  *array-identical* — indptr, rows, edge ids, and values — to a CSC
  built fresh by :func:`~repro.core.matrix.from_edges` over the same
  live edge set in canonical ``(dst, src)`` order.  On top of the
  storage check, a compiled sampler run over both graphs with the same
  RNG must emit bit-identical samples (the "compacted sessions replay
  fresh-CSR sessions" guarantee the serve layer leans on).
* **Statistical equivalence before compaction.**  The cheap overlay
  :meth:`snapshot` orders each column differently (base survivors
  first, inserts after) than a canonical rebuild, so it cannot be
  bit-identical — but the samplers must draw from the *same
  distribution* over it.  That half reuses the chi-square/KS machinery
  from :mod:`repro.verify.equivalence`: per-edge selection marginals
  from the snapshot graph versus the rebuilt oracle graph.

CLI: ``gsampler-repro verify dynamic`` (also folded into ``verify all``).
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.core import new_rng
from repro.core.matrix import Matrix, from_edges
from repro.dynamic import DeltaGraph, UpdateSpec, generate_update_stream
from repro.errors import GSamplerError, check_count, check_real
from repro.sampler import compile_sampler
from repro.verify.equivalence import (
    _SEED_STRIDE,
    VariantCheck,
    _sample_matrix,
    builtin_specs,
    collect_edge_marginals,
    compare_to_oracle,
    verification_graph,
)

__all__ = ["DynamicCheck", "check_dynamic_equivalence", "graph_digest"]


def graph_digest(matrix: Matrix) -> str:
    """sha256 over a graph's CSC storage arrays (the bit-identity key)."""
    csc = matrix.get("csc")
    parts = [csc.indptr, csc.rows, csc.edge_ids]
    if csc.values is not None:
        parts.append(csc.values)
    digest = hashlib.sha256()
    for arr in parts:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class DynamicCheck:
    """Outcome of one dynamic-graph equivalence run."""

    algorithm: str
    trials: int
    #: Streamed edges applied before the checks.
    ingested: int
    deleted: int
    #: Compacted CSC arrays identical to a fresh ``from_edges`` build.
    storage_identical: bool
    compact_digest: str
    fresh_digest: str
    #: Same-RNG samples over compacted vs fresh graphs are identical.
    samples_identical: bool
    #: Pre-compaction snapshot marginals vs the rebuilt-graph oracle.
    marginals: VariantCheck

    @property
    def passed(self) -> bool:
        return (
            self.storage_identical
            and self.samples_identical
            and self.marginals.passed
        )

    def describe(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        return (
            f"dynamic[{self.algorithm}]: storage "
            f"{'==' if self.storage_identical else '!='} fresh "
            f"({self.compact_digest[:12]}), samples "
            f"{'==' if self.samples_identical else '!='}, "
            f"{self.marginals.describe()} [{verdict}]"
        )


def check_dynamic_equivalence(
    algorithm: str = "graphsage",
    *,
    updates: UpdateSpec | None = None,
    num_nodes: int = 96,
    avg_degree: int = 8,
    graph_seed: int = 5,
    trials: int = 200,
    alpha: float = 0.01,
    seed: int = 0,
) -> DynamicCheck:
    """Run both halves of the dynamic-graph equivalence contract.

    Builds the standard weighted verification graph, streams a seeded
    insert/delete workload into a :class:`DeltaGraph`, then checks (a)
    the pre-compaction snapshot samples like a fresh rebuild of the same
    edge set (chi-square/KS) and (b) the compacted graph *is* that fresh
    rebuild, bit for bit, storage and samples alike.
    """
    check_count("trials", trials, error=GSamplerError)
    check_real("alpha", alpha, "(0, 1)", error=GSamplerError)
    specs = builtin_specs()
    if algorithm not in specs:
        raise GSamplerError(
            f"no verification spec for {algorithm!r}; verifiable "
            f"algorithms: {sorted(specs)}"
        )
    spec = specs[algorithm]
    if updates is None:
        updates = UpdateSpec(
            num_edges=192, delete_fraction=0.25, seed=graph_seed
        )

    base = verification_graph(num_nodes, avg_degree, seed=graph_seed)
    delta = DeltaGraph(base)
    for batch in generate_update_stream(updates, num_nodes=num_nodes):
        delta.apply(batch)

    # Pre-compaction overlay view, and the canonical rebuild of the
    # exact same live edge set (the oracle for both halves).
    snapshot = delta.snapshot()
    src, dst, val = delta.canonical_edges()
    fresh = from_edges(src, dst, num_nodes, weights=val, layout="csc")
    compacted = delta.compact()

    # -- half 1: bit-identity ------------------------------------------
    a, b = compacted.get("csc"), fresh.get("csc")
    storage_identical = (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.rows, b.rows)
        and np.array_equal(a.edge_ids, b.edge_ids)
        and np.array_equal(a.values, b.values)
    )

    frontiers = np.arange(min(12, num_nodes))
    tensors = spec.tensors_fn(fresh) if spec.tensors_fn is not None else None
    compact_sampler = compile_sampler(
        spec.layer_fn,
        compacted,
        frontiers,
        constants=spec.constants,
        tensors=tensors,
    )
    fresh_sampler = compile_sampler(
        spec.layer_fn,
        fresh,
        frontiers,
        constants=spec.constants,
        tensors=tensors,
    )
    sample_a = _sample_matrix(
        compact_sampler.run(frontiers, tensors=tensors, rng=new_rng(seed))
    ).to_coo_arrays()
    sample_b = _sample_matrix(
        fresh_sampler.run(frontiers, tensors=tensors, rng=new_rng(seed))
    ).to_coo_arrays()
    samples_identical = all(
        np.array_equal(x, y) for x, y in zip(sample_a, sample_b)
    )

    # -- half 2: snapshot marginals vs rebuilt oracle ------------------
    snap_sampler = compile_sampler(
        spec.layer_fn,
        snapshot,
        frontiers,
        constants=spec.constants,
        tensors=tensors,
    )
    oracle_counts, oracle_sums = collect_edge_marginals(
        lambda rng: _sample_matrix(
            fresh_sampler.run(frontiers, tensors=tensors, rng=rng)
        ),
        trials=trials,
        seed=seed,
    )
    snap_counts, snap_sums = collect_edge_marginals(
        lambda rng: _sample_matrix(
            snap_sampler.run(frontiers, tensors=tensors, rng=rng)
        ),
        trials=trials,
        seed=seed + _SEED_STRIDE,
    )
    marginals = compare_to_oracle(
        oracle_counts,
        oracle_sums,
        snap_counts,
        snap_sums,
        name="snapshot-vs-rebuilt",
        trials=trials,
        alpha=alpha,
        num_tests=1,
    )

    return DynamicCheck(
        algorithm=algorithm,
        trials=trials,
        ingested=delta.inserted_edges,
        deleted=delta.deleted_edges,
        storage_identical=storage_identical,
        compact_digest=graph_digest(compacted),
        fresh_digest=graph_digest(fresh),
        samples_identical=samples_identical,
        marginals=marginals,
    )
