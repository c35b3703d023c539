"""Heterogeneous graphs: one sparse matrix per edge type (paper §4.5).

gSampler handles heterogeneous graphs by modeling each edge type as its
own adjacency matrix and running the exact same ECSF workflow per type —
no new operators needed.  This module provides:

* :class:`HeteroGraph` — a typed collection of :class:`Matrix` relations
  with node-type bookkeeping;
* per-relation extract/select helpers, so e.g. HetGNN's typed top-k or a
  typed GraphSAGE simply loops relations;
* metapath random walks (PinSAGE's "random walks following a meta-path"),
  where each step follows the matrix of the next relation in the path.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core import random as rnd
from repro.core.matrix import Matrix
from repro.core.sampling import uniform_walk_step
from repro.device import NULL_CONTEXT, ExecutionContext
from repro.errors import GSamplerError, ShapeError
from repro.sparse import INDEX_DTYPE

#: A relation name: (source node type, edge name, destination node type).
Relation = tuple[str, str, str]


class HeteroGraph:
    """A heterogeneous graph as a dict of per-relation matrices.

    Each relation ``(src_type, name, dst_type)`` owns a ``Matrix`` whose
    entry ``A[u, v]`` is an edge ``u -> v`` with ``u`` in the source
    type's id space and ``v`` in the destination type's.  Node ids are
    *per-type* (each type counts from zero), matching how DGL and the
    original gSampler store typed graphs.
    """

    def __init__(
        self,
        num_nodes: Mapping[str, int],
        relations: Mapping[Relation, Matrix],
    ) -> None:
        self.num_nodes = dict(num_nodes)
        self.relations = dict(relations)
        for (src_t, name, dst_t), matrix in self.relations.items():
            if src_t not in self.num_nodes or dst_t not in self.num_nodes:
                raise ShapeError(
                    f"relation ({src_t}, {name}, {dst_t}) references an "
                    "unknown node type"
                )
            expected = (self.num_nodes[src_t], self.num_nodes[dst_t])
            if matrix.shape != expected:
                raise ShapeError(
                    f"relation ({src_t}, {name}, {dst_t}) has shape "
                    f"{matrix.shape}, expected {expected}"
                )

    # ------------------------------------------------------------------
    @property
    def edge_types(self) -> list[Relation]:
        return sorted(self.relations)

    def matrix(self, relation: Relation) -> Matrix:
        try:
            return self.relations[relation]
        except KeyError:
            raise GSamplerError(
                f"unknown relation {relation!r}; have {self.edge_types}"
            ) from None

    def relations_into(self, dst_type: str) -> list[Relation]:
        """Relations whose destination is ``dst_type`` (what a typed
        frontier of that type samples from)."""
        return [r for r in self.edge_types if r[2] == dst_type]

    # ------------------------------------------------------------------
    def sample_neighbors(
        self,
        dst_type: str,
        frontiers: np.ndarray,
        fanout_per_relation: int,
        *,
        rng: np.random.Generator | None = None,
        ctx: ExecutionContext = NULL_CONTEXT,
    ) -> dict[Relation, Matrix]:
        """Typed neighbor sampling: per incoming relation, a fanout draw.

        This is the heterogeneous GraphSAGE layer: every relation into
        ``dst_type`` is extracted and individually sampled with the same
        homogeneous operators, one matrix per relation — exactly the
        workflow equivalence the paper claims for typed graphs.
        """
        rng = rng if rng is not None else rnd.new_rng()
        out: dict[Relation, Matrix] = {}
        for relation in self.relations_into(dst_type):
            base = self.matrix(relation)
            bound = Matrix(
                base.any_storage(), ctx=ctx, is_base_graph=base.is_base_graph
            )
            sub = bound.slice_cols(np.asarray(frontiers))
            out[relation] = sub.individual_sample(
                fanout_per_relation, rng=rng
            )
        if not out:
            raise GSamplerError(f"no relations end at node type {dst_type!r}")
        return out

    # ------------------------------------------------------------------
    def metapath_walk(
        self,
        metapath: Sequence[Relation],
        seeds: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        ctx: ExecutionContext = NULL_CONTEXT,
    ) -> np.ndarray:
        """Random walk following a metapath (PinSAGE/HetGNN style).

        ``metapath`` is a chain of relations; step ``i`` moves each
        walker from its current node (of the relation's *destination*
        type) to a uniform in-neighbor under that relation (a node of
        the *source* type).  Consecutive relations must chain:
        ``metapath[i].src_type == metapath[i+1].dst_type``.  Returns a
        ``(len(metapath)+1, num_walkers)`` trace with ``-1`` for dead
        ends.
        """
        if not metapath:
            raise ShapeError("metapath must contain at least one relation")
        for a, b in zip(metapath, metapath[1:]):
            if a[0] != b[2]:
                raise ShapeError(
                    f"metapath breaks at {a} -> {b}: source type {a[0]!r} "
                    f"!= next destination type {b[2]!r}"
                )
        rng = rng if rng is not None else rnd.new_rng()
        cur = np.asarray(seeds, dtype=INDEX_DTYPE)
        trace = np.full((len(metapath) + 1, len(cur)), -1, dtype=INDEX_DTYPE)
        trace[0] = cur
        for step, relation in enumerate(metapath):
            csc = self.matrix(relation).get("csc")
            alive = np.flatnonzero(cur >= 0)
            nxt = np.full(len(cur), -1, dtype=INDEX_DTYPE)
            if len(alive):
                nxt[alive] = uniform_walk_step(csc, cur[alive], rng=rng, ctx=ctx)
            trace[step + 1] = nxt
            cur = nxt
        return trace


def hetero_from_typed_edges(
    node_types: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    type_names: Sequence[str] | None = None,
) -> HeteroGraph:
    """Split a homogeneous typed-node graph into per-relation matrices.

    Every edge lands in the relation ``(type(src), "to", type(dst))``
    with endpoints renumbered into per-type id spaces — the standard way
    to lift a flat typed graph into the heterogeneous representation.
    """
    from repro.core.matrix import from_edges

    node_types = np.asarray(node_types, dtype=INDEX_DTYPE)
    num_types = int(node_types.max()) + 1 if len(node_types) else 0
    names = (
        list(type_names)
        if type_names is not None
        else [f"t{i}" for i in range(num_types)]
    )
    if len(names) != num_types:
        raise ShapeError(
            f"{num_types} node types present but {len(names)} names given"
        )
    # Per-type local ids.
    local = np.zeros(len(node_types), dtype=INDEX_DTYPE)
    counts = {}
    for t in range(num_types):
        members = np.flatnonzero(node_types == t)
        local[members] = np.arange(len(members), dtype=INDEX_DTYPE)
        counts[names[t]] = len(members)
    del from_edges  # relations are rectangular; build storage directly
    from repro.sparse import COO, convert

    relations: dict[Relation, Matrix] = {}
    src, dst = np.asarray(src), np.asarray(dst)
    pair_key = node_types[src] * num_types + node_types[dst]
    for key in np.unique(pair_key):
        st, dt = int(key) // num_types, int(key) % num_types
        mask = pair_key == key
        rel = (names[st], "to", names[dt])
        coo = COO(
            rows=local[src[mask]],
            cols=local[dst[mask]],
            values=None,
            shape=(counts[names[st]], counts[names[dt]]),
            edge_ids=np.flatnonzero(mask).astype(INDEX_DTYPE),
        )
        relations[rel] = Matrix(convert(coo, "csc"), is_base_graph=True)
    return HeteroGraph(counts, relations)
