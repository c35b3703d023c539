"""Delta-aware graph container: immutable base CSC + edge deltas.

:class:`DeltaGraph` wraps a base-graph :class:`~repro.core.matrix.Matrix`
and accepts streaming edge inserts/deletes without touching the base
storage.  The base CSC arrays stay immutable; mutation state lives in

* a **tombstone mask** over the base edges (deletes), and
* **append-only insert buffers** with their own tombstone mask (an
  inserted edge can itself be deleted before it ever reaches a CSC).

Two materialization paths hand the mutated edge set back to the
compiled samplers, which consume any CSC ``Matrix`` unmodified:

* :meth:`snapshot` — a cheap *overlay* merge.  Per destination column,
  surviving base neighbors come first (in base-CSC order) followed by
  surviving inserts (in arrival order).  Used for periodic snapshot
  installs while serving; cost charged as a tombstone-filtered merge
  (no sort).
* :meth:`compact` — a full rebuild in **canonical order**: live edges
  sorted by ``(dst, src)``.  The result is bit-identical to
  :func:`repro.core.matrix.from_edges` over the same live edge set in
  canonical order, which is what the ``repro.verify`` dynamic check
  pins.  Cost includes the sort term, mirroring the COO→CSC
  conversion charge.

Both cost dicts (:meth:`merge_workload` / :meth:`compact_workload`) are
plain kwargs for :meth:`repro.device.context.ExecutionContext.record`,
so callers charge the rebuild to whichever queue installs the new
graph — the cluster charges every replica's sample queue, exactly like
any other kernel launch.

Weighted bases are supported: inserted edges then carry their own
weight (the update stream draws one per insert, matching the synthetic
datasets' uniform weights), so the samplers' probability mass stays
well-defined across mutation.  Unweighted bases stay unweighted —
streamed weights are ignored there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.matrix import Matrix, from_edges
from repro.device.context import NULL_CONTEXT, ExecutionContext
from repro.errors import ShapeError, check_ids
from repro.sparse.formats import CSC, INDEX_DTYPE, VALUE_DTYPE, as_index_array

__all__ = ["AppliedUpdate", "DeltaGraph"]

_INDEX_BYTES = np.dtype(INDEX_DTYPE).itemsize


@dataclass(frozen=True)
class AppliedUpdate:
    """Outcome of applying one update batch to a :class:`DeltaGraph`."""

    inserted: int
    deleted: int
    missed_deletes: int


class DeltaGraph:
    """Immutable base CSC + append-only edge deltas with tombstones.

    Parameters
    ----------
    base:
        The starting graph.  Must be square and convertible to CSC
        (every base graph in the repo already is); weighted and
        unweighted bases are both supported.
    """

    def __init__(self, base: Matrix) -> None:
        csc = base.get("csc")
        if csc.shape[0] != csc.shape[1]:
            raise ShapeError(
                f"DeltaGraph needs a square graph, got shape {csc.shape}"
            )
        self.num_nodes = int(csc.shape[1])
        #: Whether edges carry weights; fixed by the base graph.
        self.weighted = csc.values is not None
        self._install_base(csc)
        # Insert-side state (append-only buffers + tombstones).
        self._extra_src: list[int] = []
        self._extra_dst: list[int] = []
        self._extra_val: list[float] = []
        self._extra_alive: list[bool] = []
        self._extra_index: dict[int, list[int]] = {}
        # Mutation counters (session-lifetime; compact() does not reset).
        self.inserted_edges = 0
        self.deleted_edges = 0
        self.missed_deletes = 0
        self.batches_applied = 0
        self.compactions = 0
        #: Bumped on every applied batch; lets consumers detect staleness.
        self.version = 0
        self._dirty: set[int] = set()

    # -- base-side bookkeeping ------------------------------------------

    def _install_base(self, csc: CSC) -> None:
        """Adopt ``csc`` as the (new) immutable base."""
        n = self.num_nodes
        self._base_indptr = csc.indptr
        self._base_src = csc.rows
        self._base_dst = csc.expand_cols()
        self._base_val = csc.values
        self._base_alive = np.ones(csc.nnz, dtype=bool)
        # Delete matching: base edges indexed by the scalar key
        # src * n + dst via one sorted permutation + searchsorted.
        keys = self._base_src * np.int64(n) + self._base_dst
        self._base_key_order = np.argsort(keys, kind="stable")
        self._base_sorted_keys = keys[self._base_key_order]
        self._degrees = np.diff(csc.indptr).astype(np.int64)

    # -- introspection ---------------------------------------------------

    @property
    def base_nnz(self) -> int:
        return int(self._base_src.shape[0])

    @property
    def num_live_edges(self) -> int:
        return int(np.count_nonzero(self._base_alive)) + sum(self._extra_alive)

    def degrees(self) -> np.ndarray:
        """Current live in-degree per node (copy; safe to mutate)."""
        return self._degrees.copy()

    def dirty_nodes(self) -> np.ndarray:
        """Nodes whose neighbor list changed since the last drain."""
        return np.array(sorted(self._dirty), dtype=INDEX_DTYPE)

    def drain_dirty(self) -> np.ndarray:
        """Return the dirty-node set and clear it (cache invalidation)."""
        dirty = self.dirty_nodes()
        self._dirty.clear()
        return dirty

    # -- mutation --------------------------------------------------------

    def _check_endpoints(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        src = check_ids("edge source", src, self.num_nodes)
        dst = check_ids("edge destination", dst, self.num_nodes)
        if src.shape != dst.shape:
            raise ShapeError(
                f"edge endpoint arrays disagree: {src.shape} vs {dst.shape}"
            )
        return src, dst

    def insert_edges(self, src, dst, weights=None) -> int:
        """Append edges to the insert buffer; returns the count.

        ``weights`` applies only over a weighted base (missing entries
        default to 1.0); it is ignored for unweighted bases so the
        graph's weightedness never flips mid-stream.
        """
        src, dst = self._check_endpoints(src, dst)
        if self.weighted:
            if weights is None:
                vals = np.ones(src.size, dtype=VALUE_DTYPE)
            else:
                vals = np.asarray(weights, dtype=VALUE_DTYPE)
                if vals.shape != src.shape:
                    raise ShapeError(
                        f"weights shape {vals.shape} != edges {src.shape}"
                    )
        n = self.num_nodes
        for i, (u, v) in enumerate(zip(src.tolist(), dst.tolist())):
            idx = len(self._extra_src)
            self._extra_src.append(u)
            self._extra_dst.append(v)
            if self.weighted:
                self._extra_val.append(float(vals[i]))
            self._extra_alive.append(True)
            self._extra_index.setdefault(u * n + v, []).append(idx)
            self._degrees[v] += 1
            self._dirty.add(v)
        self.inserted_edges += int(src.size)
        return int(src.size)

    def delete_edges(self, src, dst) -> int:
        """Tombstone one live occurrence per requested edge.

        Matching is deterministic: the earliest surviving base edge
        first, then the earliest surviving insert.  Requests with no
        live match are counted in :attr:`missed_deletes` and ignored —
        a delete racing a delete is a no-op, not an error.
        """
        src, dst = self._check_endpoints(src, dst)
        n = self.num_nodes
        applied = 0
        for u, v in zip(src.tolist(), dst.tolist()):
            key = u * n + v
            hit = False
            lo = int(np.searchsorted(self._base_sorted_keys, key, "left"))
            hi = int(np.searchsorted(self._base_sorted_keys, key, "right"))
            for pos in range(lo, hi):
                edge = int(self._base_key_order[pos])
                if self._base_alive[edge]:
                    self._base_alive[edge] = False
                    hit = True
                    break
            if not hit:
                for idx in self._extra_index.get(key, ()):
                    if self._extra_alive[idx]:
                        self._extra_alive[idx] = False
                        hit = True
                        break
            if hit:
                applied += 1
                self._degrees[v] -= 1
                self._dirty.add(v)
            else:
                self.missed_deletes += 1
        self.deleted_edges += applied
        return applied

    def apply(self, batch) -> AppliedUpdate:
        """Apply one :class:`~repro.dynamic.stream.UpdateBatch`."""
        delete = np.asarray(batch.delete, dtype=bool)
        src = np.asarray(batch.src)
        dst = np.asarray(batch.dst)
        weights = getattr(batch, "weights", None)
        missed_before = self.missed_deletes
        inserted = self.insert_edges(
            src[~delete],
            dst[~delete],
            weights=None if weights is None else weights[~delete],
        )
        deleted = self.delete_edges(src[delete], dst[delete])
        self.batches_applied += 1
        self.version += 1
        return AppliedUpdate(
            inserted=inserted,
            deleted=deleted,
            missed_deletes=self.missed_deletes - missed_before,
        )

    # -- edge-set views --------------------------------------------------

    def live_edges(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Live ``(src, dst, values)`` in overlay order (base, then
        inserts); ``values`` is ``None`` for an unweighted base."""
        extra_alive = np.array(self._extra_alive, dtype=bool)
        extra_src = as_index_array(self._extra_src)[extra_alive]
        extra_dst = as_index_array(self._extra_dst)[extra_alive]
        src = np.concatenate([self._base_src[self._base_alive], extra_src])
        dst = np.concatenate([self._base_dst[self._base_alive], extra_dst])
        if not self.weighted:
            return src, dst, None
        extra_val = np.asarray(self._extra_val, dtype=VALUE_DTYPE)[
            extra_alive
        ]
        val = np.concatenate(
            [self._base_val[self._base_alive], extra_val]
        ).astype(VALUE_DTYPE)
        return src, dst, val

    def canonical_edges(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Live edges in canonical ``(dst, src)`` order.

        This is the ordering :meth:`compact` rebuilds under and the one
        the bit-identity check feeds to :func:`from_edges` — the same
        multiset of edges in the same order yields array-identical CSC
        storage.
        """
        src, dst, val = self.live_edges()
        order = np.lexsort((src, dst))
        return src[order], dst[order], None if val is None else val[order]

    # -- cost model ------------------------------------------------------

    def _value_bytes(self, nnz: int) -> int:
        return nnz * np.dtype(VALUE_DTYPE).itemsize if self.weighted else 0

    def _bytes_base(self) -> int:
        return int(
            (self.num_nodes + 1 + 2 * self.base_nnz) * _INDEX_BYTES
            + self._value_bytes(self.base_nnz)
        )

    def _bytes_out(self, nnz: int) -> int:
        # indptr + rows + edge_ids (+ values) of the materialized CSC.
        return int(
            (self.num_nodes + 1 + 2 * nnz) * _INDEX_BYTES
            + self._value_bytes(nnz)
        )

    def merge_workload(self) -> dict:
        """`record()` kwargs for a tombstone-filtered overlay merge."""
        live = self.num_live_edges
        delta_bytes = 2 * len(self._extra_src) * _INDEX_BYTES + self.base_nnz
        return {
            "bytes_read": self._bytes_base() + delta_bytes,
            "bytes_written": self._bytes_out(live),
            # One counting-sort style pass: no comparison sort.
            "flops": live,
            "tasks": max(live, 1),
        }

    def compact_workload(self) -> dict:
        """`record()` kwargs for a canonical rebuild (includes the sort)."""
        workload = self.merge_workload()
        live = self.num_live_edges
        sort_flops = int(live * max(math.log2(live), 1.0)) if live else 0
        workload["flops"] = workload["flops"] + sort_flops
        return workload

    # -- materialization -------------------------------------------------

    def snapshot(self, *, ctx: ExecutionContext = NULL_CONTEXT) -> Matrix:
        """Overlay merge: per-column base survivors first, inserts after.

        Does not reset the delta buffers — the snapshot is a read-only
        view of the current state, and later deltas keep accumulating.
        """
        ctx.record("delta_snapshot", **self.merge_workload())
        src, dst, val = self.live_edges()
        # Edge ids: surviving base edges keep their base CSC position;
        # inserts are numbered past the base, in arrival order.
        base_ids = np.flatnonzero(self._base_alive).astype(INDEX_DTYPE)
        extra_alive = np.array(self._extra_alive, dtype=bool)
        extra_ids = (
            self.base_nnz + np.flatnonzero(extra_alive).astype(INDEX_DTYPE)
        )
        edge_ids = np.concatenate([base_ids, extra_ids])
        # Stable sort by destination preserves the overlay order within
        # each column: base-CSC order, then insert-arrival order.
        order = np.argsort(dst, kind="stable")
        counts = np.bincount(dst, minlength=self.num_nodes)
        indptr = np.zeros(self.num_nodes + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        csc = CSC(
            indptr=indptr,
            rows=src[order],
            values=None if val is None else val[order],
            shape=(self.num_nodes, self.num_nodes),
            edge_ids=edge_ids[order],
        )
        return Matrix(csc, ctx=ctx, is_base_graph=True)

    def compact(self, *, ctx: ExecutionContext = NULL_CONTEXT) -> Matrix:
        """Rebuild the base CSC from the live edge set, canonical order.

        Resets the delta state: the rebuilt CSC becomes the new
        immutable base, the insert buffers and tombstones are cleared.
        The returned :class:`Matrix` is bit-identical to
        ``from_edges(*self.canonical_edges(), num_nodes)``.
        """
        ctx.record("delta_compact", **self.compact_workload())
        src, dst, val = self.canonical_edges()
        matrix = from_edges(
            src,
            dst,
            self.num_nodes,
            weights=val,
            layout="csc",
            ctx=NULL_CONTEXT,
        )
        self._install_base(matrix.get("csc"))
        self._extra_src = []
        self._extra_dst = []
        self._extra_val = []
        self._extra_alive = []
        self._extra_index = {}
        self.compactions += 1
        return matrix
