"""The matrix-centric API: gSampler's user-facing abstraction.

A :class:`Matrix` is a (sub)graph viewed as a sparse adjacency matrix, as
in Section 3 of the paper: entry ``A[u, v]`` is the edge ``u -> v``, so
``A[:, v]`` holds ``v``'s in-coming edges and ``A[v, :]`` its out-going
edges.  Every operator of Table 4 is a method here:

====================  ====================================================
Step                  Operators
====================  ====================================================
Extract               ``A[:, cols]``, ``A[rows, :]``
Compute               ``A @ D``, ``A.add/sub/mul/div(V, axis)``,
                      ``A.sum/mean/max/min(axis)``, ``A <op> v`` for
                      ``+ - * / **``, ``A.scale(t, i)``
Select                ``A.individual_sample(K, probs)``,
                      ``A.collective_sample(K, node_probs)``,
                      ``A.labor_sample(K)``
Finalize              ``A.row()``, ``A.column()``
====================  ====================================================

Axis convention: ``axis=0`` refers to the *row* dimension — ``sum(axis=0)``
returns one value per row (reducing across that row's edges), and
``div(V, axis=0)`` divides each edge by ``V[row]``.  ``axis=1`` is the
column (frontier) dimension.

A matrix may be a slice of a larger graph; ``row_ids``/``col_ids`` map its
local indices back to original node ids, and ``row()``/``column()`` always
return *original* ids so users never handle id remapping themselves (the
paper calls this out as a usability win over DGL/PyG).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core import sampling
from repro.device import NULL_CONTEXT, ExecutionContext
from repro.errors import FormatError, ShapeError
from repro.sparse import (
    INDEX_DTYPE,
    LAYOUTS,
    SparseFormat,
    as_index_array,
    convert,
    edge_values,
)


class Matrix:
    """A sparse (sub)graph with the Table-4 operator set.

    Parameters
    ----------
    storage:
        Any of the three sparse containers; further layouts are produced
        (and cached) on demand.
    row_ids / col_ids:
        Local-to-original id maps; ``None`` means the identity.
    ctx:
        Execution context used to account eager kernel launches.
    is_base_graph:
        Marks the matrix as the input graph; reads from it are charged as
        UVA traffic when the graph is host-resident.
    """

    __array_priority__ = 100  # keep NumPy from hijacking our operators

    def __init__(
        self,
        storage: SparseFormat,
        *,
        row_ids: np.ndarray | None = None,
        col_ids: np.ndarray | None = None,
        ctx: ExecutionContext = NULL_CONTEXT,
        is_base_graph: bool = False,
    ) -> None:
        self._storages: dict[str, SparseFormat] = {storage.layout: storage}
        self.shape: tuple[int, int] = storage.shape
        self.row_ids = None if row_ids is None else as_index_array(row_ids)
        self.col_ids = None if col_ids is None else as_index_array(col_ids)
        self.ctx = ctx
        self.is_base_graph = is_base_graph
        if self.row_ids is not None and len(self.row_ids) != self.shape[0]:
            raise ShapeError("row_ids length must equal row count")
        if self.col_ids is not None and len(self.col_ids) != self.shape[1]:
            raise ShapeError("col_ids length must equal column count")

    # ------------------------------------------------------------------
    # Storage management
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return next(iter(self._storages.values())).nnz

    @property
    def available_layouts(self) -> tuple[str, ...]:
        return tuple(sorted(self._storages))

    def get(self, layout: str) -> SparseFormat:
        """Fetch (converting and caching if needed) the given layout."""
        if layout not in LAYOUTS:
            raise FormatError(f"unknown layout {layout!r}; expected one of {LAYOUTS}")
        if layout not in self._storages:
            src = self._preferred_source(layout)
            self._storages[layout] = convert(src, layout, self.ctx)
        return self._storages[layout]

    def _preferred_source(self, target: str) -> SparseFormat:
        """Cheapest available source format for converting to ``target``."""
        # Decompression (csr/csc -> coo) is cheap; compression is not.
        if target == "coo":
            for name in ("csr", "csc"):
                if name in self._storages:
                    return self._storages[name]
        if "coo" in self._storages:
            return self._storages["coo"]
        return next(iter(self._storages.values()))

    def any_storage(self) -> SparseFormat:
        """Some already-materialized storage (no conversion)."""
        return next(iter(self._storages.values()))

    def _spawn(
        self,
        storage: SparseFormat,
        *,
        row_ids: np.ndarray | None = None,
        col_ids: np.ndarray | None = None,
    ) -> "Matrix":
        """Child matrix inheriting context; never a base graph."""
        return Matrix(
            storage,
            row_ids=self.row_ids if row_ids is None else row_ids,
            col_ids=self.col_ids if col_ids is None else col_ids,
            ctx=self.ctx,
            is_base_graph=False,
        )

    def with_values(self, values: np.ndarray) -> "Matrix":
        """Same topology, new per-edge values (order of primary storage)."""
        values = np.asarray(values)
        if values.shape != (self.nnz,):
            raise ShapeError(
                f"values shape {values.shape} != nnz ({self.nnz},)"
            )
        from repro.sparse.kernels import _with_values

        out = _with_values(self.any_storage(), values)
        return self._spawn(out)

    def nbytes(self) -> int:
        """Total bytes across all materialized layouts."""
        return sum(s.nbytes() for s in self._storages.values())

    # ------------------------------------------------------------------
    # Extract step
    # ------------------------------------------------------------------
    def __getitem__(self, key: object) -> "Matrix":
        """``A[:, cols]`` and ``A[rows, :]`` slicing; also ``A[rows, cols]``."""
        if not isinstance(key, tuple) or len(key) != 2:
            raise ShapeError("matrix slicing requires A[rows, cols] syntax")
        row_key, col_key = key
        result = self
        if not _is_full_slice(col_key):
            result = result.slice_cols(col_key)
        if not _is_full_slice(row_key):
            result = result.slice_rows(row_key)
        if _is_full_slice(row_key) and _is_full_slice(col_key):
            return self
        return result

    def slice_cols(self, cols: np.ndarray, layout: str | None = None) -> "Matrix":
        """``A[:, cols]`` — the in-neighbor subgraph of ``cols``.

        ``cols`` are *original* node ids when the matrix has no col map,
        otherwise local column positions.
        """
        return self._slice(cols, 1, layout)

    def slice_rows(self, rows: np.ndarray, layout: str | None = None) -> "Matrix":
        """``A[rows, :]`` — the out-neighbor subgraph of ``rows``."""
        return self._slice(rows, 0, layout)

    def _slice(self, ids: np.ndarray, axis: int, layout: str | None) -> "Matrix":
        from repro.sparse import slice_columns, slice_rows

        src = self.get(layout) if layout else self._source_along(axis)
        out = (slice_rows, slice_columns)[axis](
            src, ids, self.ctx, graph_read=self.is_base_graph
        )
        # The kernel refused any ``ids`` that are not ids of this axis.
        return self._spawn_selected(out, axis, as_index_array(ids))

    def _source_along(self, axis: int) -> SparseFormat:
        """The storage compressed along ``axis`` (rows: CSR, columns: CSC)
        when it is materialized — slices and reductions are cheapest there —
        else whatever is, without converting."""
        return self._storages.get(("csr", "csc")[axis], self.any_storage())

    def _spawn_selected(
        self, storage: SparseFormat, axis: int, ids: np.ndarray
    ) -> "Matrix":
        """Child whose ``axis`` keeps this matrix's local positions ``ids``."""
        old = (self.row_ids, self.col_ids)[axis]
        new = ids if old is None else old[ids]
        return self._spawn(storage, **{("row_ids", "col_ids")[axis]: new})

    # ------------------------------------------------------------------
    # Compute step
    # ------------------------------------------------------------------
    def _map_scalar(self, op: str, other: object) -> "Matrix":
        from repro.sparse import map_edges_combine, map_edges_scalar

        if isinstance(other, Matrix):
            out = map_edges_combine(
                self.any_storage(), op, other.any_storage(), self.ctx
            )
        else:
            out = map_edges_scalar(self.any_storage(), op, float(other), self.ctx)  # type: ignore[arg-type]
        return self._spawn(out)

    def __add__(self, other: object) -> "Matrix":
        return self._map_scalar("add", other)

    def __sub__(self, other: object) -> "Matrix":
        return self._map_scalar("sub", other)

    def __mul__(self, other: object) -> "Matrix":
        return self._map_scalar("mul", other)

    def __truediv__(self, other: object) -> "Matrix":
        return self._map_scalar("div", other)

    def __pow__(self, other: object) -> "Matrix":
        return self._map_scalar("pow", other)

    def __radd__(self, other: object) -> "Matrix":
        return self._map_scalar("add", other)

    def __rmul__(self, other: object) -> "Matrix":
        return self._map_scalar("mul", other)

    def add(self, vector: np.ndarray, axis: int = 0) -> "Matrix":
        """Broadcast add: edge ``(u, v)`` += ``vector[u]`` (axis 0) or ``[v]``."""
        return self._broadcast("add", vector, axis)

    def sub(self, vector: np.ndarray, axis: int = 0) -> "Matrix":
        """Broadcast subtract along ``axis``."""
        return self._broadcast("sub", vector, axis)

    def mul(self, vector: np.ndarray, axis: int = 0) -> "Matrix":
        """Broadcast multiply along ``axis``."""
        return self._broadcast("mul", vector, axis)

    def div(self, vector: np.ndarray, axis: int = 0) -> "Matrix":
        """Broadcast divide along ``axis``."""
        return self._broadcast("div", vector, axis)

    def _broadcast(self, op: str, vector: np.ndarray, axis: int) -> "Matrix":
        from repro.sparse import map_edges_broadcast

        out = map_edges_broadcast(
            self.any_storage(), op, np.asarray(vector), axis, self.ctx
        )
        return self._spawn(out)

    def sum(self, axis: int = 0, layout: str | None = None) -> np.ndarray:
        """Per-row (axis 0) or per-column (axis 1) edge-value sums."""
        return self._reduce("sum", axis, layout)

    def mean(self, axis: int = 0, layout: str | None = None) -> np.ndarray:
        """Per-row / per-column means (0 for empty rows/columns)."""
        return self._reduce("mean", axis, layout)

    def max(self, axis: int = 0, layout: str | None = None) -> np.ndarray:
        """Per-row / per-column maxima (-inf for empty)."""
        return self._reduce("max", axis, layout)

    def min(self, axis: int = 0, layout: str | None = None) -> np.ndarray:
        """Per-row / per-column minima (+inf for empty)."""
        return self._reduce("min", axis, layout)

    def _reduce(self, op: str, axis: int, layout: str | None) -> np.ndarray:
        from repro.sparse import reduce_cols, reduce_rows

        if axis not in (0, 1):
            raise ShapeError(f"reduce axis must be 0 or 1, got {axis}")
        src = self.get(layout) if layout else self._source_along(axis)
        return (reduce_rows, reduce_cols)[axis](src, op, self.ctx)

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        """``A @ D`` — SpMM against a dense matrix/vector."""
        from repro.sparse import spmm

        return spmm(self.any_storage(), np.asarray(dense), self.ctx)

    def sddmm(self, row_feats: np.ndarray, col_feats: np.ndarray) -> "Matrix":
        """Per-edge inner products of endpoint features (PASS attention)."""
        from repro.sparse import sddmm_dot

        out = sddmm_dot(
            self.any_storage(), np.asarray(row_feats), np.asarray(col_feats), self.ctx
        )
        return self._spawn(out)

    def relu(self) -> "Matrix":
        """Element-wise ReLU on edge values."""
        return self._unary("relu")

    def exp(self) -> "Matrix":
        """Element-wise exp on edge values."""
        return self._unary("exp")

    def log(self) -> "Matrix":
        """Element-wise log on edge values."""
        return self._unary("log")

    def scale(self, tensor: np.ndarray, index: int, op: str = "mul") -> "Matrix":
        """Combine every edge with the one element ``tensor[index]``
        (PASS's mix of attention matrices by a learned softmax vector)."""
        return self._map_scalar(op, np.asarray(tensor).reshape(-1)[index])

    def _unary(self, op: str) -> "Matrix":
        from repro.sparse import map_edges_unary

        out = map_edges_unary(self.any_storage(), op, self.ctx)
        return self._spawn(out)

    # ------------------------------------------------------------------
    # Select step
    # ------------------------------------------------------------------
    def individual_sample(
        self,
        k: int,
        probs: "Matrix | np.ndarray | None" = None,
        *,
        replace: bool = False,
        rng: np.random.Generator | None = None,
    ) -> "Matrix":
        """Node-wise sampling: each frontier column keeps up to ``k`` edges."""
        raw_probs: SparseFormat | np.ndarray | None
        if isinstance(probs, Matrix):
            raw_probs = probs.get("csc")
        else:
            raw_probs = probs
        out = sampling.individual_sample(
            self.get("csc"), k, raw_probs, replace=replace, rng=rng, ctx=self.ctx
        )
        return self._spawn(out)

    def labor_sample(
        self,
        k: int,
        *,
        rng: np.random.Generator | None = None,
    ) -> "Matrix":
        """LABOR variance-reduced sampling: correlated per-row coins,
        Horvitz–Thompson edge weights, same per-edge marginals as
        ``individual_sample(k)`` but smaller union frontiers."""
        out = sampling.labor_sample(self.get("csc"), k, rng=rng, ctx=self.ctx)
        return self._spawn(out)

    def collective_sample(
        self,
        k: int,
        node_probs: np.ndarray | None = None,
        *,
        replace: bool = False,
        rng: np.random.Generator | None = None,
    ) -> "Matrix":
        """Layer-wise sampling: keep ``k`` row nodes jointly, compacted."""
        result = sampling.collective_sample(
            self.get("csc"), k, node_probs, replace=replace, rng=rng, ctx=self.ctx
        )
        return self._spawn_selected(result.matrix, 0, result.selected_rows)

    # ------------------------------------------------------------------
    # Finalize step
    # ------------------------------------------------------------------
    def row(self) -> np.ndarray:
        """Original ids of this matrix's row nodes.

        For a compacted matrix this is its explicit row set; otherwise the
        (sorted, deduplicated) rows that carry at least one edge — exactly
        the candidates a finalize step promotes to next-layer frontiers.
        """
        if self.row_ids is not None:
            return self.row_ids
        from repro.sparse import occupied_rows

        return occupied_rows(self.any_storage(), self.ctx)

    def column(self) -> np.ndarray:
        """Original ids of this matrix's column (frontier) nodes."""
        if self.col_ids is not None:
            return self.col_ids
        return np.arange(self.shape[1], dtype=INDEX_DTYPE)

    def compact(self, axis: int = 0) -> "Matrix":
        """Drop isolated rows (axis 0) or columns (axis 1), keeping id maps."""
        from repro.sparse import compact_cols, compact_rows

        if axis not in (0, 1):
            raise ShapeError(f"compact axis must be 0 or 1, got {axis}")
        result = (compact_rows, compact_cols)[axis](self.any_storage(), self.ctx)
        kept = (result.row_ids, result.col_ids)[axis]
        return self._spawn_selected(result.matrix, axis, kept)

    # ------------------------------------------------------------------
    # Export / interop
    # ------------------------------------------------------------------
    def to_coo_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, weight)`` arrays in *original* node ids.

        This is the basis of the ``to_dgl_graph`` / ``to_pyg_graph``
        converters: the edge ``A[u, v]`` becomes ``src=u, dst=v``.
        """
        coo = self.get("coo")
        rows = coo.rows if self.row_ids is None else self.row_ids[coo.rows]
        cols = coo.cols if self.col_ids is None else self.col_ids[coo.cols]
        return rows, cols, edge_values(coo)

    def edge_ids(self) -> np.ndarray:
        """Original-graph edge ids of this matrix's edges."""
        from repro.sparse import edge_ids_or_identity

        return edge_ids_or_identity(self.any_storage())


def _is_full_slice(key: object) -> bool:
    return isinstance(key, slice) and key == slice(None)


def from_edges(
    src: Sequence[int] | np.ndarray,
    dst: Sequence[int] | np.ndarray,
    num_nodes: int,
    *,
    weights: np.ndarray | None = None,
    layout: str = "csc",
    ctx: ExecutionContext = NULL_CONTEXT,
    is_base_graph: bool = True,
) -> Matrix:
    """Build a square graph matrix from ``src -> dst`` edge arrays.

    The matrix entry for edge ``u -> v`` is ``A[u, v]``, so frontier
    in-neighborhoods are column slices, matching the paper.  The graph is
    stored in ``layout`` (CSC by default, the best format for the extract
    step — the choice DGL/PyG and gSampler all make for the input graph).
    """
    from repro.sparse import COO

    src_arr = as_index_array(np.asarray(src))
    dst_arr = as_index_array(np.asarray(dst))
    coo = COO(
        rows=src_arr,
        cols=dst_arr,
        values=None if weights is None else np.asarray(weights),
        shape=(num_nodes, num_nodes),
        edge_ids=np.arange(len(src_arr), dtype=INDEX_DTYPE),
    )
    storage = convert(coo, layout)
    return Matrix(storage, ctx=ctx, is_base_graph=is_base_graph)
