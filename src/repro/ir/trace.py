"""Symbolic tracer: records matrix-API programs into the data-flow IR.

This plays the role torch.fx plays in the original system (Section 4.5):
the user's sampling function is executed once with proxy objects standing
in for the graph matrix, the frontier tensor, and any auxiliary tensors;
every operator the function applies is appended to a
:class:`~repro.ir.graph.DataFlowGraph`.

Proxies carry *metadata estimates* (expected rows/cols/nnz) propagated
from the example inputs; the layout-selection pass prices candidate
layouts with them, mirroring how gSampler amortizes a brute-force search
over many mini-batches of similar size.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np

from repro.core.matrix import Matrix
from repro.errors import TraceError
from repro.ir.graph import DataFlowGraph


@dataclasses.dataclass
class Meta:
    """Size/shape estimates attached to every traced value."""

    kind: str  # "matrix" | "tensor" | "index"
    est_rows: float = 0.0
    est_cols: float = 0.0
    est_nnz: float = 0.0
    is_base_graph: bool = False
    #: For matrices: whether rows are compacted (local id space).
    compacted: bool = False


class Proxy:
    """Base class: a traced value = (tracer, node id, metadata)."""

    def __init__(self, tracer: "Tracer", node_id: int, meta: Meta) -> None:
        self.tracer = tracer
        self.node_id = node_id
        self.meta = meta
        # Stamp the metadata onto the IR node so passes can see size
        # estimates and base-graph provenance without the proxy objects.
        tracer.graph.node(node_id).attrs["_meta"] = meta

    def __bool__(self) -> bool:
        raise TraceError(
            "data-dependent control flow cannot be traced; hoist the "
            "branch out of the sampling function"
        )


class TensorProxy(Proxy):
    """A traced dense vector/matrix or index array."""

    def _binop(self, op: str, other: object, reverse: bool = False) -> "TensorProxy":
        tracer = self.tracer
        if isinstance(other, TensorProxy):
            inputs = (other.node_id, self.node_id) if reverse else (
                self.node_id,
                other.node_id,
            )
            node = tracer.graph.add_node("t_binop", inputs, {"op": op})
        else:
            node = tracer.graph.add_node(
                "t_binop_scalar",
                (self.node_id,),
                {"op": op, "scalar": float(other), "reverse": reverse},  # type: ignore[arg-type]
            )
        return TensorProxy(tracer, node.node_id, Meta("tensor", self.meta.est_rows))

    def __add__(self, other: object) -> "TensorProxy":
        return self._binop("add", other)

    def __radd__(self, other: object) -> "TensorProxy":
        return self._binop("add", other, reverse=True)

    def __sub__(self, other: object) -> "TensorProxy":
        return self._binop("sub", other)

    def __rsub__(self, other: object) -> "TensorProxy":
        return self._binop("sub", other, reverse=True)

    def __mul__(self, other: object) -> "TensorProxy":
        return self._binop("mul", other)

    def __rmul__(self, other: object) -> "TensorProxy":
        return self._binop("mul", other, reverse=True)

    def __truediv__(self, other: object) -> "TensorProxy":
        return self._binop("div", other)

    def __rtruediv__(self, other: object) -> "TensorProxy":
        return self._binop("div", other, reverse=True)

    def __pow__(self, other: object) -> "TensorProxy":
        return self._binop("pow", other)

    def __getitem__(self, idx: object) -> "TensorProxy":
        if not isinstance(idx, TensorProxy):
            raise TraceError("tensor indexing in a trace requires a traced index")
        node = self.tracer.graph.add_node(
            "t_index", (self.node_id, idx.node_id), {}
        )
        return TensorProxy(
            self.tracer, node.node_id, Meta("tensor", idx.meta.est_rows)
        )

    def sum(self) -> "TensorProxy":
        node = self.tracer.graph.add_node("t_sum", (self.node_id,), {})
        return TensorProxy(self.tracer, node.node_id, Meta("tensor", 1.0))

    def relu(self) -> "TensorProxy":
        node = self.tracer.graph.add_node("t_unop", (self.node_id,), {"op": "relu"})
        return TensorProxy(self.tracer, node.node_id, self.meta)

    def softmax(self) -> "TensorProxy":
        node = self.tracer.graph.add_node("t_unop", (self.node_id,), {"op": "softmax"})
        return TensorProxy(self.tracer, node.node_id, self.meta)

    def __matmul__(self, other: object) -> "TensorProxy":
        other_p = self.tracer.lift(other)
        node = self.tracer.graph.add_node(
            "t_matmul", (self.node_id, other_p.node_id), {}
        )
        return TensorProxy(self.tracer, node.node_id, Meta("tensor", self.meta.est_rows))


class MatrixProxy(Proxy):
    """A traced :class:`~repro.core.matrix.Matrix`."""

    # -- extract -------------------------------------------------------
    def __getitem__(self, key: object) -> "MatrixProxy":
        if not isinstance(key, tuple) or len(key) != 2:
            raise TraceError("matrix slicing requires A[rows, cols] syntax")
        row_key, col_key = key
        result: MatrixProxy = self
        if not _is_full_slice(col_key):
            result = result._slice("slice_cols", col_key)
        if not _is_full_slice(row_key):
            result = result._slice("slice_rows", row_key)
        return result

    def _slice(self, op: str, idx: object) -> "MatrixProxy":
        idx_proxy = self.tracer.lift(idx)
        node = self.tracer.graph.add_node(op, (self.node_id, idx_proxy.node_id), {})
        count = idx_proxy.meta.est_rows or 1.0
        avg_deg = self.meta.est_nnz / max(
            self.meta.est_cols if op == "slice_cols" else self.meta.est_rows, 1.0
        )
        if op == "slice_cols":
            meta = Meta(
                "matrix",
                est_rows=self.meta.est_rows,
                est_cols=count,
                est_nnz=avg_deg * count,
            )
        else:
            meta = Meta(
                "matrix",
                est_rows=count,
                est_cols=self.meta.est_cols,
                est_nnz=avg_deg * count,
            )
        return MatrixProxy(self.tracer, node.node_id, meta)

    # -- compute -------------------------------------------------------
    def _map_scalar(self, op: str, other: object, reverse: bool = False) -> "MatrixProxy":
        if isinstance(other, MatrixProxy):
            node = self.tracer.graph.add_node(
                "map_combine", (self.node_id, other.node_id), {"op": op}
            )
        else:
            node = self.tracer.graph.add_node(
                "map_scalar",
                (self.node_id,),
                {"op": op, "scalar": float(other), "reverse": reverse},  # type: ignore[arg-type]
            )
        return MatrixProxy(self.tracer, node.node_id, dataclasses.replace(self.meta, is_base_graph=False))

    def __add__(self, other: object) -> "MatrixProxy":
        return self._map_scalar("add", other)

    def __radd__(self, other: object) -> "MatrixProxy":
        return self._map_scalar("add", other)

    def __sub__(self, other: object) -> "MatrixProxy":
        return self._map_scalar("sub", other)

    def __mul__(self, other: object) -> "MatrixProxy":
        return self._map_scalar("mul", other)

    def __rmul__(self, other: object) -> "MatrixProxy":
        return self._map_scalar("mul", other, reverse=True)

    def __truediv__(self, other: object) -> "MatrixProxy":
        return self._map_scalar("div", other)

    def __pow__(self, other: object) -> "MatrixProxy":
        return self._map_scalar("pow", other)

    def _broadcast(self, op: str, vector: object, axis: int) -> "MatrixProxy":
        vec = self.tracer.lift(vector)
        node = self.tracer.graph.add_node(
            "map_broadcast", (self.node_id, vec.node_id), {"op": op, "axis": axis}
        )
        return MatrixProxy(self.tracer, node.node_id, dataclasses.replace(self.meta, is_base_graph=False))

    def add(self, vector: object, axis: int = 0) -> "MatrixProxy":
        return self._broadcast("add", vector, axis)

    def sub(self, vector: object, axis: int = 0) -> "MatrixProxy":
        return self._broadcast("sub", vector, axis)

    def mul(self, vector: object, axis: int = 0) -> "MatrixProxy":
        return self._broadcast("mul", vector, axis)

    def div(self, vector: object, axis: int = 0) -> "MatrixProxy":
        return self._broadcast("div", vector, axis)

    def _reduce(self, op: str, axis: int) -> TensorProxy:
        node = self.tracer.graph.add_node(
            "reduce", (self.node_id,), {"op": op, "axis": axis}
        )
        length = self.meta.est_rows if axis == 0 else self.meta.est_cols
        return TensorProxy(self.tracer, node.node_id, Meta("tensor", length))

    def sum(self, axis: int = 0) -> TensorProxy:
        return self._reduce("sum", axis)

    def mean(self, axis: int = 0) -> TensorProxy:
        return self._reduce("mean", axis)

    def max(self, axis: int = 0) -> TensorProxy:
        return self._reduce("max", axis)

    def min(self, axis: int = 0) -> TensorProxy:
        return self._reduce("min", axis)

    def __matmul__(self, dense: object) -> TensorProxy:
        dense_p = self.tracer.lift(dense)
        node = self.tracer.graph.add_node(
            "spmm", (self.node_id, dense_p.node_id), {}
        )
        return TensorProxy(self.tracer, node.node_id, Meta("tensor", self.meta.est_rows))

    def sddmm(self, row_feats: object, col_feats: object) -> "MatrixProxy":
        rf = self.tracer.lift(row_feats)
        cf = self.tracer.lift(col_feats)
        node = self.tracer.graph.add_node(
            "sddmm", (self.node_id, rf.node_id, cf.node_id), {}
        )
        return MatrixProxy(self.tracer, node.node_id, dataclasses.replace(self.meta, is_base_graph=False))

    def relu(self) -> "MatrixProxy":
        return self._unary("relu")

    def exp(self) -> "MatrixProxy":
        return self._unary("exp")

    def log(self) -> "MatrixProxy":
        return self._unary("log")

    def _unary(self, op: str) -> "MatrixProxy":
        node = self.tracer.graph.add_node("map_unary", (self.node_id,), {"op": op})
        return MatrixProxy(self.tracer, node.node_id, dataclasses.replace(self.meta, is_base_graph=False))

    def scale(self, tensor: object, index: int, op: str = "mul") -> "MatrixProxy":
        """Combine every edge with one element of a traced tensor.

        Used by model-driven algorithms (PASS) that weight whole
        attention matrices by entries of a learned softmax vector.
        """
        t = self.tracer.lift(tensor)
        node = self.tracer.graph.add_node(
            "map_tscalar", (self.node_id, t.node_id), {"op": op, "index": int(index)}
        )
        return MatrixProxy(self.tracer, node.node_id, dataclasses.replace(self.meta, is_base_graph=False))

    # -- select --------------------------------------------------------
    def individual_sample(
        self,
        k: int,
        probs: object = None,
        *,
        replace: bool = False,
    ) -> "MatrixProxy":
        inputs = [self.node_id]
        if probs is not None:
            inputs.append(self.tracer.lift(probs).node_id)
        node = self.tracer.graph.add_node(
            "individual_sample",
            tuple(inputs),
            {"k": int(k), "replace": bool(replace), "has_probs": probs is not None},
        )
        est_nnz = min(self.meta.est_nnz, float(k) * max(self.meta.est_cols, 1.0))
        meta = Meta(
            "matrix",
            est_rows=self.meta.est_rows,
            est_cols=self.meta.est_cols,
            est_nnz=est_nnz,
        )
        return MatrixProxy(self.tracer, node.node_id, meta)

    def labor_sample(self, k: int) -> "MatrixProxy":
        node = self.tracer.graph.add_node(
            "labor_sample", (self.node_id,), {"k": int(k)}
        )
        # Expected kept edges per column equal individual_sample's; the
        # correlation shrinks the row *union*, not the edge count.
        est_nnz = min(self.meta.est_nnz, float(k) * max(self.meta.est_cols, 1.0))
        meta = Meta(
            "matrix",
            est_rows=self.meta.est_rows,
            est_cols=self.meta.est_cols,
            est_nnz=est_nnz,
        )
        return MatrixProxy(self.tracer, node.node_id, meta)

    def collective_sample(
        self,
        k: int,
        node_probs: object = None,
        *,
        replace: bool = False,
    ) -> "MatrixProxy":
        inputs = [self.node_id]
        if node_probs is not None:
            inputs.append(self.tracer.lift(node_probs).node_id)
        node = self.tracer.graph.add_node(
            "collective_sample",
            tuple(inputs),
            {"k": int(k), "replace": bool(replace), "has_probs": node_probs is not None},
        )
        density = self.meta.est_nnz / max(self.meta.est_rows, 1.0)
        meta = Meta(
            "matrix",
            est_rows=float(k),
            est_cols=self.meta.est_cols,
            est_nnz=density * k,
            compacted=True,
        )
        return MatrixProxy(self.tracer, node.node_id, meta)

    # -- finalize ------------------------------------------------------
    def row(self) -> TensorProxy:
        node = self.tracer.graph.add_node("row", (self.node_id,), {})
        return TensorProxy(
            self.tracer,
            node.node_id,
            Meta("index", est_rows=min(self.meta.est_nnz, self.meta.est_rows)),
        )

    def column(self) -> TensorProxy:
        node = self.tracer.graph.add_node("column", (self.node_id,), {})
        return TensorProxy(
            self.tracer, node.node_id, Meta("index", est_rows=self.meta.est_cols)
        )

    def compact(self, axis: int = 0) -> "MatrixProxy":
        node = self.tracer.graph.add_node("compact", (self.node_id,), {"axis": axis})
        rows = min(self.meta.est_nnz, self.meta.est_rows) if axis == 0 else self.meta.est_rows
        cols = self.meta.est_cols if axis == 0 else min(self.meta.est_nnz, self.meta.est_cols)
        return MatrixProxy(
            self.tracer,
            node.node_id,
            Meta("matrix", rows, cols, self.meta.est_nnz, compacted=True),
        )


class Tracer:
    """Records one execution of a sampling function into IR."""

    def __init__(self) -> None:
        self.graph = DataFlowGraph()
        self._consts: dict[int, object] = {}

    # ------------------------------------------------------------------
    def add_graph_input(self, name: str, example: Matrix) -> MatrixProxy:
        node = self.graph.add_node("input_graph", (), {"name": name}, name=name)
        meta = Meta(
            "matrix",
            est_rows=float(example.shape[0]),
            est_cols=float(example.shape[1]),
            est_nnz=float(example.nnz),
            is_base_graph=example.is_base_graph,
        )
        return MatrixProxy(self, node.node_id, meta)

    def add_tensor_input(self, name: str, example: np.ndarray) -> TensorProxy:
        node = self.graph.add_node("input_tensor", (), {"name": name}, name=name)
        kind = "index" if np.issubdtype(np.asarray(example).dtype, np.integer) else "tensor"
        return TensorProxy(self, node.node_id, Meta(kind, float(len(example))))

    def lift(self, value: object) -> Proxy:
        """Wrap a literal ndarray/scalar as a const node; pass proxies through."""
        if isinstance(value, Proxy):
            return value
        if isinstance(value, Matrix):
            raise TraceError(
                "concrete Matrix objects cannot enter a trace; pass them "
                "as graph inputs"
            )
        arr = np.asarray(value)
        node = self.graph.add_node("const", (), {"_value": arr})
        self._consts[node.node_id] = arr
        kind = "index" if np.issubdtype(arr.dtype, np.integer) else "tensor"
        length = float(arr.shape[0]) if arr.ndim >= 1 else 1.0
        return TensorProxy(self, node.node_id, Meta(kind, length))

    # ------------------------------------------------------------------
    def finish(self, result: object) -> DataFlowGraph:
        """Register the function's return value as graph outputs."""
        self.graph.outputs = [p.node_id for p in _flatten_proxies(result)]
        self.graph.validate()
        return self.graph


def _flatten_proxies(result: object) -> list[Proxy]:
    if isinstance(result, Proxy):
        return [result]
    if isinstance(result, (tuple, list)):
        out: list[Proxy] = []
        for item in result:
            out.extend(_flatten_proxies(item))
        return out
    raise TraceError(
        f"sampling functions must return proxies or tuples of proxies, "
        f"got {type(result).__name__}"
    )


def _is_full_slice(key: object) -> bool:
    return isinstance(key, slice) and key == slice(None)


def trace(
    fn: Callable,
    graph: Matrix,
    example_frontiers: np.ndarray,
    *,
    constants: dict | None = None,
    tensors: dict[str, np.ndarray] | None = None,
) -> tuple[DataFlowGraph, dict]:
    """Trace ``fn(A, frontiers, **constants, **tensors)`` into IR.

    Returns the IR graph and the structure of the function's return value
    (``"pair"`` for the common ``(matrix, next_frontiers)`` shape,
    ``"single"`` otherwise) so the runtime can re-assemble results.
    """
    tracer = Tracer()
    a_proxy = tracer.add_graph_input("A", graph)
    f_proxy = tracer.add_tensor_input("frontiers", np.asarray(example_frontiers))
    tensor_proxies = {
        name: tracer.add_tensor_input(name, arr)
        for name, arr in (tensors or {}).items()
    }
    result = fn(a_proxy, f_proxy, **(constants or {}), **tensor_proxies)
    structure = _structure_of(result)
    ir = tracer.finish(result)
    return ir, {"structure": structure}


def _structure_of(result: object) -> object:
    if isinstance(result, Proxy):
        return "leaf"
    if isinstance(result, (tuple, list)):
        return tuple(_structure_of(r) for r in result)
    raise TraceError(f"untraceable return value of type {type(result).__name__}")
