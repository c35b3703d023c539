"""Eager reference executor: the oracle every optimized variant answers to.

The oracle runs a *traced but unoptimized* program op-by-op — no pass
manager, no layout stamps, no fused kernels, no memory accounting.  Edge
arithmetic, broadcasts, reductions, SpMM, and SDDMM are recomputed in
plain NumPy over per-edge ``(row, col)`` index views, so a bug in any
compute kernel or in any IR pass cannot cancel itself out of the
comparison.  Only the two stochastic select primitives are shared with
the production path (they are unit-tested against closed-form
distributions separately); everything the compiler may rewrite is
recomputed independently here.

Because the oracle walks nodes in the same topological order and feeds
the select primitives identical inputs, a run with the same RNG stream
as an un-optimized compiled sampler must match it *exactly* — the
differential-testing layer — while distribution-level equivalence
against every optimized variant is established statistically by
:mod:`repro.verify.equivalence`.
"""

from __future__ import annotations

import numpy as np

from repro.core import new_rng
from repro.core.matrix import Matrix
from repro.errors import TraceError
from repro.ir.graph import DataFlowGraph, Node
from repro.ir.trace import trace
from repro.sampler import _unflatten
from repro.sparse import edge_endpoints, edge_values

__all__ = ["EagerOracle", "trace_oracle"]


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


_BINOPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "pow": np.power,
}

_UNOPS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "softmax": _softmax,
    "exp": np.exp,
    "log": np.log,
}


class EagerOracle:
    """Executes an unoptimized trace op-by-op through reference code."""

    def __init__(
        self, ir: DataFlowGraph, graph: Matrix, structure: object
    ) -> None:
        self.ir = ir
        self.graph = graph
        self.structure = structure

    # ------------------------------------------------------------------
    def run(
        self,
        frontiers: np.ndarray,
        *,
        tensors: dict[str, np.ndarray] | None = None,
        rng: np.random.Generator | None = None,
    ) -> object:
        """Execute one mini-batch eagerly; same contract as
        :meth:`repro.sampler.CompiledSampler.run`."""
        rng = rng if rng is not None else new_rng(None)
        inputs: dict[str, object] = {
            "A": self.graph,
            "frontiers": np.asarray(frontiers),
        }
        inputs.update(tensors or {})
        env: dict[int, object] = {}
        for node in self.ir.nodes():
            handler = getattr(self, f"_op_{node.op}", None)
            if handler is None:
                raise TraceError(
                    f"eager oracle cannot execute op {node.op!r}; it only "
                    "runs unoptimized traces (compile-time ops like fused "
                    "kernels must never reach the oracle)"
                )
            args = [env[i] for i in node.inputs]
            env[node.node_id] = handler(node, args, inputs, rng)
        outputs = [env[i] for i in self.ir.outputs]
        return _unflatten(self.structure, outputs)

    # ------------------------------------------------------------------
    # Per-edge reference arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _edge_view(matrix: Matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)`` in the matrix's primary storage order."""
        storage = matrix.any_storage()
        rows, cols = edge_endpoints(storage)
        return rows, cols, edge_values(storage).astype(np.float64)

    # -- inputs --------------------------------------------------------
    def _op_input_graph(self, node, args, inputs, rng):
        value = inputs[node.attrs["name"]]
        if not isinstance(value, Matrix):
            raise TraceError(f"input {node.attrs['name']!r} must be a Matrix")
        return value

    def _op_input_tensor(self, node, args, inputs, rng):
        return np.asarray(inputs[node.attrs["name"]])

    def _op_const(self, node, args, inputs, rng):
        return node.attrs["_value"]

    # -- extract -------------------------------------------------------
    def _op_slice_cols(self, node, args, inputs, rng):
        matrix, idx = args
        return matrix.slice_cols(np.asarray(idx))

    def _op_slice_rows(self, node, args, inputs, rng):
        matrix, idx = args
        return matrix.slice_rows(np.asarray(idx))

    # -- compute (reference numpy over edge views) ---------------------
    def _op_map_scalar(self, node, args, inputs, rng):
        (matrix,) = args
        fn = _BINOPS[node.attrs["op"]]
        scalar = node.attrs["scalar"]
        values = self._edge_view(matrix)[2]
        out = fn(scalar, values) if node.attrs.get("reverse") else fn(values, scalar)
        return matrix.with_values(out)

    def _op_map_unary(self, node, args, inputs, rng):
        (matrix,) = args
        return matrix.with_values(_UNOPS[node.attrs["op"]](self._edge_view(matrix)[2]))

    def _op_map_combine(self, node, args, inputs, rng):
        a, b = args
        if a.nnz != b.nnz:
            raise TraceError("map_combine operands must share one topology")
        return a.with_values(
            _BINOPS[node.attrs["op"]](self._edge_view(a)[2], self._edge_view(b)[2])
        )

    def _op_map_tscalar(self, node, args, inputs, rng):
        matrix, tensor = args
        scalar = float(np.asarray(tensor).reshape(-1)[node.attrs["index"]])
        return matrix.with_values(
            _BINOPS[node.attrs["op"]](self._edge_view(matrix)[2], scalar)
        )

    def _op_map_broadcast(self, node, args, inputs, rng):
        matrix, vector = args
        rows, cols, values = self._edge_view(matrix)
        vector = np.asarray(vector, dtype=np.float64)
        per_edge = vector[rows] if node.attrs["axis"] == 0 else vector[cols]
        return matrix.with_values(_BINOPS[node.attrs["op"]](values, per_edge))

    def _op_reduce(self, node, args, inputs, rng):
        (matrix,) = args
        rows, cols, values = self._edge_view(matrix)
        axis = node.attrs["axis"]
        length = matrix.shape[0] if axis == 0 else matrix.shape[1]
        idx = rows if axis == 0 else cols
        op = node.attrs["op"]
        if op in ("sum", "mean"):
            out = np.zeros(length, dtype=np.float64)
            np.add.at(out, idx, values)
            if op == "mean":
                counts = np.zeros(length, dtype=np.int64)
                np.add.at(counts, idx, 1)
                out = np.divide(out, counts, out=np.zeros_like(out), where=counts > 0)
            return out
        if op == "max":
            out = np.full(length, -np.inf)
            np.maximum.at(out, idx, values)
            return out
        if op == "min":
            out = np.full(length, np.inf)
            np.minimum.at(out, idx, values)
            return out
        raise TraceError(f"eager oracle has no reduce op {op!r}")

    def _op_spmm(self, node, args, inputs, rng):
        matrix, dense = args
        rows, cols, values = self._edge_view(matrix)
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim == 1:
            out = np.zeros(matrix.shape[0], dtype=np.float64)
            np.add.at(out, rows, values * dense[cols])
        else:
            out = np.zeros((matrix.shape[0], dense.shape[1]), dtype=np.float64)
            np.add.at(out, rows, values[:, None] * dense[cols])
        return out

    def _op_sddmm(self, node, args, inputs, rng):
        matrix, row_feats, col_feats = args
        rows, cols, _ = self._edge_view(matrix)
        row_feats = np.asarray(row_feats, dtype=np.float64)
        col_feats = np.asarray(col_feats, dtype=np.float64)
        products = row_feats[rows] * col_feats[cols]
        # Contract every feature dim; an ellipsis einsum cannot sum over it.
        out = products.sum(axis=tuple(range(1, products.ndim)))
        return matrix.with_values(out)

    # -- select (shared primitives, unit-tested separately) ------------
    def _op_individual_sample(self, node, args, inputs, rng):
        matrix = args[0]
        probs = args[1] if node.attrs.get("has_probs") else None
        return matrix.individual_sample(
            node.attrs["k"],
            probs,
            replace=node.attrs.get("replace", False),
            rng=rng,
        )

    def _op_labor_sample(self, node, args, inputs, rng):
        matrix = args[0]
        return matrix.labor_sample(node.attrs["k"], rng=rng)

    def _op_collective_sample(self, node, args, inputs, rng):
        matrix = args[0]
        probs = np.asarray(args[1]) if node.attrs.get("has_probs") else None
        return matrix.collective_sample(
            node.attrs["k"],
            probs,
            replace=node.attrs.get("replace", False),
            rng=rng,
        )

    # -- finalize ------------------------------------------------------
    def _op_row(self, node, args, inputs, rng):
        return args[0].row()

    def _op_column(self, node, args, inputs, rng):
        return args[0].column()

    def _op_compact(self, node, args, inputs, rng):
        return args[0].compact(node.attrs["axis"])

    # -- dense tensor ops ----------------------------------------------
    def _op_t_binop(self, node, args, inputs, rng):
        a, b = (np.asarray(x, dtype=np.float64) for x in args)
        return _BINOPS[node.attrs["op"]](a, b)

    def _op_t_binop_scalar(self, node, args, inputs, rng):
        (a,) = args
        a = np.asarray(a, dtype=np.float64)
        scalar = node.attrs["scalar"]
        fn = _BINOPS[node.attrs["op"]]
        return fn(scalar, a) if node.attrs.get("reverse") else fn(a, scalar)

    def _op_t_unop(self, node, args, inputs, rng):
        return _UNOPS[node.attrs["op"]](np.asarray(args[0], dtype=np.float64))

    def _op_t_sum(self, node, args, inputs, rng):
        return np.asarray(args[0], dtype=np.float64).sum()

    def _op_t_index(self, node, args, inputs, rng):
        base, idx = args
        return np.asarray(base)[np.asarray(idx)]

    def _op_t_matmul(self, node, args, inputs, rng):
        a, b = (np.asarray(x, dtype=np.float64) for x in args)
        return a @ b


def trace_oracle(
    fn,
    graph: Matrix,
    example_frontiers: np.ndarray,
    *,
    constants: dict | None = None,
    tensors: dict[str, np.ndarray] | None = None,
) -> EagerOracle:
    """Trace ``fn`` and wrap the *unoptimized* IR in an eager oracle."""
    ir, info = trace(
        fn, graph, example_frontiers, constants=constants, tensors=tensors
    )
    return EagerOracle(ir, graph, info["structure"])
