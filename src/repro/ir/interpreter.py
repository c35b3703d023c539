"""IR interpreter: executes an optimized data-flow graph on the device.

The interpreter walks the IR in topological order, executing each node
with the sparse/sampling kernels, honoring the layout decisions stamped by
the layout-selection pass (``node.layout`` / ``node.compact_rows``), and
accounting every intermediate's device memory in the context's pool —
freeing it after its last use, the way a stream-ordered caching allocator
would.  This is where fusion's memory saving and super-batching's
occupancy gain become measurable.
"""

from __future__ import annotations

import numpy as np

from repro.core import sampling
from repro.core.matrix import Matrix
from repro.device import ExecutionContext
from repro.errors import PassError
from repro.ir.graph import DataFlowGraph, Node
from repro.sparse import kernels as K


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


_T_BINOPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "pow": np.power,
}

_T_UNOPS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "softmax": _softmax,
    "exp": np.exp,
    "log": np.log,
}


class Interpreter:
    """Executes one IR graph per call, with per-run RNG and inputs."""

    def __init__(
        self,
        ir: DataFlowGraph,
        ctx: ExecutionContext,
        *,
        precomputed: dict[str, object] | None = None,
    ) -> None:
        self.ir = ir
        self.ctx = ctx
        self.precomputed = precomputed or {}
        self._last_use = self._compute_last_uses()
        #: Row ids are block-diagonal (``b * M + node``) in this program.
        self._superbatched = any(n.op == "sb_batch_ptr" for n in ir.nodes())

    def _compute_last_uses(self) -> dict[int, int]:
        """Map node id -> id of the last node that consumes it.

        Values still referenced by graph outputs never expire.
        """
        last: dict[int, int] = {}
        for node in self.ir.nodes():
            for dep in node.inputs:
                last[dep] = node.node_id
        for out in self.ir.outputs:
            last[out] = -1  # sentinel: lives to the end
        return last

    # ------------------------------------------------------------------
    def run(
        self,
        inputs: dict[str, object],
        rng: np.random.Generator,
    ) -> list[object]:
        """Execute the graph; returns output values in order."""
        env: dict[int, object] = {}
        handles: dict[int, object] = {}
        for node in self.ir.nodes():
            value = self._execute(node, env, inputs, rng)
            env[node.node_id] = value
            self._account_alloc(node, value, handles)
            self._release_dead(node, env, handles)
        outputs = [env[i] for i in self.ir.outputs]
        for handle in handles.values():
            self.ctx.memory.free(handle)  # type: ignore[arg-type]
        return outputs

    def _account_alloc(
        self, node: Node, value: object, handles: dict[int, object]
    ) -> None:
        if node.op.startswith("input") or node.op == "const":
            return
        nbytes = _value_bytes(value)
        if nbytes > 0:
            handles[node.node_id] = self.ctx.memory.alloc(nbytes, tag=node.op)

    def _release_dead(
        self, node: Node, env: dict[int, object], handles: dict[int, object]
    ) -> None:
        for dep in node.inputs:
            if self._last_use.get(dep) == node.node_id and dep in handles:
                self.ctx.memory.free(handles.pop(dep))  # type: ignore[arg-type]
                env.pop(dep, None)

    # ------------------------------------------------------------------
    def _execute(
        self,
        node: Node,
        env: dict[int, object],
        inputs: dict[str, object],
        rng: np.random.Generator,
    ) -> object:
        args = [env[i] for i in node.inputs]
        handler = getattr(self, f"_op_{node.op}", None)
        if handler is None:
            raise PassError(f"interpreter has no handler for op {node.op!r}")
        value = handler(node, args, inputs, rng)
        value = self._apply_layout(node, value)
        return value

    def _apply_layout(self, node: Node, value: object) -> object:
        if not isinstance(value, Matrix):
            return value
        if node.layout is not None and node.layout not in value.available_layouts:
            storage = value.get(node.layout)
            value = Matrix(
                storage,
                row_ids=value.row_ids,
                col_ids=value.col_ids,
                ctx=self.ctx,
            )
        if node.compact_rows and value.row_ids is None:
            value = value.compact(axis=0)
        return value

    # ------------------------------------------------------------------
    # Inputs and constants
    # ------------------------------------------------------------------
    def _op_input_graph(self, node, args, inputs, rng):
        value = inputs[node.attrs["name"]]
        if not isinstance(value, Matrix):
            raise PassError(f"input {node.attrs['name']!r} must be a Matrix")
        return _with_ctx(value, self.ctx)

    def _op_input_tensor(self, node, args, inputs, rng):
        return np.asarray(inputs[node.attrs["name"]])

    def _op_input_precomputed(self, node, args, inputs, rng):
        value = self.precomputed[node.attrs["name"]]
        if isinstance(value, Matrix):
            return _with_ctx(value, self.ctx)
        return value

    def _op_const(self, node, args, inputs, rng):
        return node.attrs["_value"]

    # ------------------------------------------------------------------
    # Extract
    # ------------------------------------------------------------------
    def _op_slice_cols(self, node, args, inputs, rng):
        matrix, idx = args
        return matrix.slice_cols(np.asarray(idx))

    def _op_slice_rows(self, node, args, inputs, rng):
        matrix, idx = args
        return matrix.slice_rows(np.asarray(idx))

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def _op_map_scalar(self, node, args, inputs, rng):
        (matrix,) = args
        out = K.map_edges_scalar(
            matrix.any_storage(),
            node.attrs["op"],
            node.attrs["scalar"],
            self.ctx,
            reverse=node.attrs.get("reverse", False),
        )
        return matrix._spawn(out)

    def _op_map_unary(self, node, args, inputs, rng):
        (matrix,) = args
        out = K.map_edges_unary(matrix.any_storage(), node.attrs["op"], self.ctx)
        return matrix._spawn(out)

    def _op_map_combine(self, node, args, inputs, rng):
        a, b = args
        out = K.map_edges_combine(
            a.any_storage(), node.attrs["op"], b.any_storage(), self.ctx
        )
        return a._spawn(out)

    def _op_map_tscalar(self, node, args, inputs, rng):
        matrix, tensor = args
        value = float(np.asarray(tensor).reshape(-1)[node.attrs["index"]])
        out = K.map_edges_scalar(
            matrix.any_storage(), node.attrs["op"], value, self.ctx
        )
        return matrix._spawn(out)

    def _op_map_broadcast(self, node, args, inputs, rng):
        matrix, vector = args
        out = K.map_edges_broadcast(
            matrix.any_storage(),
            node.attrs["op"],
            np.asarray(vector),
            node.attrs["axis"],
            self.ctx,
        )
        return matrix._spawn(out)

    def _op_reduce(self, node, args, inputs, rng):
        (matrix,) = args
        return matrix._reduce(node.attrs["op"], node.attrs["axis"], None)

    def _op_spmm(self, node, args, inputs, rng):
        matrix, dense = args
        return matrix @ np.asarray(dense)

    def _op_sddmm(self, node, args, inputs, rng):
        matrix, rf, cf = args
        return matrix.sddmm(np.asarray(rf), np.asarray(cf))

    # ------------------------------------------------------------------
    # Select
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------
    def _op_row(self, node, args, inputs, rng):
        return args[0].row()

    def _op_column(self, node, args, inputs, rng):
        return args[0].column()

    def _op_compact(self, node, args, inputs, rng):
        return args[0].compact(node.attrs["axis"])

    # ------------------------------------------------------------------
    # Fused operators (inserted by passes)
    # ------------------------------------------------------------------
    def _op_fused_extract_select(self, node, args, inputs, rng):
        graph, frontiers = args[0], np.asarray(args[1])
        probs = np.asarray(args[2]) if node.attrs.get("has_probs") else None
        out = sampling.fused_extract_individual_sample(
            graph.get("csc"),
            frontiers,
            node.attrs["k"],
            probs,
            replace=node.attrs.get("replace", False),
            rng=rng,
            ctx=self.ctx,
        )
        return Matrix(out, col_ids=frontiers, ctx=self.ctx)

    def _fused_steps(self, node, args) -> list[tuple[str, object, int | None]]:
        steps = []
        for desc in node.attrs["steps"]:
            kind = desc["operand_kind"]
            if kind == "none":
                steps.append((desc["op"], None, None))
            elif kind == "scalar":
                steps.append((desc["op"], desc["value"], None))
            elif kind == "tensor":
                steps.append(
                    (desc["op"], np.asarray(args[desc["input_pos"]]), desc["axis"])
                )
            elif kind == "matrix":
                steps.append((desc["op"], args[desc["input_pos"]].any_storage(), -1))
            elif kind == "tensor_scalar":
                value = float(
                    np.asarray(args[desc["input_pos"]]).reshape(-1)[desc["index"]]
                )
                steps.append((desc["op"], value, None))
            else:
                raise PassError(f"unknown fused operand kind {kind!r}")
        return steps

    def _op_fused_extract_reduce(self, node, args, inputs, rng):
        graph, frontiers = args[0], np.asarray(args[1])
        return sampling.fused_extract_reduce(
            graph.get("csc"),
            frontiers,
            node.attrs["op"],
            node.attrs["axis"],
            ctx=self.ctx,
        )

    def _op_sb_fused_extract_reduce(self, node, args, inputs, rng):
        from repro.ir import superbatch_ops

        graph, frontiers, batch_ptr = args
        return superbatch_ops.sb_fused_extract_reduce(
            graph,
            np.asarray(frontiers),
            np.asarray(batch_ptr),
            node.attrs["op"],
            node.attrs["axis"],
            self.ctx,
        )

    def _op_fused_map_chain(self, node, args, inputs, rng):
        matrix = args[0]
        steps = self._fused_steps(node, args)
        out = K.fused_map_chain(matrix.any_storage(), steps, self.ctx)
        return matrix._spawn(out)

    def _op_fused_map_reduce(self, node, args, inputs, rng):
        matrix = args[0]
        steps = self._fused_steps(node, args)
        return K.fused_map_reduce(
            matrix.any_storage(),
            steps,
            node.attrs["reduce_op"],
            node.attrs["reduce_axis"],
            self.ctx,
        )

    # ------------------------------------------------------------------
    # Super-batch operators
    # ------------------------------------------------------------------
    def _op_sb_slice_cols(self, node, args, inputs, rng):
        from repro.ir import superbatch_ops

        matrix, frontiers, batch_ptr = args
        return superbatch_ops.sb_slice_cols(
            matrix, np.asarray(frontiers), np.asarray(batch_ptr), self.ctx
        )

    def _op_sb_collective_sample(self, node, args, inputs, rng):
        from repro.ir import superbatch_ops

        matrix = args[0]
        batch_ptr = np.asarray(args[1])
        probs = np.asarray(args[2]) if node.attrs.get("has_probs") else None
        return superbatch_ops.sb_collective_sample(
            matrix,
            node.attrs["k"],
            batch_ptr,
            probs,
            replace=node.attrs.get("replace", False),
            rng=rng,
            ctx=self.ctx,
        )

    def _op_sb_batch_ptr(self, node, args, inputs, rng):
        return np.asarray(inputs["_batch_ptr"])

    # ------------------------------------------------------------------
    # Dense tensor operators
    # ------------------------------------------------------------------
    def _op_t_binop(self, node, args, inputs, rng):
        a, b = (np.asarray(x) for x in args)
        # Super-batched programs put per-(batch, node) vectors (length
        # B*M) next to batch-invariant per-node vectors (length M); the
        # block-diagonal semantics is that the invariant vector repeats
        # per batch, so tile the shorter operand when lengths divide.
        if a.ndim == 1 and b.ndim == 1 and len(a) != len(b):
            if len(b) and len(a) % len(b) == 0:
                b = np.tile(b, len(a) // len(b))
            elif len(a) and len(b) % len(a) == 0:
                a = np.tile(a, len(b) // len(a))
        return _T_BINOPS[node.attrs["op"]](a, b)

    def _op_t_binop_scalar(self, node, args, inputs, rng):
        (a,) = args
        a = np.asarray(a)
        scalar = node.attrs["scalar"]
        fn = _T_BINOPS[node.attrs["op"]]
        return fn(scalar, a) if node.attrs.get("reverse") else fn(a, scalar)

    def _op_t_unop(self, node, args, inputs, rng):
        return _T_UNOPS[node.attrs["op"]](np.asarray(args[0]))

    def _op_t_sum(self, node, args, inputs, rng):
        return np.asarray(args[0]).sum()

    def _op_t_index(self, node, args, inputs, rng):
        base, idx = (np.asarray(x) for x in args)
        if self._superbatched:
            # The same block-diagonal reading as in ``_op_t_binop``: a
            # per-(batch, node) vector (length B*M) is read in place, a
            # batch-invariant per-node one (length M) repeats per batch.
            idx = idx % len(base)
        return base[idx]

    def _op_t_matmul(self, node, args, inputs, rng):
        a, b = (np.asarray(x) for x in args)
        flops = 2.0 * a.size * (b.shape[-1] if b.ndim > 1 else 1)
        self.ctx.record(
            "dense_matmul",
            bytes_read=a.nbytes + b.nbytes,
            bytes_written=a.nbytes,
            flops=flops,
            tasks=max(a.shape[0], 1),
        )
        return a @ b


def _with_ctx(matrix: Matrix, ctx: ExecutionContext) -> Matrix:
    """Rebind a matrix to this run's context without copying storage."""
    clone = Matrix.__new__(Matrix)
    clone._storages = matrix._storages
    clone.shape = matrix.shape
    clone.row_ids = matrix.row_ids
    clone.col_ids = matrix.col_ids
    clone.ctx = ctx
    clone.is_base_graph = matrix.is_base_graph
    return clone


def _value_bytes(value: object) -> int:
    if isinstance(value, Matrix):
        return value.nbytes()
    if isinstance(value, np.ndarray):
        return value.nbytes
    return 0
