"""The gSampler front door: compile a sampling function, then run batches.

Workflow (Figure 4 of the paper): a user program written against the
matrix-centric API is traced into a data-flow IR, optimization passes are
applied (computation optimization, data-layout selection, super-batch
rewriting), and the optimized IR is executed per mini-batch by the
interpreter under the device simulator.

Example::

    def sage_layer(A, frontiers, K):
        sub_A = A[:, frontiers]
        sample_A = sub_A.individual_sample(K)
        return sample_A, sample_A.row()

    sampler = compile_sampler(
        sage_layer, graph, example_frontiers=seeds, constants={"K": 10}
    )
    sample_A, next_frontiers = sampler.run(seeds, ctx=ctx)
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from repro.core import new_rng
from repro.core.matrix import Matrix
from repro.device import NULL_CONTEXT, ExecutionContext
from repro.errors import MemoryBudgetError, TraceError
from repro.ir.graph import DataFlowGraph
from repro.ir.interpreter import Interpreter
from repro.ir.passes import (
    CommonSubexpressionElimination,
    DeadCodeElimination,
    EdgeMapFusion,
    EdgeMapReduceFusion,
    ExtractReduceFusion,
    ExtractSelectFusion,
    GreedyLayoutPass,
    LayoutSelectionPass,
    PassManager,
    PreprocessPass,
    SuperBatchPass,
)
from repro.ir.passes.base import PassStat, run_measured_pass
from repro.ir.trace import trace
from repro.ir import superbatch_ops
from repro.profile.spans import active_profiler, maybe_span


@dataclasses.dataclass(frozen=True)
class OptimizationConfig:
    """Which optimization families to apply (the Figure 10 knobs).

    ``computation`` is the "C" bar (fusion + pre-processing + DCE/CSE),
    ``layout`` the "D" bar (cost-aware layout selection; when off, the
    DGL-style greedy choice is used), and ``superbatch`` the "B" bar.
    """

    computation: bool = True
    layout: bool = True
    superbatch: bool = True

    @classmethod
    def plain(cls) -> "OptimizationConfig":
        return cls(computation=False, layout=False, superbatch=False)

    @classmethod
    def all_combinations(cls) -> tuple["OptimizationConfig", ...]:
        """Every on/off combination of the three knobs (the 8-point grid
        the verification subsystem sweeps)."""
        return tuple(
            cls(computation=c, layout=d, superbatch=b)
            for c, d, b in itertools.product((False, True), repeat=3)
        )

    def label(self) -> str:
        """Short knob string matching the paper's bars: C=computation,
        D=data layout, B=super-batch."""
        return (
            f"C{int(self.computation)}"
            f"D{int(self.layout)}"
            f"B{int(self.superbatch)}"
        )


class CompiledSampler:
    """A traced, optimized, executable sampling program."""

    def __init__(
        self,
        ir: DataFlowGraph,
        graph: Matrix,
        *,
        structure: object,
        precomputed: dict[str, object],
        config: OptimizationConfig,
        pass_log: list[str],
        debug: bool = False,
        pass_stats: list[PassStat] | None = None,
    ) -> None:
        self.ir = ir
        self.graph = graph
        self.structure = structure
        self.precomputed = precomputed
        self.config = config
        self.pass_log = pass_log
        self.debug = debug
        #: Per-pass compile measurements (wall time, IR deltas), in
        #: execution order; extended when the super-batch rewrite runs.
        self.pass_stats: list[PassStat] = list(pass_stats or [])
        self._superbatch_ir: DataFlowGraph | None = None

    # ------------------------------------------------------------------
    def run(
        self,
        frontiers: np.ndarray,
        *,
        tensors: dict[str, np.ndarray] | None = None,
        ctx: ExecutionContext = NULL_CONTEXT,
        rng: np.random.Generator | None = None,
    ) -> object:
        """Execute one mini-batch; returns values shaped like the trace.

        Launches land on whichever simulated queue the caller has
        active (:meth:`ExecutionContext.on_queue`) — how the pipelined
        executor and the serving replica overlap sampling with transfer
        and compute.
        """
        rng = rng if rng is not None else new_rng(None)
        with maybe_span(
            active_profiler(),
            "sampler.run",
            "exec",
            batch_size=int(np.size(frontiers)),
        ):
            interp = Interpreter(self.ir, ctx, precomputed=self.precomputed)
            inputs: dict[str, object] = {
                "A": self.graph,
                "frontiers": np.asarray(frontiers),
            }
            inputs.update(tensors or {})
            outputs = interp.run(inputs, rng)
            return _unflatten(self.structure, outputs)

    # ------------------------------------------------------------------
    def superbatch_ir(self) -> DataFlowGraph:
        """The IR rewritten for super-batched execution (cached)."""
        if self._superbatch_ir is None:
            cloned = self.ir.clone()
            self.pass_stats.append(run_measured_pass(SuperBatchPass(), cloned))
            if self.debug:
                from repro.verify.invariants import check_invariants

                check_invariants(cloned, stage="superbatch")
            else:
                cloned.validate()
            self._superbatch_ir = cloned
        return self._superbatch_ir

    def run_superbatch(
        self,
        frontier_batches: Sequence[np.ndarray],
        *,
        tensors: dict[str, np.ndarray] | None = None,
        ctx: ExecutionContext = NULL_CONTEXT,
        rng: np.random.Generator | None = None,
    ) -> list[tuple[Matrix, np.ndarray]]:
        """Sample several independent mini-batches in one launch sequence.

        The compiled program must follow the standard one-layer contract
        ``(sample_matrix, next_frontiers)``; each batch's results are
        split back out and returned in order.
        """
        if self.structure != ("leaf", "leaf"):
            raise TraceError(
                "super-batching requires the (matrix, next_frontiers) "
                "one-layer contract"
            )
        if not frontier_batches:
            # An empty fusion window is a no-op, not a concatenate error
            # (the serving composer may legitimately plan zero batches).
            return []
        rng = rng if rng is not None else new_rng(None)
        total_seeds = sum(int(np.size(b)) for b in frontier_batches)
        with maybe_span(
            active_profiler(),
            "sampler.superbatch",
            "exec",
            num_batches=len(frontier_batches),
            total_seeds=total_seeds,
        ):
            concat = np.concatenate([np.asarray(b) for b in frontier_batches])
            batch_ptr = np.zeros(len(frontier_batches) + 1, dtype=np.int64)
            np.cumsum([len(b) for b in frontier_batches], out=batch_ptr[1:])
            ir = self.superbatch_ir()
            interp = Interpreter(ir, ctx, precomputed=self.precomputed)
            inputs: dict[str, object] = {
                "A": self.graph,
                "frontiers": concat,
                "_batch_ptr": batch_ptr,
            }
            inputs.update(tensors or {})
            outputs = interp.run(inputs, rng)
            matrix = outputs[0]
            assert isinstance(matrix, Matrix)
            pieces = superbatch_ops.split_sample(
                matrix, batch_ptr, self.graph.shape[0], ctx
            )
            return [(piece, piece.row()) for piece in pieces]

    # ------------------------------------------------------------------
    def choose_superbatch_size(
        self,
        example_batch: np.ndarray | Sequence[np.ndarray],
        *,
        memory_budget: int,
        tensors: dict[str, np.ndarray] | None = None,
        max_size: int = 64,
    ) -> int:
        """Grid-search the largest super-batch fitting the memory budget.

        Mirrors the paper: the user gives a sampling memory budget and
        gSampler probes batch multiples, measuring the simulated peak
        memory of each, and keeps the largest that fits.

        ``example_batch`` may also be a sequence of heterogeneous seed
        sets (a representative serving request mix): the probe then
        cycles through them, so the chosen window reflects the actual
        per-request size distribution rather than one uniform batch.
        """
        if isinstance(example_batch, np.ndarray):
            examples: list[np.ndarray] = [example_batch]
        else:
            examples = [np.asarray(b) for b in example_batch]
            if not examples:
                raise TraceError(
                    "choose_superbatch_size needs at least one example batch"
                )
        best = 1
        size = 2
        while size <= max_size:
            probe_ctx = ExecutionContext()
            try:
                self.run_superbatch(
                    [examples[i % len(examples)] for i in range(size)],
                    tensors=tensors,
                    ctx=probe_ctx,
                    rng=new_rng(0),
                )
            except (TraceError, MemoryBudgetError):
                break
            if probe_ctx.memory.peak_bytes > memory_budget:
                break
            best = size
            size *= 2
        return best


def compile_sampler(
    fn: Callable,
    graph: Matrix,
    example_frontiers: np.ndarray,
    *,
    constants: dict | None = None,
    tensors: dict[str, np.ndarray] | None = None,
    config: OptimizationConfig | None = None,
    debug: bool = False,
) -> CompiledSampler:
    """Trace ``fn`` and apply the configured optimization passes.

    ``debug=True`` validates the full IR invariant set (see
    :mod:`repro.verify.invariants`) after every pass transition and on
    the final compiled program, instead of only the cheap structural
    check — the mode every verification test compiles under.
    """
    config = config if config is not None else OptimizationConfig()
    profiler = active_profiler()
    with maybe_span(profiler, "compile", "compile", config=config.label()):
        with maybe_span(profiler, "trace", "compile"):
            ir, info = trace(
                fn, graph, example_frontiers, constants=constants, tensors=tensors
            )
        precomputed: dict[str, object] = {}
        pass_log: list[str] = []
        pass_stats: list[PassStat] = []
        if config.computation:
            manager = PassManager(
                [
                    DeadCodeElimination(),
                    CommonSubexpressionElimination(),
                    PreprocessPass(graph, precomputed),
                    ExtractSelectFusion(),
                    ExtractReduceFusion(),
                    EdgeMapFusion(),
                    EdgeMapReduceFusion(),
                ],
                debug=debug,
            )
            report = manager.run(ir)
            pass_log.extend(report.applied)
            pass_stats.extend(report.stats)
        layout_pass = (
            LayoutSelectionPass() if config.layout else GreedyLayoutPass()
        )
        layout_stat = run_measured_pass(layout_pass, ir)
        pass_stats.append(layout_stat)
        if layout_stat.changed:
            pass_log.append(layout_pass.name)
        if debug:
            from repro.verify.invariants import check_invariants

            check_invariants(ir, stage=layout_pass.name)
        else:
            ir.validate()
        return CompiledSampler(
            ir,
            graph,
            structure=info["structure"],
            precomputed=precomputed,
            config=config,
            pass_log=pass_log,
            debug=debug,
            pass_stats=pass_stats,
        )


def _unflatten(structure: object, flat: list[object]) -> object:
    """Rebuild the traced return structure from flat output values.

    Raises :class:`TraceError` when the flat outputs do not exactly fill
    the structure — leftover values mean the IR's output list no longer
    matches the traced return shape, which must never pass silently.
    """
    def build(s: object, it: Iterator[object]) -> object:
        if s == "leaf":
            try:
                return next(it)
            except StopIteration:
                raise TraceError(
                    "not enough outputs to rebuild the traced return "
                    f"structure {structure!r}"
                ) from None
        assert isinstance(s, tuple)
        return tuple(build(child, it) for child in s)

    iterator = iter(flat)
    result = build(structure, iterator)
    leftover = sum(1 for _ in iterator)
    if leftover:
        raise TraceError(
            f"{leftover} traced output(s) left unconsumed after rebuilding "
            f"the return structure {structure!r} from {len(flat)} value(s)"
        )
    return result
