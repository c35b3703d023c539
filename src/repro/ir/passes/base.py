"""Pass infrastructure: the base class and the pass manager.

gSampler applies three families of IR passes (Section 4.1): computation
optimizations (fusion, pre-processing, DCE, CSE), data-layout selection,
and super-batch rewriting.  A :class:`PassManager` runs them in a fixed
order; each pass mutates the graph in place and reports whether it changed
anything, so the manager can re-run cleanup passes to a fixpoint.

Every pass execution is timed and measured (host wall seconds, IR
node/edge deltas) into a :class:`PassStat`; when a profiler is active
(:func:`repro.profile.spans.active_profiler`) each execution is also
recorded as a ``pass:<name>`` span nested under the surrounding
``compile`` span, so compile-time cost is attributable per pass.
"""

from __future__ import annotations

import abc
import dataclasses
import time

from repro.ir.graph import DataFlowGraph
from repro.profile.spans import active_profiler


class Pass(abc.ABC):
    """One IR-to-IR transformation."""

    #: Human-readable pass name for reports.
    name: str = "pass"

    @abc.abstractmethod
    def run(self, ir: DataFlowGraph) -> bool:
        """Transform ``ir`` in place; return True if anything changed."""


def _edge_count(ir: DataFlowGraph) -> int:
    """Def-use edges in the IR (operand references across all nodes)."""
    return sum(len(node.inputs) for node in ir.nodes())


@dataclasses.dataclass
class PassStat:
    """One timed execution of one pass over the IR."""

    name: str
    iteration: int
    changed: bool
    wall_seconds: float
    nodes_before: int
    nodes_after: int
    edges_before: int
    edges_after: int

    @property
    def rewrites(self) -> int:
        """A coarse rewrite count: IR structure delta, floored at the
        changed flag (a pass can rewrite in place without resizing)."""
        structural = abs(self.nodes_after - self.nodes_before) + abs(
            self.edges_after - self.edges_before
        )
        return max(structural, 1 if self.changed else 0)


@dataclasses.dataclass
class PassReport:
    """What the pass manager did, for logs and the ablation benchmarks."""

    applied: list[str]
    iterations: int
    #: One entry per pass execution (every pass, every fixpoint
    #: iteration, including no-op runs), in execution order.
    stats: list[PassStat] = dataclasses.field(default_factory=list)


def run_measured_pass(
    p: Pass, ir: DataFlowGraph, *, iteration: int = 1
) -> PassStat:
    """Run one pass, producing its :class:`PassStat` and profiler span."""
    profiler = active_profiler()
    nodes_before = len(ir)
    edges_before = _edge_count(ir)
    if profiler is not None:
        profiler.begin(f"pass:{p.name}", "pass", iteration=iteration)
    start = time.perf_counter()
    changed = p.run(ir)
    wall = time.perf_counter() - start
    stat = PassStat(
        name=p.name,
        iteration=iteration,
        changed=changed,
        wall_seconds=wall,
        nodes_before=nodes_before,
        nodes_after=len(ir),
        edges_before=edges_before,
        edges_after=_edge_count(ir),
    )
    if profiler is not None:
        profiler.end(
            changed=changed,
            nodes_before=stat.nodes_before,
            nodes_after=stat.nodes_after,
            edges_before=stat.edges_before,
            edges_after=stat.edges_after,
            rewrites=stat.rewrites,
        )
    return stat


class PassManager:
    """Runs a pipeline of passes, iterating cleanup passes to fixpoint.

    With ``debug=True`` every pass transition is additionally vetted by
    the full IR invariant checker (:mod:`repro.verify.invariants`):
    topological order, layout legality, operand-kind consistency, and
    super-batch pointer discipline.  A buggy pass then fails immediately,
    with the offending pass named in the error, instead of producing a
    silently skewed sampler.  The default (``debug=False``) keeps only
    the cheap structural ``validate`` on the hot compile path.
    """

    def __init__(
        self,
        passes: list[Pass],
        *,
        max_iterations: int = 8,
        debug: bool = False,
    ) -> None:
        self.passes = passes
        self.max_iterations = max_iterations
        self.debug = debug

    def _check(self, ir: DataFlowGraph, stage: str) -> None:
        if self.debug:
            from repro.verify.invariants import check_invariants

            check_invariants(ir, stage=stage)
        else:
            ir.validate()

    def run(self, ir: DataFlowGraph) -> PassReport:
        applied: list[str] = []
        stats: list[PassStat] = []
        iterations = 0
        for _ in range(self.max_iterations):
            iterations += 1
            changed = False
            for p in self.passes:
                stat = run_measured_pass(p, ir, iteration=iterations)
                stats.append(stat)
                if stat.changed:
                    applied.append(p.name)
                    changed = True
                self._check(ir, p.name)
            if not changed:
                break
        return PassReport(applied=applied, iterations=iterations, stats=stats)
