"""Span-based tracer: the core of the profiling subsystem.

A :class:`Profiler` records a tree of :class:`Span` objects on two clocks
at once:

* **host wall time** — ``time.perf_counter`` seconds spent in the Python
  process (tracing, pass pipeline, NumPy kernels);
* **simulated device time** — the :class:`~repro.device.ExecutionContext`
  ledger's ``elapsed`` seconds, the reproduction's stand-in for the GPU
  wall clock.

Spans nest (``compile → pass:<name>``, ``epoch → batch → kernel:<name>``)
through an explicit stack, so an exported trace shows *where inside the
pipeline* every simulated second was charged, not just flat per-kernel
aggregates.

Profiling is strictly opt-in.  The module-level active profiler defaults
to ``None`` and every instrumentation site guards with a single ``is not
None`` check; pricing of kernel launches is never touched, so simulated
times with profiling off (and on) are bit-identical to an uninstrumented
run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections.abc import Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.device.context import ExecutionContext, KernelLaunch


@dataclasses.dataclass
class Span:
    """One timed region of the pipeline.

    ``host_start``/``host_end`` are ``perf_counter`` seconds relative to
    the profiler's creation; ``sim_start``/``sim_end`` are simulated
    device seconds read from the attached execution context's ledger
    (both zero for spans recorded while no context is attached, e.g.
    compile-time spans).  ``parent`` is the index of the enclosing span
    in :attr:`Profiler.spans`, or ``-1`` for roots.
    """

    name: str
    category: str
    index: int
    parent: int
    depth: int
    host_start: float
    host_end: float = 0.0
    sim_start: float = 0.0
    sim_end: float = 0.0
    attrs: dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def host_duration(self) -> float:
        return max(0.0, self.host_end - self.host_start)

    @property
    def sim_duration(self) -> float:
        return max(0.0, self.sim_end - self.sim_start)


class Profiler:
    """Collects a span tree across compile and execution.

    Use as::

        profiler = Profiler()
        with profiler.activate():          # pass/compile spans
            sampler = compile_sampler(...)
        ctx = ExecutionContext(V100, profiler=profiler)  # kernel spans
        with profiler.activate(), profiler.span("epoch"):
            sampler.run(seeds, ctx=ctx)

    ``activate()`` publishes the profiler through the module-level
    hook consulted by :class:`~repro.ir.passes.base.PassManager` and
    :func:`~repro.sampler.compile_sampler`, which cannot be reached with
    an explicit argument from the benchmark harness without threading it
    through every algorithm constructor.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._epoch = time.perf_counter()
        self._ctx: "ExecutionContext | None" = None

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------
    def host_now(self) -> float:
        """Host seconds since the profiler was created."""
        return time.perf_counter() - self._epoch

    def sim_now(self) -> float:
        """Simulated seconds on the attached context's ledger (0 if none)."""
        return self._ctx.elapsed if self._ctx is not None else 0.0

    def attach(self, ctx: "ExecutionContext") -> None:
        """Bind ``ctx`` as the simulated clock and kernel-span source."""
        ctx.profiler = self
        self._ctx = ctx

    @property
    def context(self) -> "ExecutionContext | None":
        """The attached execution context, if any."""
        return self._ctx

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def begin(self, name: str, category: str = "span", **attrs: object) -> Span:
        """Open a nested span; pair with :meth:`end`."""
        parent = self._stack[-1] if self._stack else -1
        span = Span(
            name=name,
            category=category,
            index=len(self.spans),
            parent=parent,
            depth=len(self._stack),
            host_start=self.host_now(),
            sim_start=self.sim_now(),
            attrs=dict(attrs),
        )
        self.spans.append(span)
        self._stack.append(span.index)
        return span

    def end(self, **attrs: object) -> Span:
        """Close the innermost open span, merging ``attrs`` into it."""
        index = self._stack.pop()
        span = self.spans[index]
        span.host_end = self.host_now()
        span.sim_end = self.sim_now()
        span.attrs.update(attrs)
        return span

    @contextlib.contextmanager
    def span(
        self, name: str, category: str = "span", **attrs: object
    ) -> Iterator[Span]:
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        span = self.begin(name, category, **attrs)
        try:
            yield span
        finally:
            self.end()

    def on_kernel(self, launch: "KernelLaunch") -> None:
        """Record one kernel launch as a leaf span under the open span.

        Called by :meth:`ExecutionContext.record` after the launch has
        been priced and placed on its queue timeline; the simulated
        interval is the launch's own ``[sim_start, sim_end]``, which on
        the serial path equals ``[elapsed - seconds, elapsed]`` and on
        a named queue reflects that queue's (possibly overlapping)
        timeline.
        """
        now = self.host_now()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(
                name=f"kernel:{launch.name}",
                category="kernel",
                index=len(self.spans),
                parent=parent,
                depth=len(self._stack),
                host_start=now,
                host_end=now,
                sim_start=launch.sim_start,
                sim_end=launch.sim_end,
                attrs={
                    "bytes_read": launch.bytes_read,
                    "bytes_written": launch.bytes_written,
                    "flops": launch.flops,
                    "tasks": launch.tasks,
                    "uva_bytes": launch.uva_bytes,
                    "queue": launch.queue,
                },
            )
        )

    # ------------------------------------------------------------------
    # Activation (module-level hook)
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def activate(self) -> Iterator["Profiler"]:
        """Publish this profiler as the process-wide active one."""
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def open_spans(self) -> int:
        """Number of spans still open (0 after a balanced run)."""
        return len(self._stack)

    def spans_by_category(self, category: str) -> list[Span]:
        return [s for s in self.spans if s.category == category]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.index]


#: The process-wide active profiler; ``None`` keeps every hook on its
#: zero-overhead path.
_ACTIVE: Profiler | None = None


def active_profiler() -> Profiler | None:
    """The profiler published by :meth:`Profiler.activate`, if any."""
    return _ACTIVE


def maybe_span(
    profiler: Profiler | None, name: str, category: str = "span", **attrs: object
) -> contextlib.AbstractContextManager:
    """``profiler.span(...)``, or a free null context without a profiler."""
    if profiler is None:
        return contextlib.nullcontext()
    return profiler.span(name, category, **attrs)
