"""Execution context: the kernel-launch ledger behind all measurements.

Every kernel in this reproduction — whether issued by gSampler's optimized
engine or by one of the baseline execution models — reports its workload
(bytes moved, FLOPs, parallel tasks, warp divergence, UVA traffic) to an
:class:`ExecutionContext`.  The context converts the workload into
simulated time under its :class:`~repro.device.spec.DeviceSpec` and records
a :class:`KernelLaunch` entry.

This single accounting path is what makes cross-system comparisons fair:
systems differ only in *which* launches they issue (fused vs eager, one per
frontier vs one per layer), never in how a launch is priced.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import defaultdict
from typing import TYPE_CHECKING

from repro.device.memory import MemoryPool
from repro.device.spec import CPU, DeviceSpec
from repro.errors import DeviceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.profile.spans import Profiler

#: Name of the implicit serial queue; reserved — launches land on it only
#: when no ``on_queue`` block is active, never by explicit routing.
DEFAULT_QUEUE = "default"


@dataclasses.dataclass(frozen=True)
class KernelLaunch:
    """One recorded kernel launch and its simulated cost.

    ``queue`` names the simulated device queue the launch ran on
    (``"default"`` for the classic serial timeline); ``sim_start`` and
    ``sim_end`` place it on that queue's timeline, so overlapping queues
    can be reconstructed from the flat ledger.
    """

    name: str
    bytes_read: float
    bytes_written: float
    flops: float
    tasks: int
    divergence: float
    uva_bytes: float
    seconds: float
    queue: str = "default"
    sim_start: float = 0.0
    sim_end: float = 0.0


@dataclasses.dataclass
class QueueTimeline:
    """One simulated device queue (the CUDA-stream analogue).

    Launches issued to the same queue serialize: each starts at the
    queue's ``ready`` time and pushes it forward.  Distinct queues
    overlap freely; cross-queue ordering is expressed by syncing a
    queue to an event time (:meth:`sync_to`), the simulator's
    ``cudaStreamWaitEvent``.  ``busy_seconds`` accumulates occupied
    time only, so ``ready - busy_seconds`` is the queue's idle gap —
    the quantity pipeline overlap is trying to drive to zero.
    """

    name: str
    ready: float = 0.0
    busy_seconds: float = 0.0
    launches: int = 0

    def sync_to(self, event_time: float) -> None:
        """Block the queue until ``event_time`` (no-op if already past).

        An event time before the timeline origin is a caller bug — there
        is no simulated moment before 0, so it cannot name a real event —
        and raises :class:`~repro.errors.DeviceError` instead of being
        silently clamped.  (Event times between 0 and ``ready`` are fine:
        waiting on an event that already fired is a no-op, exactly as
        ``cudaStreamWaitEvent`` behaves.)
        """
        if not event_time >= 0.0:  # catches negatives and NaN
            raise DeviceError(
                f"queue {self.name!r}: cannot sync to event time "
                f"{event_time!r} — event times start at 0 on the "
                "simulated clock"
            )
        if event_time > self.ready:
            self.ready = event_time


class ExecutionContext:
    """Accumulates kernel launches and memory traffic for one device.

    Parameters
    ----------
    device:
        The device spec used to price launches. Defaults to the CPU spec.
    graph_on_device:
        Whether the input graph is resident in device memory. When False
        (the paper's PP and FS graphs exceed 16 GB), kernels that declare
        ``graph_bytes`` traffic have it charged over PCIe as UVA access.
    memory:
        Optional shared memory pool; a fresh unbounded pool is created
        when omitted.
    queues:
        Optional declaration of the queue names this context may use.
        When given, the named timelines are created up front and
        :meth:`queue` / :meth:`on_queue` raise
        :class:`~repro.errors.DeviceError` for any other name — a typo'd
        queue then fails loudly instead of silently accruing time on a
        fresh timeline nobody reads.  When omitted (the default), queues
        are created lazily on first use, as before.
    profiler:
        Optional :class:`~repro.profile.Profiler`; when set, every
        recorded launch is mirrored as a leaf span on the profiler's
        span tree.  ``None`` (the default) keeps :meth:`record` on a
        zero-overhead path — profiling never changes launch pricing, so
        simulated times are bit-identical either way.
    """

    def __init__(
        self,
        device: DeviceSpec = CPU,
        *,
        graph_on_device: bool = True,
        memory: MemoryPool | None = None,
        cost_scale: float = 1.0,
        profiler: "Profiler | None" = None,
        queues: "tuple[str, ...] | list[str] | None" = None,
    ) -> None:
        self.device = device
        self.graph_on_device = graph_on_device
        self.memory = memory if memory is not None else MemoryPool()
        self.profiler = profiler
        #: System-level kernel efficiency factor (1.0 = gSampler's tuned
        #: kernels). Baseline execution models run the same logical
        #: kernels through less specialized implementations; their factor
        #: scales each launch's compute/memory time (not UVA transfers).
        self.cost_scale = cost_scale
        self.launches: list[KernelLaunch] = []
        self.elapsed = 0.0
        #: Occupied simulated seconds (sum of launch costs). Equals
        #: ``elapsed`` on the serial path; with multi-queue records,
        #: ``elapsed`` is the timeline end (makespan) while this stays
        #: the total work, so ``busy_seconds / elapsed`` measures
        #: overlap efficiency.
        self.busy_seconds = 0.0
        #: Named device queues, created lazily by :meth:`queue` (or up
        #: front when declared via the ``queues`` parameter).
        self.queues: dict[str, QueueTimeline] = {}
        self._active_queue: QueueTimeline | None = None
        self._declared: tuple[str, ...] | None = (
            tuple(queues) if queues is not None else None
        )
        if self._declared is not None:
            for name in self._declared:
                self._validate_queue_name(name)
                self.queues[name] = QueueTimeline(name=name)

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    @staticmethod
    def _validate_queue_name(name: str) -> None:
        if not isinstance(name, str) or not name.strip():
            raise DeviceError(
                f"queue name must be a non-empty string, got {name!r}"
            )
        if name == DEFAULT_QUEUE:
            raise DeviceError(
                f"queue name {DEFAULT_QUEUE!r} is reserved for the "
                "implicit serial timeline; record outside on_queue() to "
                "use it"
            )

    def queue(self, name: str) -> QueueTimeline:
        """The named queue, created at the current timeline start (0).

        With a declared queue set (the ``queues`` constructor parameter),
        unknown names raise :class:`~repro.errors.DeviceError` instead of
        creating a fresh timeline.
        """
        timeline = self.queues.get(name)
        if timeline is None:
            self._validate_queue_name(name)
            if self._declared is not None:
                raise DeviceError(
                    f"unknown queue {name!r}; this context declares "
                    f"queues {sorted(self._declared)}"
                )
            timeline = QueueTimeline(name=name)
            self.queues[name] = timeline
        return timeline

    @contextlib.contextmanager
    def on_queue(self, name: str, *, not_before: float = 0.0):
        """Route every :meth:`record` inside the block onto queue ``name``.

        ``not_before`` is an event time the queue must wait for before
        the block's first launch (a cross-queue dependency, e.g. "this
        batch's feature transfer starts once its sampling finished").
        Launches inside the block serialize on the queue; the context's
        ``elapsed`` becomes the max over all queue end times, which is
        what makes overlapping queue timelines sum to a makespan rather
        than a total.

        Raises :class:`~repro.errors.DeviceError` for a queue name this
        context does not know (when queues were declared up front), for
        the reserved ``"default"`` name, and for a ``not_before`` that
        lies before the simulated clock's origin.
        """
        timeline = self.queue(name)
        timeline.sync_to(not_before)
        previous = self._active_queue
        self._active_queue = timeline
        try:
            yield timeline
        finally:
            self._active_queue = previous

    def record(
        self,
        name: str,
        *,
        bytes_read: float = 0.0,
        bytes_written: float = 0.0,
        flops: float = 0.0,
        tasks: int = 1,
        divergence: float = 1.0,
        graph_bytes: float = 0.0,
        fixed_seconds: float = 0.0,
    ) -> KernelLaunch:
        """Record one kernel launch and return its priced entry.

        ``graph_bytes`` is the portion of ``bytes_read`` that touches the
        input graph's storage; it becomes UVA traffic when the graph lives
        in host memory.  ``fixed_seconds`` adds a flat cost independent of
        the device model (bulk-API setup, host-side bookkeeping).
        """
        uva_bytes = 0.0
        local_bytes = bytes_read + bytes_written
        if not self.graph_on_device and graph_bytes > 0.0:
            uva_bytes = min(graph_bytes, bytes_read)
            local_bytes -= uva_bytes
        seconds = fixed_seconds + self.device.kernel_time(
            bytes_moved=local_bytes * self.cost_scale,
            flops=flops * self.cost_scale,
            tasks=tasks,
            divergence=divergence,
            uva_bytes=uva_bytes,
        )
        timeline = self._active_queue
        if timeline is None:
            # Serial path: one implicit in-order queue; elapsed is both
            # the timeline end and the total work.
            start = self.elapsed
            end = start + seconds
            self.elapsed = end
            queue_name = "default"
        else:
            start = timeline.ready
            end = start + seconds
            timeline.ready = end
            timeline.busy_seconds += seconds
            timeline.launches += 1
            # Overlapping queues: the context clock is the makespan.
            if end > self.elapsed:
                self.elapsed = end
            queue_name = timeline.name
        self.busy_seconds += seconds
        launch = KernelLaunch(
            name=name,
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            flops=flops,
            tasks=tasks,
            divergence=divergence,
            uva_bytes=uva_bytes,
            seconds=seconds,
            queue=queue_name,
            sim_start=start,
            sim_end=end,
        )
        self.launches.append(launch)
        profiler = self.profiler
        if profiler is not None:
            profiler.on_kernel(launch)
        return launch

    def reset(self, *, include_peak: bool = False) -> None:
        """Clear the ledger and timer.

        The memory pool's live/cached state is always left untouched (a
        warmed cache is part of what super-batching amortizes), but
        ``include_peak=True`` additionally restarts peak tracking from
        the current footprint so measurements taken after a warmup do
        not report the warmup's peak (the Table-9 memory column bug).
        """
        self.launches.clear()
        self.elapsed = 0.0
        self.busy_seconds = 0.0
        self.queues.clear()
        if self._declared is not None:
            for name in self._declared:
                self.queues[name] = QueueTimeline(name=name)
        if include_peak:
            self.memory.reset_peak()

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def time_by_kernel(self) -> dict[str, float]:
        """Total simulated seconds grouped by kernel name."""
        totals: dict[str, float] = defaultdict(float)
        for launch in self.launches:
            totals[launch.name] += launch.seconds
        return dict(totals)

    def launch_count(self) -> int:
        return len(self.launches)

    def queue_stats(self) -> dict[str, QueueTimeline]:
        """Snapshot of every named queue's timeline (serial runs: empty)."""
        return dict(self.queues)

    def total_bytes(self) -> float:
        return sum(l.bytes_read + l.bytes_written for l in self.launches)

    def sm_utilization(self) -> float:
        """Time-weighted average occupancy, as a percentage.

        This reproduces the "SM (%)" column of Table 9: a system that
        issues many small launches (low occupancy each) scores low even if
        it is busy the whole time, matching what ``nvidia-smi`` style
        sampling reports for under-filled kernels.
        """
        if not self.launches:
            return 0.0
        weighted = 0.0
        for launch in self.launches:
            occ = self.device.occupancy(launch.tasks)
            weighted += occ * launch.seconds
        return 100.0 * weighted / self.elapsed if self.elapsed > 0 else 0.0


class NullContext(ExecutionContext):
    """A context that skips ledger writes; used for pure eager execution.

    Keeping the interface identical lets kernels call ``ctx.record(...)``
    unconditionally without branching on whether accounting is on.
    """

    def record(self, name: str, **kwargs: float) -> KernelLaunch:  # type: ignore[override]
        return KernelLaunch(
            name=name,
            bytes_read=0.0,
            bytes_written=0.0,
            flops=0.0,
            tasks=1,
            divergence=1.0,
            uva_bytes=0.0,
            seconds=0.0,
        )


#: Shared do-nothing context for eager, unmeasured execution.
NULL_CONTEXT = NullContext()
