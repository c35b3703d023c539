"""Table-9-style text report of one profiled run.

The paper's resource tables attribute an epoch's cost to kernels (time,
launches), the device (SM utilization), and the allocator (peak pool
bytes).  :func:`build_text_report` renders the same columns from a live
:class:`~repro.device.ExecutionContext` ledger, and appends the per-pass
compile breakdown when a :class:`~repro.ir.passes.base.PassReport` with
statistics is supplied.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.device.context import ExecutionContext
    from repro.ir.passes.base import PassStat


def format_table(header: list[str], rows: list[list[object]], title: str = "") -> str:
    """Plain-text table used by every report and benchmark output."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        if rows
        else len(str(header[i]))
        for i in range(len(header))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def kernel_table(ctx: "ExecutionContext", title: str = "") -> str:
    """Per-kernel simulated time, launch counts, and share of the epoch."""
    totals = ctx.time_by_kernel()
    counts: dict[str, int] = {}
    for launch in ctx.launches:
        counts[launch.name] = counts.get(launch.name, 0) + 1
    total = sum(totals.values()) or 1.0
    rows = [
        [
            name,
            counts[name],
            f"{seconds * 1e3:.4f}",
            f"{100.0 * seconds / total:.1f}",
        ]
        for name, seconds in sorted(
            totals.items(), key=lambda kv: kv[1], reverse=True
        )
    ]
    return format_table(
        ["Kernel", "Launches", "Sim ms", "%"], rows, title=title
    )


def pass_table(stats: "list[PassStat]", title: str = "") -> str:
    """Per-pass compile cost and IR size deltas."""
    rows = [
        [
            s.name,
            s.iteration,
            "yes" if s.changed else "no",
            f"{s.wall_seconds * 1e3:.3f}",
            f"{s.nodes_before}->{s.nodes_after}",
            f"{s.edges_before}->{s.edges_after}",
            s.rewrites,
        ]
        for s in stats
    ]
    return format_table(
        ["Pass", "Iter", "Changed", "Wall ms", "Nodes", "Edges", "Rewrites"],
        rows,
        title=title,
    )


def build_text_report(
    ctx: "ExecutionContext",
    *,
    title: str = "Profile",
    wall_seconds: float | None = None,
    pass_stats: "list[PassStat] | None" = None,
) -> str:
    """The full text report: kernels, totals, and the pass pipeline."""
    pool = ctx.memory.stats()
    summary_rows: list[list[object]] = [
        ["simulated time (ms)", f"{ctx.elapsed * 1e3:.4f}"],
        ["kernel launches", ctx.launch_count()],
        ["SM utilization (%)", f"{ctx.sm_utilization():.1f}"],
        ["pool peak (KiB)", pool["peak_bytes"] // 1024],
        ["pool live (KiB)", pool["live_bytes"] // 1024],
        ["allocations", pool["alloc_count"]],
        ["recycled allocations", pool["recycle_count"]],
        ["bytes moved (MiB)", f"{ctx.total_bytes() / 2**20:.2f}"],
    ]
    if wall_seconds is not None:
        summary_rows.append(["host wall time (s)", f"{wall_seconds:.3f}"])
    parts = [
        kernel_table(ctx, title=title),
        "",
        format_table(["Metric", "Value"], summary_rows),
    ]
    if pass_stats:
        parts += ["", pass_table(pass_stats, title="Pass pipeline")]
    return "\n".join(parts)
