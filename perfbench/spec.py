"""``BENCHMARK.json`` as the one list of workloads, metrics, units, bounds."""

from __future__ import annotations

import json

from perfbench import ROOT

#: Checks reported beside the end-to-end metrics.  They are zero on a
#: healthy run, so the driver's contract (metrics are never 0) keeps
#: them out of ``BENCHMARK.json``; ``compare`` bounds them absolutely.
ABSOLUTE_CHECKS = {"failed_share": "share", "nondeterminism": "count"}

_EPOCHS = ("sage_epoch", "ladies_walk_epoch", "train_pipeline")
_SERVE = ("serve_fifo", "serve_cluster_traced")
#: The workloads each end-to-end metric is defined on.  ``run`` prints,
#: stores and ``compare`` judges a metric there and nowhere else.  The
#: growth driver's protocol wants every metric from every workload, so
#: ``measure`` alone adds the other cells, *derived* from the same round
#: (see ``Workload.derived`` and the README); they gate nothing here.
DEFINED_ON: dict[str, tuple[str, ...]] = {
    "setup_s": _EPOCHS + _SERVE,
    "host_seeds_per_s": _EPOCHS,
    "host_req_per_s": _SERVE,
    "host_peak_rss_mb": _EPOCHS + _SERVE,
    "sim_epoch_ms": _EPOCHS,
    "sim_launches": _EPOCHS,
    "sim_p50_ms": _SERVE,
    "sim_p99_ms": _SERVE,
    "sim_slo_share": _SERVE,
    "sim_peak_pool_mb": ("sage_epoch", "ladies_walk_epoch"),
}


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json`` of this checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names(benchmark: dict) -> list[str]:
    return [w["name"] for w in benchmark["workloads"]]


def units(benchmark: dict, section: str) -> dict[str, str]:
    """``metric -> unit`` of ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in benchmark[section]}
