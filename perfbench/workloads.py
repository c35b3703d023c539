"""The five workloads: one fixed *round* each, replayed identically.

A workload drives the program only through public entry points.  Its
``round()`` is what gets timed; ``facts()`` reads the ``sim_*`` metrics
the workload is defined on (:data:`perfbench.spec.DEFINED_ON`) and the
fingerprint off the round's outputs, outside the timed section;
``derived()`` the cells only the driver's protocol asks for;
``layer_facts()`` the program-reported per-layer fields; and ``check()``
verifies the outputs, returning ``(attempted, failed, notes)``.
``--seed`` is the only source of randomness: it seeds the minibatch
shuffles, ``WorkloadSpec.seed`` and the session seed; the datasets
themselves are fixed.

This module imports NumPy and ``repro`` and is therefore only imported
inside the child process (:mod:`perfbench.child`).
"""

from __future__ import annotations

import hashlib
import math
import pathlib
import time
import typing

import numpy as np

from repro.algorithms import make_algorithm
from repro.baselines import make_system
from repro.bench import EpochStats, run_sampling_epoch
from repro.core import minibatches, new_rng
from repro.datasets import Dataset, load_dataset
from repro.device import ExecutionContext, get_device
from repro.pipeline import run_pipeline_cell
from repro.profile import Profiler, write_chrome_trace
from repro.serve import ClusterSimulator, WorkloadSpec

#: Simulated latency limit of the ``sim_slo_share`` metric.
SLO_MS = 2.0
#: Stand-in for the latency of a request that was shed or lost (+inf in
#: the definition; JSON carries no infinities).
FAILED_LATENCY_MS = 1e9
_MB = 1e6


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _per_minibatch(sim_ms: float, batches: int) -> dict[str, float]:
    """Derived latency cells of an epoch lane, for the driver only.

    The harness exposes no per-minibatch distribution, so both
    percentiles read the mean simulated ms per minibatch (``sim_epoch_ms``
    restated) and the share is whether that mean meets the limit.
    """
    mean_ms = sim_ms / batches
    return {
        "sim_p50_ms": mean_ms,
        "sim_p99_ms": mean_ms,
        "sim_slo_share": float(mean_ms <= SLO_MS),
    }


class EdgeSet:
    """Membership test for ``(row, col)`` pairs of a base graph.

    Reads the graph's existing CSC storage, so checking never adds a
    cached layout to the dataset the program is about to sample.
    """

    def __init__(self, dataset: Dataset) -> None:
        csc = dataset.graph.get("csc")
        self.num_nodes = dataset.num_nodes
        self.keys = np.sort(csc.rows * self.num_nodes + csc.expand_cols())

    def missing(self, rows: np.ndarray, cols: np.ndarray) -> int:
        """How many of the pairs are not edges of the graph."""
        wanted = np.asarray(rows) * self.num_nodes + np.asarray(cols)
        slots = np.searchsorted(self.keys, wanted)
        slots[slots == len(self.keys)] = 0
        return int(np.count_nonzero(self.keys[slots] != wanted))


class Workload:
    """Base class: subclasses set ``name`` and the hooks below."""

    name: str
    #: Dataset of the full-size round; ``--quick`` always runs on ``pd``.
    dataset_name = "pd"

    def __init__(self, seed: int, quick: bool, out_dir: pathlib.Path) -> None:
        self.seed = seed
        self.quick = quick
        self.out_dir = out_dir
        self.device = get_device("v100")
        self.scale = 0.25 if quick else 1.0
        start = time.perf_counter()
        self.dataset = load_dataset(
            "pd" if quick else self.dataset_name, scale=self.scale
        )
        #: Host seconds the benchmark's own ``load_dataset`` call took.
        self.load_s = time.perf_counter() - start

    def definition(self) -> dict[str, object]:
        """The parameters that fix the round (recorded; compared)."""
        raise NotImplementedError

    def round(self) -> object:
        raise NotImplementedError

    def units(self, raw: object) -> tuple[int, int]:
        """``(seed nodes, requests)`` one round processes."""
        raise NotImplementedError

    def facts(self, raw: object) -> dict[str, object]:
        """The ``sim_*`` metrics defined on this workload + ``fingerprint``."""
        raise NotImplementedError

    def derived(self, raw: object) -> dict[str, float]:
        """The other ``sim_*`` cells, which only ``measure`` reports."""
        raise NotImplementedError

    def layer_facts(self, raw: object) -> dict[str, float]:
        return {}

    def check(self, raw: object) -> tuple[int, int, list[str]]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Sampling epochs
# ----------------------------------------------------------------------
def _check_layered(
    sample, seeds: np.ndarray, edges: EdgeSet, fanouts: tuple[int, ...] | None
) -> list[str]:
    """Problems with one layered sample of one batch (empty when fine)."""
    problems = []
    if not sample.layers:
        return ["sample has no layers"]
    if not np.array_equal(sample.layers[0].matrix.column(), seeds):
        problems.append("layer-0 columns differ from the batch")
    for depth, layer in enumerate(sample.layers):
        rows, cols, _ = layer.matrix.to_coo_arrays()
        absent = edges.missing(rows, cols)
        if absent:
            problems.append(f"layer {depth}: {absent} sampled edges not in graph")
        if fanouts is not None and len(cols):
            worst = int(np.unique(cols, return_counts=True)[1].max())
            if worst > fanouts[depth]:
                problems.append(
                    f"layer {depth}: in-degree {worst} > fan-out {fanouts[depth]}"
                )
    return problems


def _check_walks(trace: np.ndarray, seeds: np.ndarray, edges: EdgeSet) -> list[str]:
    problems = []
    if not np.array_equal(trace[0], seeds):
        problems.append("walk row 0 differs from the batch")
    src, dst = trace[1:].ravel(), trace[:-1].ravel()
    alive = src >= 0
    # A walker steps to an in-neighbour: edge ``A[next, current]``.
    absent = edges.missing(src[alive], dst[alive])
    if absent:
        problems.append(f"{absent} walk steps do not follow an edge")
    if np.any((dst < 0) & alive):
        problems.append("a stranded walker moved again")
    return problems


class _SamplingWorkload(Workload):
    """Sampling epochs through ``run_sampling_epoch`` and their check."""

    BATCH_SIZE = 1024
    SUPERBATCH = 4

    def _epoch(self, algorithm: str, seed: int) -> EpochStats:
        return run_sampling_epoch(
            make_system("gsampler"),
            algorithm,
            self.dataset,
            device=self.device,
            batch_size=self.BATCH_SIZE,
            superbatch=self.SUPERBATCH,
            seed=seed,
        )

    def units(self, raw: list[EpochStats]) -> tuple[int, int]:
        return (
            len(self.dataset.train_ids) * len(raw),
            sum(e.num_batches for e in raw),
        )

    def facts(self, raw: list[EpochStats]) -> dict[str, object]:
        return {
            "sim_epoch_ms": sum(e.sim_seconds for e in raw) * 1e3,
            "sim_launches": sum(e.launches for e in raw),
            "sim_peak_pool_mb": max(e.peak_memory_bytes for e in raw) / _MB,
            "fingerprint": _digest(
                [(e.sim_seconds, e.launches, e.peak_memory_bytes) for e in raw]
            ),
        }

    def derived(self, raw: list[EpochStats]) -> dict[str, float]:
        return _per_minibatch(
            sum(e.sim_seconds for e in raw) * 1e3,
            sum(e.num_batches for e in raw),
        )

    def _check_algorithm(self, algorithm: str) -> tuple[int, int, list[str]]:
        """Sample the epoch's first two batches again and verify them.

        ``run_sampling_epoch`` returns statistics only, so the check
        builds the same system's pipeline over the same shuffled batches
        and inspects what it samples; one operation is one batch.
        """
        dataset = self.dataset
        rng = new_rng(self.seed)
        group = minibatches(
            dataset.train_ids, self.BATCH_SIZE, shuffle=True, rng=rng
        )[:2]
        pipeline = make_system("gsampler").build_pipeline(
            algorithm, dataset, group[0]
        )
        ctx = ExecutionContext(
            self.device, graph_on_device=dataset.graph_on_device
        )
        edges = EdgeSet(dataset)
        fanouts = (
            make_algorithm("graphsage").fanouts
            if algorithm == "graphsage"
            else None
        )
        if algorithm == "deepwalk":
            problems = [
                _check_walks(
                    pipeline.sample_batch(b, ctx=ctx, rng=rng).trace, b, edges
                )
                for b in group
            ]
        else:
            samples = (
                pipeline.sample_superbatch(group, ctx=ctx, rng=rng)
                if len(group) > 1
                else [pipeline.sample_batch(group[0], ctx=ctx, rng=rng)]
            )
            problems = [
                _check_layered(sample, b, edges, fanouts)
                for sample, b in zip(samples, group)
            ]
        notes = [f"{algorithm}: {p}" for found in problems for p in found]
        return len(group), sum(bool(found) for found in problems), notes


class SageEpoch(_SamplingWorkload):
    name = "sage_epoch"

    def definition(self) -> dict[str, object]:
        return {
            "algorithm": "graphsage",
            "dataset": "pd",
            "scale": self.scale,
            "batch_size": self.BATCH_SIZE,
            "superbatch": self.SUPERBATCH,
            "epochs": 1,
        }

    def round(self) -> list[EpochStats]:
        return [self._epoch("graphsage", self.seed)]

    def check(self, raw: list[EpochStats]) -> tuple[int, int, list[str]]:
        return self._check_algorithm("graphsage")


class LadiesWalkEpoch(_SamplingWorkload):
    name = "ladies_walk_epoch"
    dataset_name = "lj"

    def __init__(self, seed: int, quick: bool, out_dir: pathlib.Path) -> None:
        super().__init__(seed, quick, out_dir)
        self.ladies_epochs, self.walk_epochs = (1, 2) if quick else (3, 30)

    def definition(self) -> dict[str, object]:
        return {
            "algorithms": ["ladies", "deepwalk"],
            "dataset": self.dataset.name,
            "scale": self.scale,
            "batch_size": self.BATCH_SIZE,
            "superbatch": self.SUPERBATCH,
            "ladies_epochs": self.ladies_epochs,
            "deepwalk_epochs": self.walk_epochs,
        }

    def round(self) -> list[EpochStats]:
        plan = [("ladies", self.ladies_epochs), ("deepwalk", self.walk_epochs)]
        return [
            self._epoch(algorithm, self.seed * 1000 + epoch)
            for algorithm, epochs in plan
            for epoch in range(epochs)
        ]

    def check(self, raw: list[EpochStats]) -> tuple[int, int, list[str]]:
        ladies = self._check_algorithm("ladies")
        walks = self._check_algorithm("deepwalk")
        return ladies[0] + walks[0], ladies[1] + walks[1], ladies[2] + walks[2]


# ----------------------------------------------------------------------
# Training pipeline
# ----------------------------------------------------------------------
class TrainPipeline(Workload):
    name = "train_pipeline"
    BATCH_SIZE = 256

    def __init__(self, seed: int, quick: bool, out_dir: pathlib.Path) -> None:
        super().__init__(seed, quick, out_dir)
        self.cells = (
            [("graphsage", 4), ("ladies", 6)]
            if quick
            else [("graphsage", 16), ("ladies", 40)]
        )

    def definition(self) -> dict[str, object]:
        return {
            "cells": [list(cell) for cell in self.cells],
            "dataset": "pd",
            "scale": self.scale,
            "batch_size": self.BATCH_SIZE,
            "cache_ratio": "default",
        }

    def round(self) -> list[tuple]:
        return [
            run_pipeline_cell(
                algorithm,
                self.dataset,
                device=self.device,
                batch_size=self.BATCH_SIZE,
                max_batches=max_batches,
                seed=self.seed,
            )
            for algorithm, max_batches in self.cells
        ]

    def units(self, raw: list[tuple]) -> tuple[int, int]:
        # Each cell trains its batches twice: serially and pipelined.
        batches = 2 * sum(max_batches for _, max_batches in self.cells)
        return batches * self.BATCH_SIZE, batches

    def facts(self, raw: list[tuple]) -> dict[str, object]:
        return {
            "sim_epoch_ms": sum(p.total_seconds for _, p in raw) * 1e3,
            "sim_launches": sum(
                q.launches for _, p in raw for q in p.queue_reports
            ),
            "fingerprint": _digest(
                [
                    (s.final_loss, s.final_accuracy, s.total_seconds,
                     p.final_loss, p.final_accuracy, p.total_seconds)
                    for s, p in raw
                ]
            ),
        }

    def derived(self, raw: list[tuple]) -> dict[str, float]:
        return {
            **_per_minibatch(
                sum(p.total_seconds for _, p in raw) * 1e3,
                sum(max_batches for _, max_batches in self.cells),
            ),
            # The training result exposes no pool peak; the bytes the
            # feature cache pins in the training device's pool are the
            # pool figure it does report.
            "sim_peak_pool_mb": max(
                p.cache_stats.cached_bytes if p.cache_stats else 0
                for _, p in raw
            )
            / _MB,
        }

    def layer_facts(self, raw: list[tuple]) -> dict[str, float]:
        serial = [s for s, _ in raw]
        pipelined = [p for _, p in raw]
        stats = [p.cache_stats for p in pipelined if p.cache_stats]
        lookups = sum(s.lookups for s in stats)
        total = sum(p.total_seconds for p in pipelined)
        serialized = sum(p.serialized_seconds for p in pipelined)
        out = {
            "cache.sim_hit_rate": (
                sum(s.hits for s in stats) / lookups if lookups else 0.0
            ),
            "learning.sim_sampling_fraction": (
                sum(s.sampling_seconds for s in serial)
                / sum(s.total_seconds for s in serial)
            ),
            "pipeline.sim_overlap_reduction": (
                1.0 - total / serialized if serialized else 0.0
            ),
        }
        for queue, metric in (
            ("sample", "pipeline.sim_util_sample"),
            ("transfer", "pipeline.sim_util_transfer"),
            ("compute", "pipeline.sim_util_compute"),
        ):
            busy = sum(
                q.busy_seconds
                for p in pipelined
                for q in p.queue_reports
                if q.queue == queue
            )
            out[metric] = busy / total if total else 0.0
        return out

    def check(self, raw: list[tuple]) -> tuple[int, int, list[str]]:
        chance = 1.0 / self.dataset.num_classes
        notes = []
        failed = 0
        for (algorithm, _), (serial, pipelined) in zip(self.cells, raw):
            problems = []
            if serial.final_loss != pipelined.final_loss:
                problems.append("serial and pipelined losses differ")
            if not math.isfinite(pipelined.final_loss):
                problems.append("loss is not finite")
            if pipelined.final_accuracy < chance:
                problems.append(
                    f"accuracy {pipelined.final_accuracy:.3f} below chance"
                )
            failed += bool(problems)
            notes.extend(f"{algorithm} cell: {p}" for p in problems)
        return len(raw), failed, notes


# ----------------------------------------------------------------------
# Serving sessions
# ----------------------------------------------------------------------
class _Session(typing.NamedTuple):
    """What one serving round leaves behind."""

    cluster: ClusterSimulator
    report: object
    profiler: Profiler | None
    trace_path: pathlib.Path | None


class _ServeWorkload(Workload):
    """One serving session per round: build, generate, serve (, export).

    Arrivals are an open loop on the simulated clock (``RequestLog``
    times latency from the scheduled arrival, so the generator is never
    late); on the host clock the session is one closed-loop client.
    """

    cluster_kwargs: dict[str, object] = {}
    spec_kwargs: dict[str, object] = {}
    profiled = False

    def __init__(self, seed: int, quick: bool, out_dir: pathlib.Path) -> None:
        super().__init__(seed, quick, out_dir)
        self.num_requests = 128 if quick else 2048

    def definition(self) -> dict[str, object]:
        return {
            "dataset": "pd",
            "scale": self.scale,
            "algorithm": "graphsage",
            "task": "node",
            "policy": "default",
            "num_requests": self.num_requests,
            "profiler": self.profiled,
            "cluster": dict(self.cluster_kwargs),
            "spec": dict(self.spec_kwargs),
        }

    def round(self) -> _Session:
        profiler = Profiler() if self.profiled else None
        cluster = ClusterSimulator(
            self.dataset,
            device=self.device,
            seed=self.seed,
            profiler=profiler,
            **self.cluster_kwargs,
        )
        requests = cluster.build_workload(
            WorkloadSpec(
                num_requests=self.num_requests,
                seed=self.seed,
                **self.spec_kwargs,
            )
        )
        report = cluster.run(requests)
        trace_path = None
        if profiler is not None:
            trace_path = write_chrome_trace(
                profiler, self.out_dir / f"chrome_trace_{self.name}.json"
            )
        return _Session(cluster, report, profiler, trace_path)

    def units(self, raw: _Session) -> tuple[int, int]:
        report = raw.report
        return sum(log.seeds for log in report.logs), report.requests

    def facts(self, raw: _Session) -> dict[str, object]:
        report = raw.report
        latency_ms = np.array(
            [
                log.latency * 1e3 if log.completed else FAILED_LATENCY_MS
                for log in report.logs
            ]
        )
        return {
            "sim_p50_ms": float(np.percentile(latency_ms, 50.0)),
            "sim_p99_ms": float(np.percentile(latency_ms, 99.0)),
            "sim_slo_share": report.slo_attainment(SLO_MS * 1e-3),
            "fingerprint": _digest(report.fingerprint()),
        }

    def derived(self, raw: _Session) -> dict[str, float]:
        """Per sampler batch, so the cells hold still across ``--seed``s.

        Session totals (device-busy ms, launches, pool peaks) follow how
        the seed's arrival draw happened to batch and swing 3 % between
        seeds; the makespan of an open loop restates the arrivals.
        """
        report = raw.report
        contexts = [
            ctx
            for replica in raw.cluster.replicas
            for ctx in (replica.sample_ctx, replica.io_ctx)
        ]
        batches = sum(report.batch_histogram.values())
        return {
            "sim_epoch_ms": sum(c.busy_seconds for c in contexts) * 1e3 / batches,
            "sim_launches": sum(c.launch_count() for c in contexts) / batches,
            # As on ``train_pipeline``: the bytes the feature caches pin.
            "sim_peak_pool_mb": report.cache.cached_bytes / _MB,
        }

    def layer_facts(self, raw: _Session) -> dict[str, float]:
        cluster, report, profiler, trace_path = raw
        cache = report.cache
        return {
            "partition.sim_edge_cut": (
                cluster.partition.edge_cut if cluster.partition else 0.0
            ),
            "cache.sim_hit_rate": cache.hit_rate if cache else 0.0,
            "cache.sim_p2p_rows": cache.p2p_hits if cache else 0,
            "cache.sim_remote_rows": cache.remote_hits if cache else 0,
            "serve.sim_mean_batch": report.mean_batch,
            "serve.sim_mean_queue_ms": report.mean_queue_ms,
            "serve.sim_shed": report.shed,
            "serve.sim_degraded": report.degraded,
            "serve.sim_dedup_rows": report.dedup_rows,
            "serve.sim_cross_shard_rows": report.cross_shard_rows,
            "serve.sim_superbatch_runs": report.superbatch_batches,
            "profile.spans": len(profiler.spans) if profiler else 0,
            "profile.trace_bytes": (
                trace_path.stat().st_size if trace_path else 0
            ),
        }

    def check(self, raw: _Session) -> tuple[int, int, list[str]]:
        report = raw.report
        done = [log for log in report.logs if log.completed]
        counts = {
            "requests unaccounted for (completed + shed + lost != requests)": abs(
                report.requests - report.completed - report.shed - report.lost
            ),
            "logs break arrival <= start <= completion": sum(
                not log.arrival <= log.start <= log.completion for log in done
            ),
            "completed request ids repeat": len(done)
            - len({log.rid for log in done}),
            "requests shed": report.shed,
            "requests lost": report.lost,
        }
        notes = [f"{n} {what}" for what, n in counts.items() if n]
        failed = min(sum(counts.values()), report.requests)
        return report.requests, failed, notes


class ServeFifo(_ServeWorkload):
    name = "serve_fifo"
    cluster_kwargs = {
        "num_replicas": 1,
        "router": "round_robin",
        "composer": "fifo",
    }
    spec_kwargs = {
        "arrival_rate": 50_000.0,
        "process": "poisson",
        "seeds_per_request": 8,
    }


class ServeClusterTraced(_ServeWorkload):
    name = "serve_cluster_traced"
    profiled = True
    cluster_kwargs = {
        "num_replicas": 4,
        "router": "shard",
        "partition": "greedy",
        "link": "nvlink",
        "composer": "superbatch",
        "feature_tiers": True,
        "p2p": True,
        "hbm_budget": 65536,
    }
    spec_kwargs = {
        "arrival_rate": 400_000.0,
        "process": "bursty",
        "seeds_per_request": 8,
        "max_seeds_per_request": 32,
    }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        SageEpoch,
        LadiesWalkEpoch,
        TrainPipeline,
        ServeFifo,
        ServeClusterTraced,
    )
}
