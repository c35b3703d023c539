"""What the traced run wraps, layer by layer, and how spans become metrics.

Layers are named after the modules of ``src/repro``.  ``*_s`` metrics are
host *self* seconds per traced round, ``*_calls`` and the counts are
exact, and ``sim_*`` fields are copied from the program's own reports by
the workload (:meth:`perfbench.workloads.Workload.layer_facts`).
"""

from __future__ import annotations

import statistics

from perfbench.tracing import ROOT_SPAN, Target, Tracer


# ----------------------------------------------------------------------
# Counts made at the boundaries (run after the span closed)
# ----------------------------------------------------------------------
def _count_race_select(tracer: Tracer, args, kwargs, result) -> None:
    keys = args[0] if args else kwargs["keys"]
    tracer.add("core.race_candidates", len(keys))
    tracer.add("core.race_selected", len(result))


def _count_sampled_edges(tracer: Tracer, args, kwargs, result) -> None:
    # ``run`` returns values shaped like the trace (normally ``(matrix,
    # next_frontiers)``); ``run_superbatch`` a list of such pairs.
    pairs = result if isinstance(result, list) else [result]
    for pair in pairs:
        matrix = pair[0] if isinstance(pair, tuple) else pair
        tracer.add("core.sampled_edges", getattr(matrix, "nnz", 0))


def _count_compile(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("ir.nodes_after", len(result.ir))


def _count_pass(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("ir.rewrites", result.rewrites)


def _count_launch(tracer: Tracer, args, kwargs, result) -> None:
    ctx = args[0]
    tracer.add("device.launches")
    tracer.add("device.sim_busy_s", result.seconds)
    tracer.add("device.sim_bytes", result.bytes_read + result.bytes_written)
    tracer.add(
        "device.sim_occupied_s",
        ctx.device.occupancy(result.tasks) * result.seconds,
    )


def _count_gather(tracer: Tracer, args, kwargs, result) -> None:
    nodes = args[0] if args else kwargs["nodes"]
    tracer.add("cache.rows_requested", len(nodes))


def _targets(span: str, module: str, *attrs: str, count=None) -> list[Target]:
    return [Target(span, module, attr, count) for attr in attrs]


#: Every wrapped callable.  A target the program no longer has is
#: skipped and listed in the result file; its metrics read zero.
TARGETS: list[Target] = [
    *_targets("partition.build", "repro.partition.partitioners",
              "make_partition", "greedy_partition", "hash_partition"),
    *_targets("sampler.compile", "repro.sampler", "compile_sampler",
              count=_count_compile),
    *_targets("sampler.run", "repro.sampler", "CompiledSampler.run",
              "CompiledSampler.run_superbatch", count=_count_sampled_edges),
    *_targets("algorithms.driver", "repro.algorithms.base",
              "LayeredPipeline.sample_batch",
              "LayeredPipeline.sample_superbatch"),
    *_targets("algorithms.driver", "repro.algorithms.walks", "uniform_walk"),
    *_targets("ir.trace", "repro.ir.trace", "trace"),
    *_targets("ir.passes", "repro.ir.passes.base", "PassManager.run"),
    *_targets("ir.passes", "repro.ir.passes.base", "run_measured_pass",
              count=_count_pass),
    *_targets("ir.interpret", "repro.ir.interpreter", "Interpreter.run"),
    *_targets("ir.superbatch_ops", "repro.ir.superbatch_ops",
              "batch_of_columns", "sb_slice_cols", "sb_fused_extract_reduce",
              "sb_collective_sample", "split_sample"),
    *_targets("core.race_select", "repro.core.random",
              "segmented_race_select", count=_count_race_select),
    *_targets("core.race_keys", "repro.core.random", "exponential_race_keys"),
    *_targets("core.uniform_draw", "repro.core.random",
              "segmented_uniform_with_replacement"),
    *_targets("core.extract_sample", "repro.core.sampling",
              "fused_extract_individual_sample", "individual_sample"),
    *_targets("core.collective_sample", "repro.core.sampling",
              "collective_sample"),
    *_targets("core.walk_step", "repro.core.sampling", "uniform_walk_step"),
    *_targets("sparse.slice", "repro.sparse.kernels",
              "slice_columns", "slice_rows"),
    *_targets("sparse.map_reduce", "repro.sparse.kernels",
              "edge_endpoints", "map_edges_scalar", "map_edges_unary",
              "map_edges_broadcast", "map_edges_combine", "reduce_rows",
              "reduce_cols", "spmm", "sddmm_dot", "fused_map_chain",
              "fused_map_reduce"),
    *_targets("sparse.map_reduce", "repro.core.sampling",
              "fused_extract_reduce"),
    *_targets("sparse.compact", "repro.sparse.compact", "occupied_rows",
              "occupied_cols", "compact_rows", "compact_cols"),
    *_targets("sparse.convert", "repro.sparse.convert", "convert",
              "coo_to_csr", "coo_to_csc", "csr_to_coo", "csc_to_coo",
              "csr_to_csc", "csc_to_csr"),
    *_targets("np.unique", "numpy", "unique"),
    *_targets("device.record", "repro.device.context",
              "ExecutionContext.record", count=_count_launch),
    *_targets("cache.gather", "repro.cache.gather", "plan_gather",
              count=_count_gather),
    *_targets("cache.gather", "repro.cache.gather", "record_gather"),
    *_targets("cache.gather", "repro.cache.feature_cache",
              "FeatureCache.split", "FeatureCache.record_gather"),
    *_targets("cache.gather", "repro.cache.tiered",
              "TieredFeatureStore.split", "TieredFeatureStore.record_gather"),
    *_targets("tasks.materialize", "repro.tasks.node_classification",
              "*.materialize"),
    *_targets("tasks.materialize", "repro.tasks.link_prediction",
              "*.materialize"),
    *_targets("tasks.materialize", "repro.tasks.base",
              "unique_and_compact_node_pairs"),
    *_targets("learning.model", "repro.learning.models",
              "SampledGNN.forward", "SampledGNN.backward",
              "SampledGNN.zero_grad"),
    *_targets("learning.model", "repro.learning.nn", "SGD.step",
              "softmax_cross_entropy", "accuracy"),
    *_targets("pipeline.self", "repro.learning.trainer", "Trainer.train"),
    *_targets("pipeline.self", "repro.pipeline.executor",
              "PipelinedTrainer.train"),
    *_targets("serve.build", "repro.serve.cluster",
              "ClusterSimulator.__init__"),
    *_targets("serve.workload_gen", "repro.serve.workload",
              "generate_workload"),
    *_targets("serve.route", "repro.serve.router", "*.route"),
    *_targets("serve.compose", "repro.serve.compose", "*.plan"),
    *_targets("serve.replica", "repro.serve.replica", "Replica.offer",
              "Replica.advance_until", "Replica.drain"),
    *_targets("serve.cluster_loop", "repro.serve.cluster",
              "ClusterSimulator.run"),
    *_targets("serve.summarize", "repro.serve.metrics", "summarize",
              "replica_breakdown"),
    *_targets("profile.span", "repro.profile.spans", "Profiler.begin",
              "Profiler.end", "Profiler.on_kernel"),
    *_targets("profile.export", "repro.profile.chrome", "to_chrome_trace",
              "write_chrome_trace"),
]

#: ``metric -> (span, field)`` for the metrics read straight off spans.
_SPAN_METRICS: dict[str, tuple[str, str]] = {
    "partition.build_s": ("partition.build", "self_s"),
    "sampler.compile_s": ("sampler.compile", "self_s"),
    "sampler.run_calls": ("sampler.run", "calls"),
    "sampler.run_self_s": ("sampler.run", "self_s"),
    "algorithms.driver_self_s": ("algorithms.driver", "self_s"),
    "ir.trace_s": ("ir.trace", "self_s"),
    "ir.passes_s": ("ir.passes", "self_s"),
    "ir.interpret_calls": ("ir.interpret", "calls"),
    "ir.interpret_self_s": ("ir.interpret", "self_s"),
    "ir.superbatch_ops_s": ("ir.superbatch_ops", "self_s"),
    "core.race_select_s": ("core.race_select", "self_s"),
    "core.race_select_calls": ("core.race_select", "calls"),
    "core.race_keys_s": ("core.race_keys", "self_s"),
    "core.uniform_draw_s": ("core.uniform_draw", "self_s"),
    "core.extract_sample_self_s": ("core.extract_sample", "self_s"),
    "core.collective_sample_self_s": ("core.collective_sample", "self_s"),
    "core.walk_step_s": ("core.walk_step", "self_s"),
    "sparse.slice_s": ("sparse.slice", "self_s"),
    "sparse.map_reduce_s": ("sparse.map_reduce", "self_s"),
    "sparse.compact_s": ("sparse.compact", "self_s"),
    "sparse.convert_s": ("sparse.convert", "self_s"),
    "sparse.convert_calls": ("sparse.convert", "calls"),
    "np.unique_s": ("np.unique", "self_s"),
    "np.unique_calls": ("np.unique", "calls"),
    "device.record_s": ("device.record", "self_s"),
    "cache.gather_s": ("cache.gather", "self_s"),
    "cache.gather_calls": ("cache.gather", "calls"),
    "tasks.materialize_s": ("tasks.materialize", "self_s"),
    "learning.model_s": ("learning.model", "self_s"),
    "pipeline.self_s": ("pipeline.self", "self_s"),
    "serve.build_s": ("serve.build", "self_s"),
    "serve.workload_gen_s": ("serve.workload_gen", "self_s"),
    "serve.route_s": ("serve.route", "self_s"),
    "serve.route_calls": ("serve.route", "calls"),
    "serve.compose_s": ("serve.compose", "self_s"),
    "serve.compose_calls": ("serve.compose", "calls"),
    "serve.replica_self_s": ("serve.replica", "self_s"),
    "serve.cluster_loop_self_s": ("serve.cluster_loop", "self_s"),
    "serve.summarize_s": ("serve.summarize", "self_s"),
    "profile.span_s": ("profile.span", "self_s"),
    "profile.export_s": ("profile.export", "self_s"),
}

#: Metrics that are plain per-round counts made by the hooks above.
_COUNT_METRICS = (
    "ir.nodes_after",
    "ir.rewrites",
    "core.race_candidates",
    "core.race_selected",
    "core.sampled_edges",
    "device.launches",
    "device.sim_bytes",
    "cache.rows_requested",
)


def layer_metrics(
    tracer: Tracer,
    traced_walls: list[float],
    untraced_walls: list[float],
) -> dict[str, float]:
    """Per-layer numbers of one traced run, averaged over its rounds.

    The traced rounds are replays of one fixed round, so the counts are
    equal in each and the mean is the count.
    """
    rollup = tracer.rollup()
    rounds = sorted(r for r in rollup if r >= 0)

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    def span_value(span: str, field: str) -> float:
        return mean([rollup[r].get(span, {}).get(field, 0.0) for r in rounds])

    def count(key: str) -> float:
        return mean([tracer.counts[r].get(key, 0.0) for r in rounds])

    out = {name: span_value(*ref) for name, ref in _SPAN_METRICS.items()}
    out.update({name: count(name) for name in _COUNT_METRICS})
    candidates = out["core.race_candidates"]
    out["core.race_yield"] = (
        out["core.race_selected"] / candidates if candidates else 0.0
    )
    busy = count("device.sim_busy_s")
    out["device.sim_busy_ms"] = busy * 1e3
    out["device.sim_sm_percent"] = (
        100.0 * count("device.sim_occupied_s") / busy if busy else 0.0
    )
    traced = mean(traced_walls)
    untraced = statistics.median(untraced_walls)
    launches = out["device.launches"]
    out["device.host_us_per_launch"] = (
        1e6 * untraced / launches if launches else 0.0
    )
    out["bench.trace_overhead_share"] = max(0.0, traced / untraced - 1.0)
    out["bench.unattributed_share"] = (
        span_value(ROOT_SPAN, "self_s") / traced if traced else 0.0
    )
    return out
