"""Baseline-system tests: capability matrices and profiled accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    FIGURE7_SYSTEMS,
    FIGURE8_SYSTEMS,
    GSamplerSystem,
    Profile,
    ProfiledPipeline,
    make_system,
)
from repro.core import new_rng
from repro.datasets import load_dataset
from repro.device import ExecutionContext, V100
from repro.errors import GSamplerError, UnsupportedAlgorithmError


@pytest.fixture(scope="module")
def pd():
    return load_dataset("pd", scale=0.1)


@pytest.fixture(scope="module")
def pp():
    return load_dataset("pp", scale=0.25)


class TestCapabilityMatrix:
    """The N/A cells of Figures 7 and 8."""

    def test_gsampler_runs_everything(self, pd):
        system = make_system("gsampler")
        for algo in ("deepwalk", "node2vec", "graphsage", "ladies",
                     "asgcn", "pass", "shadow"):
            system.check_support(algo, pd)  # must not raise

    def test_dgl_gpu_lacks_node2vec(self, pd):
        with pytest.raises(UnsupportedAlgorithmError):
            make_system("dgl-gpu").check_support("node2vec", pd)

    def test_pyg_gpu_only_deepwalk(self, pd):
        system = make_system("pyg-gpu")
        system.check_support("deepwalk", pd)
        for algo in ("graphsage", "ladies", "pass"):
            with pytest.raises(UnsupportedAlgorithmError):
                system.check_support(algo, pd)

    def test_vertex_centric_cannot_express_layerwise(self, pd):
        for name in ("skywalker", "gunrock", "cugraph"):
            with pytest.raises(UnsupportedAlgorithmError):
                make_system(name).check_support("ladies", pd)

    def test_no_uva_systems_fail_on_host_graphs(self, pp):
        for name in ("gunrock", "cugraph"):
            with pytest.raises(UnsupportedAlgorithmError) as err:
                make_system(name).check_support("graphsage", pp)
            assert "UVA" in str(err.value)

    def test_skywalker_handles_host_graphs(self, pp):
        make_system("skywalker").check_support("graphsage", pp)

    def test_figure_system_lists_resolve(self):
        for name in FIGURE7_SYSTEMS + FIGURE8_SYSTEMS:
            assert make_system(name) is not None
        with pytest.raises(GSamplerError, match="unknown system"):
            make_system("nextdoor")


class TestProfiledExecution:
    def test_profile_scales_time_not_semantics(self, pd):
        seeds = pd.train_ids[:32]
        fast = make_system("gsampler").build_pipeline("graphsage", pd, seeds)
        slow = make_system("dgl-gpu").build_pipeline("graphsage", pd, seeds)
        ctx_fast, ctx_slow = ExecutionContext(V100), ExecutionContext(V100)
        out_fast = fast.sample_batch(seeds, ctx=ctx_fast, rng=new_rng(0))
        out_slow = slow.sample_batch(seeds, ctx=ctx_slow, rng=new_rng(0))
        assert ctx_slow.elapsed > ctx_fast.elapsed
        # Both produce real samples of the same shape contract.
        assert len(out_slow.layers) == len(out_fast.layers)

    def test_launch_multiplier_visible_in_ledger(self, pd):
        seeds = pd.train_ids[:16]
        pipeline = make_system("dgl-gpu").build_pipeline("graphsage", pd, seeds)
        ctx = ExecutionContext(V100)
        pipeline.sample_batch(seeds, ctx=ctx, rng=new_rng(1))
        inner = GSamplerSystem().build_pipeline("graphsage", pd, seeds)
        ctx_inner = ExecutionContext(V100)
        inner.sample_batch(seeds, ctx=ctx_inner, rng=new_rng(1))
        assert ctx.launch_count() > ctx_inner.launch_count()

    def test_occupancy_divisor_lowers_sm(self, pd):
        seeds = pd.train_ids[:64]
        sky = make_system("skywalker").build_pipeline("graphsage", pd, seeds)
        ctx_sky = ExecutionContext(V100)
        sky.sample_batch(seeds, ctx=ctx_sky, rng=new_rng(2))
        gs = GSamplerSystem().build_pipeline("graphsage", pd, seeds)
        ctx_gs = ExecutionContext(V100)
        gs.sample_batch(seeds, ctx=ctx_gs, rng=new_rng(2))
        assert ctx_sky.sm_utilization() <= ctx_gs.sm_utilization()

    def test_fixed_seconds_dominates_cugraph(self, pd):
        seeds = pd.train_ids[:16]
        cu = make_system("cugraph").build_pipeline("deepwalk", pd, seeds)
        ctx = ExecutionContext(V100)
        cu.sample_batch(seeds, ctx=ctx, rng=new_rng(3))
        fixed_total = 120e-6 * ctx.launch_count()
        assert ctx.elapsed >= fixed_total

    def test_profiled_pipeline_generic_wrap(self, pd):
        seeds = pd.train_ids[:8]
        inner = GSamplerSystem().build_pipeline("ladies", pd, seeds)
        wrapped = ProfiledPipeline(inner, Profile(cost_scale=4.0))
        ctx_w, ctx_i = ExecutionContext(V100), ExecutionContext(V100)
        wrapped.sample_batch(seeds, ctx=ctx_w, rng=new_rng(4))
        inner.sample_batch(seeds, ctx=ctx_i, rng=new_rng(4))
        assert ctx_w.elapsed > ctx_i.elapsed
