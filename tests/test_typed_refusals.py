"""Refusals are typed and early: every bad name or argument raises a
``repro.errors`` type before any compile, launch or dataset load — and a
misspelt algorithm is never reported as one of the paper's N/A cells."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

import repro.bench.harness as harness
from repro import cli, sampler
from repro.algorithms import make_algorithm
from repro.algorithms.walks import check_walk_parameters, uniform_walk
from repro.baselines import make_system
from repro.bench import measure_cell
from repro.cache import FeatureSource, TieredFeatureStore
from repro.core import minibatches, new_rng
from repro.datasets import load_dataset
from repro.device import NVLINK, V100, ExecutionContext, MemoryPool
from repro.dynamic import DynamicPolicy, UpdateSpec
from repro.errors import DeviceError, GSamplerError, ServeError, ShapeError
from repro.learning.trainer import check_run_shape
from repro.serve import (
    AutoscalePolicy,
    FailureEvent,
    FailureSpec,
    ServePolicy,
    WorkloadSpec,
)
from repro.sparse import COO, compact_cols, compact_rows, convert


class TestTypedRefusals:
    """Every refusal is a ``repro.errors`` type raised before any work."""

    def test_unknown_system(self):
        with pytest.raises(GSamplerError, match="unknown system 'nextdoor'"):
            make_system("nextdoor")

    def test_unknown_parameter_names_the_accepted_ones(self):
        with pytest.raises(GSamplerError) as err:
            make_algorithm("ladies", fanouts=(5,))
        assert "fanouts" in str(err.value)
        assert "layer_width" in str(err.value) and "num_layers" in str(err.value)

    @pytest.mark.parametrize("name", ["asgcn", "pass"])
    def test_model_driven_needs_features_before_any_compile(
        self, name, small_graph, monkeypatch
    ):
        from repro.algorithms import base

        def no_compile(*args, **kwargs):
            raise AssertionError("compiled before refusing")

        monkeypatch.setattr(sampler, "compile_sampler", no_compile)
        monkeypatch.setattr(base, "compile_sampler", no_compile)
        with pytest.raises(GSamplerError, match="requires node features"):
            make_algorithm(name).build(small_graph, np.arange(4))

    def test_shadow_bias(self):
        with pytest.raises(GSamplerError, match="'uniform' or 'ppr'"):
            make_algorithm("shadow", bias="metis")

    def test_bandit_rule(self, small_graph):
        from repro.algorithms import BanditPipeline

        with pytest.raises(GSamplerError, match="unknown bandit rule"):
            BanditPipeline(small_graph, (3,), "thompson")

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_edge_weight_names_its_layer_before_aggregating(
        self, poison, small_graph, rng, monkeypatch
    ):
        """One NaN weight used to come back as an all-NaN row, then a NaN loss."""
        from repro.learning import GraphSAGEModel, models

        def no_aggregate(*args, **kwargs):
            raise AssertionError("aggregated before refusing")

        seeds = np.arange(8)
        pipeline = make_algorithm("graphsage", fanouts=(3, 3)).build(
            small_graph, seeds
        )
        sample = pipeline.sample_batch(seeds, rng=new_rng(0))
        sample.layers[1].matrix.any_storage().values[0] = poison
        monkeypatch.setattr(models, "scatter_add", no_aggregate)
        model = GraphSAGEModel(8, 16, 4, num_layers=2, rng=rng)
        with pytest.raises(ShapeError, match="layer 1 has non-finite edge weights"):
            model.forward(sample, rng.random((200, 8)).astype(np.float32))


class TestIndexBoundaries:
    """An id the kernel would wrap, repeat or index past the end is refused
    with a ``ShapeError`` naming it — before any launch or draw."""

    @pytest.mark.parametrize("layout", ["coo", "csr", "csc"])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize(
        ("keep", "message"),
        [
            ([-1], "-1 is outside [0, 4)"),
            ([1, 4], "4 is outside [0, 4)"),
            ([0, 0], "0 is repeated"),
            ([3, 1, 3], "3 is repeated"),
        ],
    )
    def test_compact_keep(self, layout, axis, keep, message):
        """``keep_rows=[-1]`` used to relabel the last row to 0 and return
        ``row_ids [-1]``; ``[0, 0]`` built a matrix with an orphaned row;
        an id past the end raised a bare ``IndexError``."""
        coo = COO(rows=[0, 1, 3], cols=[2, 0, 3], values=None, shape=(4, 4))
        ctx = ExecutionContext(V100)
        name = ("row", "col")[axis]
        with pytest.raises(ShapeError, match=re.escape(f"keep {name} {message}")):
            (compact_rows, compact_cols)[axis](
                convert(coo, layout), ctx, np.array(keep)
            )
        assert ctx.launch_count() == 0

    @pytest.mark.parametrize(
        ("seeds", "walk_length", "message"),
        [
            ([0, 1], -1, "walk length must be >= 0, got -1"),
            ([0, 200], 3, "walk seed 200 is outside [-1, 200)"),
            ([-2, 0], 3, "walk seed -2 is outside [-1, 200)"),
            ([0, 1], 2.5, "walk length must be an integer, got 2.5"),
            (
                [1.7, 2.2],
                3,
                "walk seed ids must be integers, got dtype float64",
            ),
            (
                [[0, 1], [2, 3]],
                3,
                "walk seed ids must be 1-D, got shape (2, 2)",
            ),
        ],
    )
    def test_walk(self, seeds, walk_length, message, small_graph):
        """Each of these failed deep inside the driver: at ``trace[0] =
        seeds`` or in the first step's ``indptr`` gather; ``[1.7, 2.2]``
        walked from ``[1, 2]`` and a 2-D batch raised a raw ``ValueError``."""
        ctx = ExecutionContext(V100)
        rng = new_rng(0)
        untouched = rng.bit_generator.state
        with pytest.raises(ShapeError, match=re.escape(message)):
            uniform_walk(small_graph, np.array(seeds), walk_length, ctx=ctx, rng=rng)
        assert ctx.launch_count() == 0
        assert rng.bit_generator.state == untouched


class TestWalkParameterBoundaries:
    """A walk parameter no walk can run with is refused with a
    ``ShapeError`` when the algorithm is made, and by the restart-walk
    counter before it draws or launches."""

    @pytest.mark.parametrize(
        ("name", "params", "message"),
        [
            ("deepwalk", {"walk_length": 2.5}, "must be an integer, got 2.5"),
            ("node2vec", {"walk_length": -1}, "walk length must be >= 0, got -1"),
            ("pinsage", {"restart_prob": 2.0}, "must be in [0, 1], got 2.0"),
            ("pinsage", {"restart_prob": np.nan}, "must be in [0, 1], got nan"),
            ("hetgnn", {"restart_prob": 2.0}, "must be in [0, 1], got 2.0"),
            ("hetgnn", {"restart_prob": np.nan}, "must be in [0, 1], got nan"),
            ("pinsage", {"restart_prob": True}, "must be in [0, 1], got True"),
            ("pinsage", {"num_walks": -1}, "num_walks must be >= 0, got -1"),
            ("hetgnn", {"num_walks": -1}, "num_walks must be >= 0, got -1"),
        ],
    )
    def test_make_algorithm(self, name, params, message):
        """``walk_length=2.5`` constructed and failed later with a raw
        ``TypeError``; ``restart_prob=2.0`` always restarted and NaN never
        did; ``num_walks=-1`` raised NumPy's raw ``ValueError``."""
        with pytest.raises(ShapeError, match=re.escape(message)):
            make_algorithm(name, **params)

    @pytest.mark.parametrize(
        ("params", "message"),
        [
            ({"restart_prob": 2.0}, "restart_prob must be in [0, 1], got 2.0"),
            ({"restart_prob": -0.1}, "restart_prob must be in [0, 1], got -0.1"),
            ({"restart_prob": np.nan}, "restart_prob must be in [0, 1], got nan"),
            ({"restart_prob": True}, "restart_prob must be in [0, 1], got True"),
            ({"num_walks": -1}, "num_walks must be >= 0, got -1"),
            ({"num_walks": 1.5}, "num_walks must be an integer, got 1.5"),
            ({"frontiers": [0.5, 1.5]}, "walk seed ids must be integers"),
        ],
    )
    def test_restart_walk_visit_counts(self, params, message, small_graph):
        from repro.algorithms.walks import restart_walk_visit_counts

        ctx = ExecutionContext(V100)
        rng = new_rng(0)
        untouched = rng.bit_generator.state
        kwargs = {
            "frontiers": [0, 1], "num_walks": 2, "walk_length": 3,
            "restart_prob": 0.5, **params,
        }
        frontiers = np.array(kwargs.pop("frontiers"))
        with pytest.raises(ShapeError, match=re.escape(message)):
            restart_walk_visit_counts(small_graph, frontiers, ctx=ctx, rng=rng, **kwargs)
        assert ctx.launch_count() == 0
        assert rng.bit_generator.state == untouched


class TestWalkStepBoundaries:
    """The exported ``uniform_walk_step`` refuses a frontier that is not a
    node before it draws or launches."""

    @pytest.mark.parametrize(
        ("frontiers", "message"),
        [
            ([-1, 0], "frontier -1 is outside [0, 200)"),
            ([0, 200], "frontier 200 is outside [0, 200)"),
            ([1.5], "frontier ids must be integers, got dtype float64"),
        ],
    )
    def test_refused_before_any_draw_or_launch(self, frontiers, message, small_graph):
        """Frontier ``-1`` returned ``-1`` and charged its launch 1 flop;
        ``1.5`` walked from 1."""
        from repro.core import uniform_walk_step

        ctx = ExecutionContext(V100)
        rng = new_rng(0)
        untouched = rng.bit_generator.state
        with pytest.raises(ShapeError, match=re.escape(message)):
            uniform_walk_step(
                small_graph.get("csc"), np.array(frontiers), rng=rng, ctx=ctx
            )
        assert ctx.launch_count() == 0
        assert rng.bit_generator.state == untouched


class TestSuperbatchExtractBoundaries:
    """The super-batched slice and extract-reduce refuse bad frontiers, a
    batch pointer that steps back and an unsupported reduction with a
    ``ShapeError`` before they gather or launch."""

    @staticmethod
    def _no_gather(monkeypatch):
        from repro.ir import superbatch_ops
        from repro.sparse import formats

        def no_gather(*args):
            raise AssertionError("gathered before refusing")

        for module in (formats, superbatch_ops):
            monkeypatch.setattr(module, "gather_ranges", no_gather, raising=False)

    @pytest.mark.parametrize("kernel", ["sb_slice_cols", "sb_fused_extract_reduce"])
    @pytest.mark.parametrize(
        ("frontiers", "batch_ptr", "message"),
        [
            ([-1, 0, 1], [0, 1, 3], "frontier -1 is outside [0, 200)"),
            ([0, 200, 1], [0, 1, 3], "frontier 200 is outside [0, 200)"),
            ([0.5, 1.0, 2.0], [0, 1, 3], "frontier ids must be integers"),
            ([0, 1, 2], [0, 2, 1, 3], "batch_ptr must rise from 0 to the 3 frontiers"),
            ([0, 1, 2], [1, 3], "batch_ptr must rise from 0 to the 3 frontiers"),
            ([0, 1, 2], [0, 2], "batch_ptr must rise from 0 to the 3 frontiers"),
        ],
    )
    def test_refused_before_any_gather_or_launch(
        self, kernel, frontiers, batch_ptr, message, small_graph, monkeypatch
    ):
        """Frontiers ``-1`` / ``200`` raised a raw ``IndexError``, fractional
        ones a raw ``ValueError``, and ``[0, 2, 1, 3]`` put columns in the
        wrong batch."""
        from repro.ir import superbatch_ops

        self._no_gather(monkeypatch)
        ctx = ExecutionContext(V100)
        args = (small_graph, np.array(frontiers), np.array(batch_ptr))
        with pytest.raises(ShapeError, match=re.escape(message)):
            if kernel == "sb_slice_cols":
                superbatch_ops.sb_slice_cols(*args, ctx)
            else:
                superbatch_ops.sb_fused_extract_reduce(*args, "sum", 0, ctx)
        assert ctx.launch_count() == 0

    @pytest.mark.parametrize(
        ("op", "axis", "message"),
        [
            ("max", 0, "fused extract-reduce supports sum, got 'max'"),
            ("sum", 1, "super-batched extract-reduce handles axis=0 only"),
        ],
    )
    def test_reduction_checked_before_the_gather(
        self, op, axis, message, small_graph, monkeypatch
    ):
        from repro.ir import superbatch_ops

        self._no_gather(monkeypatch)
        ctx = ExecutionContext(V100)
        with pytest.raises(ShapeError, match=re.escape(message)):
            superbatch_ops.sb_fused_extract_reduce(
                small_graph, np.array([0, 1]), np.array([0, 2]), op, axis, ctx
            )
        assert ctx.launch_count() == 0


class TestFusedExtractSelectBoundaries:
    """The fused extract-select refuses what ``individual_sample`` refuses,
    with a ``ShapeError`` before its race keys are drawn or it launches."""

    @pytest.mark.parametrize(
        ("frontiers", "k", "probs_len", "message"),
        [
            ([0, 1], 0, 0, "fanout k must be >= 1, got 0"),
            ([0, 1], -3, 0, "fanout k must be >= 1, got -3"),
            ([-1, 0], 2, 0, "frontier -1 is outside [0, 200)"),
            ([0, 200], 2, 0, "frontier 200 is outside [0, 200)"),
            ([0.7, 1.2], 2, 0, "frontier ids must be integers, got dtype float64"),
            ([0, 1], 2, -1, "per-edge probs shape"),
            ([0, 1], 2, 1, "per-edge probs shape"),
        ],
    )
    def test_refused_before_any_draw_or_launch(
        self, frontiers, k, probs_len, message, small_graph
    ):
        """``k=0`` drew every key, recorded a launch and returned an empty
        matrix; ``k=-3`` was refused only after the draw; frontier ``-1``
        and ``200`` raised raw NumPy errors; ``[0.7, 1.2]`` was truncated
        to ``[0, 1]``; probs one short raised a raw ``IndexError`` and one
        long was accepted."""
        from repro.core.sampling import fused_extract_individual_sample

        csc = small_graph.get("csc")
        probs = new_rng(1).random(csc.nnz + probs_len).astype(np.float32)
        ctx = ExecutionContext(V100)
        rng = new_rng(0)
        untouched = rng.bit_generator.state
        with pytest.raises(ShapeError, match=re.escape(message)):
            fused_extract_individual_sample(
                csc, np.array(frontiers), k, probs, rng=rng, ctx=ctx
            )
        assert ctx.launch_count() == 0
        assert rng.bit_generator.state == untouched



class TestRaceSelectBoundaries:
    """``segmented_race_select`` refuses a decreasing pointer of any
    integer dtype with a ``ShapeError``."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, np.uint32])
    def test_decreasing_pointer(self, dtype):
        """An unsigned pointer's ``np.diff`` wraps, so ``[0, 5, 3]`` as
        ``uint64`` passed the old check and died in the block kernel with
        NumPy's ``strides is incompatible`` ``ValueError``."""
        from repro.core.random import segmented_race_select

        with pytest.raises(ShapeError, match="indptr must be non-decreasing"):
            segmented_race_select(np.ones(3), np.array([0, 5, 3], dtype=dtype), 2)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.uint32])
    def test_a_valid_pointer_selects_as_its_int64_twin(self, dtype):
        """A well-formed unsigned pointer used to fail on casting the
        picks' float64 sum back to int64."""
        from repro.core.random import segmented_race_select

        keys = new_rng(3).random(12)
        indptr = np.array([0, 4, 4, 9, 12])
        np.testing.assert_array_equal(
            segmented_race_select(keys, indptr.astype(dtype), 2),
            segmented_race_select(keys, indptr, 2),
        )

def _fused(csc, k, probs=None, **kwargs):
    from repro.core.sampling import fused_extract_individual_sample

    return fused_extract_individual_sample(csc, np.arange(8), k, probs, **kwargs)


def _individual(csc, k, probs=None, **kwargs):
    from repro.core.sampling import individual_sample

    return individual_sample(csc, k, probs, **kwargs)


def _labor(csc, k, probs=None, replace=False, **kwargs):
    from repro.core.sampling import labor_sample

    return labor_sample(csc, k, **kwargs)


class TestFanoutAndProbsBoundaries:
    """The node-wise samplers share one fan-out check — an integer, not a
    bool, at least 1 — and refuse non-real ``probs``, with a
    ``ShapeError`` before the first draw or launch."""

    @pytest.mark.parametrize(
        ("sample", "replace"),
        [(_fused, False), (_fused, True), (_individual, False),
         (_individual, True), (_labor, False)],
    )
    @pytest.mark.parametrize(
        ("k", "message"),
        [
            (2.5, "fanout k must be an integer, got 2.5"),
            (np.float64(2.0), "fanout k must be an integer, got np.float64(2.0)"),
            (0.5, "fanout k must be an integer, got 0.5"),
            (True, "fanout k must be an integer, got True"),
            ("3", "fanout k must be an integer, got '3'"),
        ],
    )
    def test_fanout_refused_before_any_draw_or_launch(
        self, sample, replace, k, message, small_graph
    ):
        """A float or bool ``k`` was refused only after the draw without
        replacement, sampled ``int(k)`` with it and in ``labor_sample``;
        ``'3'`` raised a raw ``TypeError``."""
        ctx = ExecutionContext(V100)
        rng = new_rng(0)
        untouched = rng.bit_generator.state
        with pytest.raises(ShapeError, match=re.escape(message)):
            sample(small_graph.get("csc"), k, replace=replace, rng=rng, ctx=ctx)
        assert ctx.launch_count() == 0
        assert rng.bit_generator.state == untouched

    @pytest.mark.parametrize("sample", [_fused, _individual, _labor])
    @pytest.mark.parametrize("k", [3, np.int32(3), np.uint8(3)])
    def test_numpy_integer_fanout_is_accepted(self, sample, k, small_graph):
        csc = small_graph.get("csc")
        expected = sample(csc, 3, rng=new_rng(0))
        got = sample(csc, k, rng=new_rng(0))
        np.testing.assert_array_equal(got.indptr, expected.indptr)
        np.testing.assert_array_equal(got.rows, expected.rows)

    @pytest.mark.parametrize("sample", [_fused, _individual])
    @pytest.mark.parametrize("replace", [False, True])
    @pytest.mark.parametrize("dtype", ["complex128", "U32"])
    def test_non_real_probs_refused_before_any_draw_or_launch(
        self, sample, replace, dtype, small_graph
    ):
        """Complex or string ``probs`` raised a raw NumPy error after the
        fused draw; ``individual_sample`` dropped the imaginary part with
        a ``ComplexWarning`` and parsed the strings."""
        csc = small_graph.get("csc")
        probs = new_rng(1).random(csc.nnz).astype(dtype)
        ctx = ExecutionContext(V100)
        rng = new_rng(0)
        untouched = rng.bit_generator.state
        with pytest.raises(ShapeError, match="probs must be real numbers"):
            sample(csc, 3, probs, replace=replace, rng=rng, ctx=ctx)
        assert ctx.launch_count() == 0
        assert rng.bit_generator.state == untouched


def _collective(graph, k, **kwargs):
    from repro.core.sampling import collective_sample

    return collective_sample(graph.get("csc"), k, **kwargs)


def _sb_collective(graph, k, **kwargs):
    from repro.ir.superbatch_ops import sb_collective_sample

    # Two batches of 100 rows in the 200-node graph's row space.
    return sb_collective_sample(graph, k, np.array([0, 100, 200]), **kwargs)


class TestLayerWidthBoundaries:
    """The layer-wise samplers refuse a width the node-wise ones refuse,
    with the same ``ShapeError`` before the first draw or launch."""

    @pytest.mark.parametrize(
        ("sample", "k", "message"),
        [
            (_collective, 2.5, "fanout k must be an integer, got 2.5"),
            (
                _collective,
                np.float64(2.0),
                "fanout k must be an integer, got np.float64(2.0)",
            ),
            (_collective, True, "fanout k must be an integer, got True"),
            (_sb_collective, 2.5, "fanout k must be an integer, got 2.5"),
            (
                _sb_collective,
                np.float64(2.0),
                "fanout k must be an integer, got np.float64(2.0)",
            ),
            (_sb_collective, True, "fanout k must be an integer, got True"),
            (_sb_collective, 0, "fanout k must be >= 1, got 0"),
            (_sb_collective, -1, "fanout k must be >= 1, got -1"),
        ],
    )
    def test_width_refused_before_any_draw_or_launch(
        self, sample, k, message, small_graph
    ):
        """``collective_sample`` drew its keys for a float width and then
        raised a raw ``TypeError``, and sampled one row for ``True``;
        ``sb_collective_sample`` drew its keys before refusing a float,
        bool or negative width, and returned an empty layer for 0."""
        ctx = ExecutionContext(V100)
        rng = new_rng(0)
        untouched = rng.bit_generator.state
        with pytest.raises(ShapeError, match=re.escape(message)):
            sample(small_graph, k, rng=rng, ctx=ctx)
        assert ctx.launch_count() == 0
        assert rng.bit_generator.state == untouched


class TestServeFlagBoundaries:
    """A ``serve`` flag value the library cannot honour exits 2 where it
    enters — no NumPy traceback, no NaN-derived record in the lane."""

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--scale", "0"], "scale must be in (0, inf)"),
            (["--scale", "-1"], "scale must be in (0, inf)"),
            (["--arrival-rate", "nan"], "arrival rate must be in (0, inf)"),
            (["--arrival-rate", "inf"], "arrival rate must be in (0, inf)"),
            (["--max-wait-ms", "nan"], "max wait must be in [0, inf)"),
            (["--slo-ms", "nan"], "SLO must be in (0, inf)"),
            (["--cache-ratio", "-0.5"], "cache ratio must be in [0, 1]"),
            (["--hbm-budget-mb", "-1"], "--hbm-budget-mb must be in [0, inf)"),
            (["--hbm-budget-mb", "nan"], "--hbm-budget-mb must be in [0, inf)"),
            (["--hbm-budget-mb", "inf"], "--hbm-budget-mb must be in [0, inf)"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_exits_2_and_writes_nothing(self, flags, message, tmp_path, capsys):
        argv = ["serve", "--requests", "48", "--scale", "0.1", *flags]
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not list(tmp_path.iterdir())


class TestPipelineFlagBoundaries:
    """``serve``'s twin for ``pipeline``: a knob the trainers cannot honour
    exits 2 before either trainer runs — not after the serial epoch, and
    never as a lane recording the bad value."""

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--cache-ratio", "-0.5"], "cache ratio must be in [0, 1]"),
            (["--cache-ratio", "nan"], "cache ratio must be in [0, 1]"),
            (["--cache-ratio", "1.5"], "cache ratio must be in [0, 1]"),
            (["--hbm-budget-mb", "nan"], "--hbm-budget-mb must be in [0, inf)"),
            (["--hbm-budget-mb", "inf"], "--hbm-budget-mb must be in [0, inf)"),
            (["--hbm-budget-mb", "-1"], "--hbm-budget-mb must be in [0, inf)"),
            (["--prefetch-depth", "0"], "prefetch depth must be >= 1"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_exits_2_before_training_and_writes_nothing(
        self, flags, message, tmp_path, capsys, monkeypatch
    ):
        from repro.learning import Trainer

        def no_training(*args, **kwargs):
            raise AssertionError("trained before refusing")

        monkeypatch.setattr(Trainer, "_run", no_training)
        argv = ["pipeline", "graphsage", "--scale", "0.1", *flags]
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not list(tmp_path.iterdir())


class TestPipelineCellBoundaries:
    """``run_pipeline_cell`` and ``Trainer`` refuse a non-integer or empty
    epoch shape, a negative seed or a non-positive learning rate with a
    ``ShapeError`` before they build a sampler, draw or train."""

    @pytest.mark.parametrize(
        ("knob", "message"),
        [
            ({"max_batches": 2.5}, "max batches must be an integer, got 2.5"),
            ({"batch_size": 2.5}, "batch size must be an integer, got 2.5"),
            ({"epochs": 1.5}, "epochs must be an integer, got 1.5"),
            ({"epochs": None}, "epochs must be an integer, got None"),
            (
                {"prefetch_depth": 1.5},
                "prefetch depth must be an integer, got 1.5",
            ),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"prefetch_depth": 0}, "prefetch depth must be >= 1, got 0"),
        ],
        ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items())
        if isinstance(v, dict) else None,
    )
    def test_refused_before_any_build(self, knob, message, monkeypatch):
        """``max_batches=2.5``, ``batch_size=2.5`` and ``epochs=1.5`` (or
        ``None``) raised a raw ``TypeError`` and ``seed=-1`` NumPy's raw
        ``ValueError``, most after the sampler was built;
        ``prefetch_depth=1.5`` was accepted and ``0`` refused only after
        the build."""
        from repro.algorithms.base import Algorithm
        from repro.datasets import load_dataset
        from repro.pipeline import run_pipeline_cell

        def no_build(*args, **kwargs):
            raise AssertionError("built a sampler before refusing")

        dataset = load_dataset("pd", scale=0.1)
        monkeypatch.setattr(Algorithm, "build", no_build)
        with pytest.raises(ShapeError, match=re.escape(message)):
            run_pipeline_cell("graphsage", dataset, device=V100, **knob)

    @pytest.mark.parametrize(
        ("knob", "message"),
        [
            ({"max_batches_per_epoch": -1}, "max batches must be >= 1, got -1"),
            ({"max_batches_per_epoch": 0}, "max batches must be >= 1, got 0"),
            ({"epochs": 0}, "epochs must be >= 1, got 0"),
            ({"epochs": 1.5}, "epochs must be an integer, got 1.5"),
            ({"batch_size": 2.5}, "batch size must be an integer, got 2.5"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"prefetch_depth": 0}, "prefetch depth must be >= 1, got 0"),
            ({"lr": np.nan}, "learning rate must be in (0, inf)"),
            ({"lr": np.inf}, "learning rate must be in (0, inf)"),
            ({"lr": 0.0}, "learning rate must be in (0, inf)"),
        ],
        ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items())
        if isinstance(v, dict) else None,
    )
    def test_trainer_refuses_before_training(self, knob, message, monkeypatch):
        """``Trainer`` refused none of these: ``max_batches_per_epoch=-1``
        dropped each epoch's last batch, ``0`` and ``epochs=0`` returned a
        NaN loss, ``epochs=1.5`` / ``batch_size=2.5`` raised a raw
        ``TypeError``, ``seed=-1`` NumPy's ``ValueError``, a NaN or
        infinite ``lr`` trained to a NaN loss and ``lr=0`` trained
        nothing."""
        from repro.datasets import load_dataset
        from repro.learning import GraphSAGEModel, Trainer

        def no_training(*args, **kwargs):
            raise AssertionError("trained before refusing")

        dataset = load_dataset("pd", scale=0.1)
        pipeline = make_algorithm("graphsage", fanouts=(3,)).build(
            dataset.graph, dataset.train_ids[:8]
        )
        model = GraphSAGEModel(
            dataset.features.shape[1], 8, dataset.num_classes,
            num_layers=1, rng=new_rng(0),
        )
        run = {"epochs": 1}
        run.update(
            (k, v) for k, v in knob.items()
            if k in ("epochs", "max_batches_per_epoch")
        )
        init = {k: v for k, v in knob.items() if k not in run}
        monkeypatch.setattr(Trainer, "_run", no_training)
        with pytest.raises(ShapeError, match=re.escape(message)):
            Trainer(pipeline, model, dataset, device=V100, **init).train(**run)


class TestFeatureStoreBoundaries:
    """A store knob the configuration cannot honour is refused with a
    ``ShapeError`` before any store exists, not dropped."""

    @pytest.mark.parametrize(
        "build",
        ["FeatureSource", "ClusterSimulator", "run_pipeline_cell"],
    )
    def test_host_tier_ratio_without_tiers(self, build, monkeypatch):
        """Each of these dropped ``host_tier_ratio=0.3`` silently and ran
        the flat cache; only the CLI refused the flag."""
        from repro.cache import FeatureSource, store
        from repro.datasets import load_dataset
        from repro.pipeline import run_pipeline_cell
        from repro.serve import ClusterSimulator

        def no_store(*args, **kwargs):
            raise AssertionError("built a store before refusing")

        dataset = load_dataset("pd", scale=0.1)
        builds = {
            "FeatureSource": lambda: FeatureSource(
                dataset, host_tier_ratio=0.3
            ),
            "ClusterSimulator": lambda: ClusterSimulator(
                dataset, device=V100, host_tier_ratio=0.3
            ),
            "run_pipeline_cell": lambda: run_pipeline_cell(
                "graphsage", dataset, device=V100, host_tier_ratio=0.3
            ),
        }
        monkeypatch.setattr(store, "TieredFeatureStore", no_store)
        with pytest.raises(
            ShapeError,
            match="host tier ratio 0.3 changes nothing without feature_tiers",
        ):
            builds[build]()

    @staticmethod
    def _striped(pool, **kwargs):
        from repro.cache import TieredFeatureStore
        from repro.device import NVLINK

        return TieredFeatureStore(
            np.zeros((64, 4), dtype=np.float32), np.arange(64.0), pool=pool,
            link=NVLINK, device=V100, num_replicas=2, p2p=True, **kwargs,
        )

    def test_owned_mask_on_a_striped_store(self):
        from repro.device import MemoryPool

        pool = MemoryPool()
        with pytest.raises(ShapeError, match="cannot apply to the p2p stripe"):
            self._striped(pool, owned_mask=np.ones(64, dtype=bool))
        assert pool.live_allocations == 0

    def test_rerank_on_a_striped_store(self):
        from repro.device import MemoryPool

        store = self._striped(MemoryPool())
        pinned = store.cached_ids.copy()
        with pytest.raises(ShapeError, match="cannot apply to the p2p stripe"):
            store.rerank(np.arange(64.0)[::-1].copy())
        np.testing.assert_array_equal(store.cached_ids, pinned)


class TestPartitionBoundaries:
    """The partitioners refuse a non-integer shard count or a seed the hash
    cannot mix, and shard lookups refuse ids that are not graph nodes, with
    a ``ShapeError`` before any work."""

    @staticmethod
    def _graph():
        from repro.core import from_edges

        return from_edges(np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0]), 4)

    @pytest.mark.parametrize(
        ("build", "message"),
        [
            pytest.param(
                lambda p, g: p.greedy_partition(g, 2.5), "got 2.5", id="greedy-2.5"
            ),
            pytest.param(
                lambda p, g: p.greedy_partition(g, True), "got True", id="greedy-True"
            ),
            pytest.param(
                lambda p, g: p.hash_partition(g, 2.5), "got 2.5", id="hash-2.5"
            ),
            pytest.param(
                lambda p, g: p.make_partition("greedy", g, 2.5), "got 2.5", id="make-2.5"
            ),
            pytest.param(
                lambda p, g: p.hash_partition(g, 2, seed=-5), "got -5", id="hash-seed-5"
            ),
            pytest.param(
                lambda p, g: p.hash_partition(g, 2, seed=1.5), "got 1.5", id="hash-seed1.5"
            ),
            pytest.param(
                lambda p, g: p.hash_assignment(4, 2, seed=-5), "got -5", id="assign-seed-5"
            ),
        ],
    )
    def test_builders_refuse_before_reading_the_graph(self, build, message, monkeypatch):
        """2.5 and ``True`` shards raised a raw ``TypeError`` in the greedy
        loop (the hash truncated 2.5 silently); seed -5 a raw
        ``OverflowError``."""
        from repro.partition import partitioners

        def no_read(graph):
            raise AssertionError("read the graph before refusing")

        graph = self._graph()
        monkeypatch.setattr(partitioners, "_graph_csc", no_read)
        with pytest.raises(ShapeError, match=re.escape(message)):
            build(partitioners, graph)

    @pytest.mark.parametrize(
        ("lookup", "nodes", "message"),
        [
            ("contains", [-1], "node -1 is outside [0, 4)"),
            ("contains", [4], "node 4 is outside [0, 4)"),
            ("contains", [0.5], "node ids must be integers, got dtype float64"),
            ("remote_count", [-1, 0], "node -1 is outside [0, 4)"),
            ("remote_count", [1.0], "node ids must be integers, got dtype float64"),
            ("shard_of", [-1], "node -1 is outside [0, 4)"),
            ("shard_of", [1.5, 2.0], "node ids must be integers, got dtype float64"),
        ],
    )
    def test_lookups_refuse_non_nodes(self, lookup, nodes, message):
        """``contains([-1])`` read the last node, ``remote_count([-1, 0])``
        returned 0, ``shard_of([-1])`` wrapped and float ids raised a raw
        ``IndexError``."""
        from repro.partition import hash_partition

        partition = hash_partition(self._graph(), 2)
        owner = partition if lookup == "shard_of" else partition.view(0)
        with pytest.raises(ShapeError, match=re.escape(message)):
            getattr(owner, lookup)(np.array(nodes))


class TestEpochFlagBoundaries:
    """An epoch shape with no batches in it exits 2 — not a ``range()`` /
    ``IndexError`` traceback, a silently dropped batch, or a NaN loss
    written into a lane."""

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--batch-size", "0"], "batch size must be >= 1"),
            (["--batch-size", "-3"], "batch size must be >= 1"),
            (["--max-batches", "0"], "max batches must be >= 1, got 0"),
            (["--max-batches", "-1"], "max batches must be >= 1, got -1"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["sample"], ["compare"], ["profile", "graphsage"],
            ["pipeline", "graphsage"],
        ],
        ids=" ".join,
    )
    def test_exits_2_and_writes_nothing(
        self, command, flags, message, tmp_path, capsys
    ):
        argv = [*command, "--scale", "0.1", *flags]
        if command[0] in ("profile", "pipeline"):
            argv += ["--out-dir", str(tmp_path)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_zero_epochs_is_refused_not_recorded_as_nan(self, tmp_path, capsys):
        argv = ["pipeline", "graphsage", "--scale", "0.1"]
        assert cli.main([*argv, "--epochs", "0", "--out-dir", str(tmp_path)]) == 2
        assert "epochs must be >= 1, got 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_max_batches_is_refused_before_any_dataset(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("loaded a dataset for an empty epoch")

        monkeypatch.setattr(harness, "load_dataset", refuse)
        with pytest.raises(GSamplerError, match="max batches"):
            measure_cell("gsampler", "graphsage", "pd", max_batches=0)


#: A non-default value for every flag that needs an enabler (``None``: a
#: bare switch).
_MOVED = {
    "orphans": "shed", "hedge": None, "no_failover": None,
    "min_replicas": "2", "max_replicas": "3", "scale_interval_ms": "2",
    "ingest_edges": "64", "delete_fraction": "0.5", "snapshot_every_ms": "1",
    "compact_every": "4", "repartition_threshold": "0.1",
    "host_tier_ratio": "0.5",
}

#: ``(command, enabler, dependent)`` for every dependent each command takes.
_IDLE_DEPENDENTS = [
    pytest.param(command, enabler, dest, id=f"{command[0]} {dest}")
    for enabler, dependents in cli._DEPENDENT_DESTS.items()
    for dest in dependents
    for command in (["serve"], ["pipeline", "graphsage"])
    if command[0] == "serve" or enabler == "feature_tiers"
]


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


class TestUnknownIsNotNA:
    """``None`` / exit 1 mean a genuine N/A cell; a misspelt name is an
    error (exit 2) raised before any dataset is loaded."""

    @pytest.fixture
    def no_datasets(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("loaded a dataset for an unknown name")

        monkeypatch.setattr(harness, "load_dataset", refuse)
        monkeypatch.setattr(cli, "load_dataset", refuse)

    def test_measure_cell_raises_on_unknown_algorithm(self, no_datasets):
        with pytest.raises(GSamplerError, match="unknown algorithm 'graphsgae'"):
            measure_cell("gsampler", "graphsgae", "pd")

    def test_measure_cell_raises_on_unknown_system(self, no_datasets):
        with pytest.raises(GSamplerError, match="unknown system"):
            measure_cell("nextdoor", "graphsage", "pd")

    def test_measure_cell_none_is_a_real_na_cell(self):
        assert measure_cell("gunrock", "ladies", "pd", scale=0.1) is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--algorithm", "graphsgae"],
            ["compare", "--algorithm", "graphsgae"],
            ["profile", "graphsgae"],
        ],
    )
    def test_cli_exits_2_on_unknown_algorithm(self, argv, no_datasets, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "error: unknown algorithm 'graphsgae'; available: [" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["graphsgae", "pass"])
    def test_pipeline_refuses_an_untrainable_name_at_the_parser(
        self, name, no_datasets, tmp_path, capsys
    ):
        """``profile graphsgae --pipeline`` once loaded the dataset and only
        then found no trainable config; ``pipeline``'s choices are
        :data:`repro.pipeline.PIPELINE_MODELS`, so argparse refuses first."""
        with pytest.raises(SystemExit) as exit_:
            cli.main(["pipeline", name, "--out-dir", str(tmp_path)])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert f"invalid choice: '{name}'" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.iterdir())


    @pytest.mark.parametrize(("command", "enabler", "dest"), _IDLE_DEPENDENTS)
    def test_a_flag_without_its_enabler_exits_2(
        self, command, enabler, dest, no_datasets, tmp_path, capsys
    ):
        """Each of these once wrote a lane whose metrics equal the default
        run's while its ``meta`` recorded the flag."""
        value = _MOVED[dest]
        argv = [*command, _flag(dest), *([] if value is None else [value])]
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert (
            f"error: {_flag(dest)} changes nothing without {_flag(enabler)}"
            in captured.err
        )
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_every_dependent_has_a_moved_value(self):
        dependents = {d for ds in cli._DEPENDENT_DESTS.values() for d in ds}
        assert dependents == _MOVED.keys()



def _no_load(*args, **kwargs):
    raise AssertionError("loaded a dataset before refusing")


def _sample_call(name):
    from repro.core import sampling

    def call(k, graph, rng, ctx):
        csc = graph.get("csc")
        if name == "fused_extract_individual_sample":
            return sampling.fused_extract_individual_sample(
                csc, np.arange(8), k, rng=rng, ctx=ctx
            )
        return getattr(sampling, name)(csc, k, rng=rng, ctx=ctx)

    return call


def _partition(build):
    from repro.partition import partitioners

    return lambda value, graph, rng, ctx: build(partitioners, graph, value)


def _restart_walks(value, graph, rng, ctx):
    from repro.algorithms.walks import restart_walk_visit_counts

    return restart_walk_visit_counts(
        graph, np.array([0, 1]), num_walks=value, walk_length=3,
        restart_prob=0.5, rng=rng, ctx=ctx,
    )


def _knob(factory, knob, **fixed):
    """``call(value, graph, rng, ctx)`` that calls ``factory`` with
    ``knob=value`` over ``fixed``."""
    return lambda value, graph, rng, ctx: factory(**fixed, **{knob: value})


def _failure_event(name):
    fixed = {"time": 0.0, "replica": 0}
    fixed.pop(name, None)
    return _knob(FailureEvent, name, **fixed)


def _rebalance(name):
    def call(value, graph, rng, ctx):
        from repro.partition.incremental import incremental_rebalance

        assignment = np.zeros(graph.shape[0], dtype=np.int64)
        kwargs = {"num_shards": 2, name: value}
        return incremental_rebalance(graph, assignment, **kwargs)

    return call


#: ``(name, low, error, call(value, graph, rng, ctx))``: every count a
#: public boundary takes, passed ``value``.
_COUNT_BOUNDARIES = [
    *[(f"check_run_shape {knob}", 0 if knob == "seed" else 1, ShapeError,
       _knob(check_run_shape, knob))
      for knob in ("epochs", "batch_size", "max_batches", "prefetch_depth", "seed")],
    *[(f"ServePolicy {knob}", 1, ServeError, _knob(ServePolicy, knob))
      for knob in ("max_batch", "queue_capacity", "min_samples")],
    *[(f"{name} k", 1, ShapeError, _sample_call(name))
      for name in ("individual_sample", "labor_sample", "collective_sample",
                   "fused_extract_individual_sample")],
    ("sb_collective_sample k", 1, ShapeError,
     lambda k, graph, rng, ctx: _sb_collective(graph, k, rng=rng, ctx=ctx)),
    ("walk walk_length", 0, ShapeError,
     lambda v, graph, rng, ctx: uniform_walk(graph, np.array([0, 1]), v, rng=rng, ctx=ctx)),
    ("check_walk_parameters walk_length", 0, ShapeError,
     lambda v, graph, rng, ctx: make_algorithm("deepwalk", walk_length=v)),
    ("restart_walk_visit_counts num_walks", 0, ShapeError, _restart_walks),
    ("greedy_partition shards", 1, ShapeError,
     _partition(lambda p, g, v: p.greedy_partition(g, v))),
    ("hash_partition shards", 1, ShapeError,
     _partition(lambda p, g, v: p.hash_partition(g, v))),
    ("hash_partition seed", 0, ShapeError,
     _partition(lambda p, g, v: p.hash_partition(g, 2, seed=v))),
    ("load_dataset seed", 0, ShapeError,
     _knob(load_dataset, "seed", name="pd", scale=0.01)),
    ("minibatches batch_size", 1, ShapeError,
     lambda v, graph, rng, ctx: minibatches(np.arange(16), v, rng=rng)),
    ("measure_cell max_batches", 1, ShapeError,
     lambda v, graph, rng, ctx: measure_cell("gsampler", "graphsage", "pd", max_batches=v)),
    *[(f"WorkloadSpec {knob}", 1, ServeError, _knob(WorkloadSpec, knob))
      for knob in ("num_requests", "seeds_per_request")],
    ("WorkloadSpec seed", 0, ServeError, _knob(WorkloadSpec, "seed")),
    ("WorkloadSpec max_seeds_per_request", 8, ServeError,
     _knob(WorkloadSpec, "max_seeds_per_request")),
    *[(f"AutoscalePolicy {knob}", 1, ServeError, _knob(AutoscalePolicy, knob))
      for knob in ("min_replicas", "max_replicas", "min_samples")],
    ("FailureEvent replica", 0, ServeError, _failure_event("replica")),
    ("DynamicPolicy compact_every", 0, ServeError,
     _knob(DynamicPolicy, "compact_every")),
    ("UpdateSpec num_edges", 1, ServeError, _knob(UpdateSpec, "num_edges")),
    ("UpdateSpec seed", 0, ServeError, _knob(UpdateSpec, "seed")),
    *[(f"incremental_rebalance {knob}", 1, ShapeError, _rebalance(knob))
      for knob in ("num_shards", "max_moves")],
    ("MemoryPool capacity", 0, DeviceError, _knob(MemoryPool, "capacity")),
    *[(f"ppr {knob}", low, ShapeError,
       lambda v, graph, rng, ctx, knob=knob: _ppr(knob, v, graph, rng, ctx))
      for knob, low in (("max_iterations", 1), ("max_pushes", 1), ("source", 0),
                        ("k", 0))],
]


def _count_cases():
    for name, low, error, call in _COUNT_BOUNDARIES:
        for value in (2.5, np.float64(2.0), True, low - 1):
            if value == low - 1:
                message = f"must be >= {low}, got {value!r}"
            else:
                message = f"must be an integer, got {value!r}"
            yield pytest.param(call, value, error, message, id=f"{name}={value!r}")


def _slice(kernel, layout):
    from repro.sparse import kernels

    return lambda ids, graph, rng, ctx: getattr(kernels, kernel)(
        graph.get(layout), ids, ctx
    )


def _keep(compact):
    return lambda ids, graph, rng, ctx: compact(graph.get("csc"), ctx, ids)


def _lookup(name):
    def call(ids, graph, rng, ctx):
        from repro.partition import hash_partition

        partition = hash_partition(graph, 2)
        owner = partition if name == "shard_of" else partition.view(0)
        return getattr(owner, name)(ids)

    return call


def _delta(name):
    def call(ids, graph, rng, ctx):
        from repro.dynamic.delta import DeltaGraph

        return getattr(DeltaGraph(graph), name)(ids, np.zeros(len(ids), np.int64))

    return call


def _frontier_call(name):
    def call(ids, graph, rng, ctx):
        from repro.core import sampling
        from repro.ir import superbatch_ops
        from repro.sparse.formats import frontier_ranges

        csc = graph.get("csc")
        if name == "fused_extract_individual_sample":
            return sampling.fused_extract_individual_sample(csc, ids, 2, rng=rng, ctx=ctx)
        if name == "uniform_walk_step":
            return sampling.uniform_walk_step(csc, ids, rng=rng, ctx=ctx)
        if name == "sb_slice_cols":
            batch_ptr = np.array([0, len(ids)])
            return superbatch_ops.sb_slice_cols(graph, ids, batch_ptr, ctx)
        return frontier_ranges(csc, ids)

    return call


#: ``(name, low, call(ids, graph, rng, ctx))``: every id array a public
#: boundary takes, over the 200 nodes of ``small_graph``.
_ID_BOUNDARIES = [
    *[(f"{name} frontiers", 0, _frontier_call(name))
      for name in ("fused_extract_individual_sample", "uniform_walk_step",
                   "sb_slice_cols", "frontier_ranges")],
    ("slice_columns csc", 0, _slice("slice_columns", "csc")),
    ("slice_columns coo", 0, _slice("slice_columns", "coo")),
    ("slice_rows csr", 0, _slice("slice_rows", "csr")),
    ("slice_rows csc", 0, _slice("slice_rows", "csc")),
    ("Matrix[:, ids]", 0, lambda ids, graph, rng, ctx: graph[:, ids]),
    ("Matrix[ids, :]", 0, lambda ids, graph, rng, ctx: graph[ids, :]),
    ("compact_rows keep", 0, _keep(compact_rows)),
    ("compact_cols keep", 0, _keep(compact_cols)),
    ("walk seeds", -1, lambda ids, graph, rng, ctx: uniform_walk(graph, ids, 3, rng=rng, ctx=ctx)),
    ("ShardView.contains", 0, _lookup("contains")),
    ("GraphPartition.shard_of", 0, _lookup("shard_of")),
    ("DeltaGraph.insert_edges", 0, _delta("insert_edges")),
    ("DeltaGraph.delete_edges", 0, _delta("delete_edges")),
]


def _id_cases():
    for name, low, call in _ID_BOUNDARIES:
        for ids, message in (
            ([0.7], "ids must be integers, got dtype float64"),
            ([True, False], "ids must be integers, got dtype bool"),
            ([low - 1], f"{low - 1} is outside [{low}, 200)"),
            ([200], f"200 is outside [{low}, 200)"),
        ):
            yield pytest.param(call, np.array(ids), message, id=f"{name}={ids}")


def _ppr(name, value, graph, rng, ctx):
    from repro.core import ppr

    if name in ("damping", "max_iterations", "tolerance"):
        return ppr.global_pagerank(graph, **{name: value}, ctx=ctx)
    if name == "source":
        return ppr.push_ppr(graph, value, ctx=ctx)
    if name == "k":
        return ppr.topk_ppr_neighbors(graph, 0, value, ctx=ctx)
    return ppr.push_ppr(graph, 0, **{name: value}, ctx=ctx)


#: ``(name, knob, interval, error, call(value, graph, rng, ctx))``: every
#: real-valued knob a public boundary takes, passed ``value``.
_REAL_BOUNDARIES = [
    *[(f"WorkloadSpec {knob}", name, interval, ServeError, _knob(WorkloadSpec, knob))
      for knob, name, interval in (
          ("arrival_rate", "arrival rate", "(0, inf)"),
          ("skew", "skew", "[0, inf)"),
          ("burst_factor", "burst factor", "[1, inf)"),
          ("burst_period", "burst period", "(0, inf)"),
      )],
    *[(f"ServePolicy {knob}", name, interval, ServeError, _knob(ServePolicy, knob))
      for knob, name, interval in (
          ("max_wait", "max wait", "[0, inf)"),
          ("slo", "SLO", "(0, inf)"),
      )],
    *[(f"AutoscalePolicy {knob}", name, interval, ServeError,
       _knob(AutoscalePolicy, knob))
      for knob, name, interval in (
          ("interval", "autoscale interval", "(0, inf)"),
          ("high_p99", "high p99", "(0, inf)"),
          ("low_occupancy", "low occupancy", "[0, inf)"),
          ("high_occupancy", "high occupancy", "(1.0, inf)"),
          ("cooldown", "cooldown", "[0, inf)"),
          ("spinup", "spin-up delay", "[0, inf)"),
      )],
    ("FailureEvent time", "failure time", "[0, inf)", ServeError,
     _failure_event("time")),
    ("FailureEvent downtime", "failure downtime", "(0, inf)", ServeError,
     _failure_event("downtime")),
    ("FailureSpec spinup", "spin-up delay", "[0, inf)", ServeError,
     _knob(FailureSpec, "spinup", events=())),
    ("DynamicPolicy snapshot_every", "snapshot epoch", "[0, inf)", ServeError,
     _knob(DynamicPolicy, "snapshot_every")),
    ("DynamicPolicy repartition_threshold", "repartition threshold", "(0, inf)",
     ServeError, _knob(DynamicPolicy, "repartition_threshold")),
    *[(f"UpdateSpec {knob}", name, interval, ServeError, _knob(UpdateSpec, knob))
      for knob, name, interval in (
          ("rate", "ingest rate", "(0, inf)"),
          ("delete_fraction", "delete fraction", "[0, 1)"),
          ("skew", "skew", "[0, inf)"),
      )],
    ("incremental_rebalance target_balance", "target balance", "[1, inf)",
     ShapeError, _rebalance("target_balance")),
    ("check_run_shape lr", "learning rate", "(0, inf)", ShapeError,
     _knob(check_run_shape, "lr")),
    ("check_walk_parameters restart_prob", "restart_prob", "[0, 1]", ShapeError,
     _knob(check_walk_parameters, "restart_prob")),
    ("FeatureSource cache_ratio", "cache ratio", "[0, 1]", ShapeError,
     _knob(FeatureSource, "cache_ratio", dataset=None)),
    *[(f"TieredFeatureStore {knob}", name, "[0, 1]", ShapeError,
       _knob(TieredFeatureStore, knob, features=None, scores=None, pool=MemoryPool()))
      for knob, name in (("device_ratio", "device tier ratio"),
                         ("host_ratio", "host tier ratio"))],
    ("load_dataset scale", "dataset scale", "(0, inf)", ShapeError,
     _knob(load_dataset, "scale", name="pd")),
    *[(f"DeviceSpec {knob}", f"v100 {knob}", interval, DeviceError,
       lambda v, graph, rng, ctx, knob=knob: dataclasses.replace(V100, **{knob: v}))
      for knob, interval in (
          ("bandwidth", "(0, inf)"),
          ("flops", "(0, inf)"),
          ("min_occupancy", "(0, 1]"),
          ("uva_cache_hit_rate", "[0, 1)"),
      )],
    *[(f"LinkSpec {knob}", f"nvlink link {knob}", interval, DeviceError,
       lambda v, graph, rng, ctx, knob=knob: dataclasses.replace(NVLINK, **{knob: v}))
      for knob, interval in (("bandwidth", "(0, inf)"), ("latency", "[0, inf)"))],
    ("LinkSpec.bulk_transfer_time chunk_bytes", "chunk size", "(0, inf)", DeviceError,
     lambda v, graph, rng, ctx: NVLINK.bulk_transfer_time(1.0, chunk_bytes=v)),
    *[(f"ppr {knob}", knob, interval, ShapeError,
       lambda v, graph, rng, ctx, knob=knob: _ppr(knob, v, graph, rng, ctx))
      for knob, interval in (("damping", "(0, 1)"), ("alpha", "(0, 1)"),
                             ("epsilon", "(0, inf)"), ("tolerance", "[0, inf)"))],
]


def _outside(interval):
    """A finite value just outside each finite end of ``interval``."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    if np.isfinite(low):
        yield low if interval[0] == "(" else low - 0.5
    if np.isfinite(high):
        yield high if interval[-1] == ")" else high + 0.5


def _real_cases():
    for label, name, interval, error, call in _REAL_BOUNDARIES:
        hostile = (True, np.float64("nan"), float("inf"), -float("inf"), "0.5")
        for value in (*hostile, *_outside(interval)):
            message = f"{name} must be in {interval}, got {value!r}"
            yield pytest.param(call, value, error, message, id=f"{label}={value!r}")


class TestBoundaryVocabulary:
    """Every public count, real-valued knob and id-array boundary refuses
    the same inputs in the same words (``repro.errors.check_count`` /
    ``check_real`` / ``check_ids``) with a ``GSamplerError`` before it
    draws or launches."""

    @pytest.mark.parametrize(("call", "value", "error", "message"), _count_cases())
    def test_count_refused_before_any_draw(
        self, call, value, error, message, small_graph, monkeypatch
    ):
        """At the parent of this table ``minibatches(ids, 2.5)`` drew its
        permutation and raised a raw ``TypeError``; ``ServePolicy`` took a
        float or bool ``max_batch``, a float ``queue_capacity`` or
        ``min_samples``; ``check_run_shape`` took ``True`` for any knob."""
        monkeypatch.setattr(harness, "load_dataset", _no_load)
        ctx = ExecutionContext(V100)
        rng = new_rng(0)
        untouched = rng.bit_generator.state
        with pytest.raises(error, match=re.escape(message)):
            call(value, small_graph, rng, ctx)
        assert ctx.launch_count() == 0
        assert rng.bit_generator.state == untouched

    @pytest.mark.parametrize(("call", "value", "error", "message"), _real_cases())
    def test_real_refused_before_any_draw(
        self, call, value, error, message, small_graph, monkeypatch
    ):
        """At the parent of this table ``WorkloadSpec``, ``AutoscalePolicy``,
        ``FailureEvent``, ``DynamicPolicy``, ``UpdateSpec``, ``LinkSpec``
        and ``load_dataset`` took NaN, infinite or bool knobs, and
        ``check_run_shape`` trained at ``lr=True``."""
        monkeypatch.setattr(harness, "load_dataset", _no_load)
        ctx = ExecutionContext(V100)
        rng = new_rng(0)
        untouched = rng.bit_generator.state
        with pytest.raises(error, match=re.escape(message)):
            call(value, small_graph, rng, ctx)
        assert ctx.launch_count() == 0
        assert rng.bit_generator.state == untouched

    @pytest.mark.parametrize(
        ("value", "interval"),
        [
            (0, "[0, 1]"),
            (1, "[0, 1]"),
            (np.int64(1), "[1, inf)"),
            (np.float32(0.25), "(0, 1)"),
            (10**400, "[0, inf)"),
            (-3, "(-inf, 0]"),
        ],
    )
    def test_real_accepts_ints_and_numpy_scalars_unchanged(self, value, interval):
        from repro.errors import check_real

        assert check_real("knob", value, interval) is value

    @pytest.mark.parametrize(
        ("value", "interval"),
        [
            (np.True_, "[0, 1]"),
            (None, "[0, 1]"),
            (1j, "[0, 1]"),
            (np.array(0.5), "[0, 1]"),
            (0, "(0, 1]"),
            (1, "[0, 1)"),
            (-1e-12, "[0, 1]"),
            (1 + 1e-12, "[0, 1]"),
        ],
    )
    def test_real_refused_with_the_error_asked_for(self, value, interval):
        from repro.errors import check_real

        message = f"knob must be in {interval}, got {value!r}"
        with pytest.raises(ServeError, match=re.escape(message)):
            check_real("knob", value, interval, error=ServeError)

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--autoscale", "--scale-interval-ms", "nan"],
             "autoscale interval must be in (0, inf), got nan"),
            (["--ingest-rate", "inf"], "ingest rate must be in (0, inf), got inf"),
            (["--kill", "0@nan"], "failure time must be in [0, inf), got nan"),
            (["--skew", "nan"], "skew must be in [0, inf), got nan"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_serve_flag_refused_before_any_dataset(
        self, flags, message, tmp_path, capsys, monkeypatch
    ):
        """At the parent the first two ran the whole session and died on a
        raw ``ValueError`` writing the record, ``--kill 0@nan`` wrote a
        lane, ``--skew nan`` was refused by the rank sampler after the
        dataset loaded and ``--seed -1`` died on NumPy's ``ValueError``."""
        monkeypatch.setattr(cli, "load_dataset", _no_load)
        argv = ["serve", "--requests", "48", "--scale", "0.1", *flags]
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("scale", [1e-6, 1e-5, 8.3e-05])
    def test_scale_leaving_no_node_refused_before_any_build(
        self, scale, monkeypatch
    ):
        """At the parent ``load_dataset("pd", scale=1e-6)`` built an empty
        graph and then failed inside ``rng.choice``."""
        from repro.datasets import catalog

        monkeypatch.setattr(catalog, "_build_dataset", _no_load)
        message = (
            f"dataset scale {scale!r} leaves 'pd' no node; the smallest "
            f"accepted scale is {1 / 12_000!r}"
        )
        with pytest.raises(ShapeError, match=re.escape(message)):
            load_dataset("pd", scale=scale)
        with pytest.raises(ShapeError, match="dataset seed must be >= 0"):
            load_dataset("pd", seed=-1)

    def test_the_smallest_accepted_scale_builds_one_node(self):
        assert load_dataset("pd", scale=1 / 12_000).num_nodes == 1

    def test_pipeline_scale_leaving_no_node_exits_2(self, tmp_path, capsys):
        """At the parent ``pipeline graphsage --scale 0.00001`` exited 1
        with a traceback."""
        argv = ["pipeline", "graphsage", "--scale", "0.00001"]
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "dataset scale 1e-05 leaves 'pd' no node" in captured.err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(("call", "ids", "message"), _id_cases())
    def test_ids_refused_before_any_draw(self, call, ids, message, small_graph):
        """At the parent ``A[:, [0.7]]`` sliced column 0, a bool mask was
        read as ids by every slice, and ``DeltaGraph`` inserted the edge
        its truncated float endpoints named."""
        ctx = ExecutionContext(V100)
        rng = new_rng(0)
        untouched = rng.bit_generator.state
        with pytest.raises(ShapeError, match=re.escape(message)):
            call(ids, small_graph, rng, ctx)
        assert ctx.launch_count() == 0
        assert rng.bit_generator.state == untouched

    def test_an_empty_float_frontier_samples_an_empty_layer(self, small_graph):
        """``np.array([])`` is float64: empty ids of any dtype are ids."""
        from repro.core import fused_extract_individual_sample, individual_sample

        empty = np.array([])
        fused = fused_extract_individual_sample(
            small_graph.get("csc"), empty, 3, rng=new_rng(0)
        )
        sliced = individual_sample(
            small_graph[:, empty].get("csc"), 3, rng=new_rng(0)
        )
        for layer in (fused, sliced):
            assert layer.shape == (200, 0) and layer.nnz == 0
