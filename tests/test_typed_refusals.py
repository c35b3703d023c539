"""Refusals are typed and early: every bad name or argument raises a
``repro.errors`` type before any compile, launch or dataset load — and a
misspelt algorithm is never reported as one of the paper's N/A cells."""

from __future__ import annotations

import re

import numpy as np
import pytest

import repro.bench.harness as harness
from repro import cli, sampler
from repro.algorithms import make_algorithm
from repro.algorithms.walks import uniform_walk
from repro.baselines import make_system
from repro.bench import measure_cell
from repro.core import new_rng
from repro.device import V100, ExecutionContext
from repro.errors import GSamplerError, ShapeError
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
            ([-1], "id -1 is outside [0, 4)"),
            ([1, 4], "id 4 is outside [0, 4)"),
            ([0, 0], "id 0 is repeated"),
            ([3, 1, 3], "id 3 is repeated"),
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
                "walk seeds must be a 1-D integer array, got shape (2,) of "
                "dtype float64",
            ),
            (
                [[0, 1], [2, 3]],
                3,
                "walk seeds must be a 1-D integer array, got shape (2, 2)",
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
            ({"num_walks": -1}, "num_walks must be >= 0, got -1"),
            ({"num_walks": 1.5}, "num_walks must be an integer, got 1.5"),
            ({"frontiers": [0.5, 1.5]}, "walk seeds must be a 1-D integer array"),
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
    node and a bias no walker can follow, before it draws or launches."""

    @pytest.mark.parametrize(
        ("frontiers", "bias", "message"),
        [
            ([-1, 0], None, "frontier -1 is outside [0, 200)"),
            ([0, 200], None, "frontier 200 is outside [0, 200)"),
            ([1.5], None, "frontier ids must be integers, got dtype float64"),
            ([0, 1], "negative", "walk bias must be finite and non-negative"),
            ([0, 1], "nan", "walk bias must be finite and non-negative"),
            ([0, 1], "short", "per-edge bias shape"),
        ],
    )
    def test_refused_before_any_draw_or_launch(
        self, frontiers, bias, message, small_graph
    ):
        """Frontier ``-1`` returned ``-1`` and charged its launch 1 flop;
        ``1.5`` walked from 1; a negative or NaN bias stranded every walker
        without an error."""
        from repro.core import uniform_walk_step

        csc = small_graph.get("csc")
        weights = np.ones(csc.nnz)
        if bias == "negative":
            weights[3] = -1.0
        elif bias == "nan":
            weights[3] = np.nan
        elif bias == "short":
            weights = weights[:-1]
        ctx = ExecutionContext(V100)
        rng = new_rng(0)
        untouched = rng.bit_generator.state
        with pytest.raises(ShapeError, match=re.escape(message)):
            uniform_walk_step(
                csc,
                np.array(frontiers),
                rng=rng,
                ctx=ctx,
                bias_edge_values=None if bias is None else weights,
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
            ([0, 1], 0, 0, "fanout k must be positive, got 0"),
            ([0, 1], -3, 0, "fanout k must be positive, got -3"),
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


class TestServeFlagBoundaries:
    """A ``serve`` flag value the library cannot honour exits 2 where it
    enters — no NumPy traceback, no NaN-derived record in the lane."""

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--scale", "0"], "scale must be finite and positive"),
            (["--scale", "-1"], "scale must be finite and positive"),
            (["--arrival-rate", "nan"], "arrival rate must be finite"),
            (["--arrival-rate", "inf"], "arrival rate must be finite"),
            (["--max-wait-ms", "nan"], "max wait must be finite"),
            (["--slo-ms", "nan"], "SLO must be finite"),
            (["--cache-ratio", "-0.5"], "cache ratio must be in [0, 1]"),
            (["--hbm-budget-mb", "-1"], "pool capacity must be >= 0"),
            (["--hbm-budget-mb", "nan"], "pool capacity must be >= 0"),
            (["--hbm-budget-mb", "inf"], "pool capacity must be >= 0"),
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
            (["--hbm-budget-mb", "nan"], "pool capacity must be >= 0"),
            (["--hbm-budget-mb", "inf"], "pool capacity must be >= 0"),
            (["--hbm-budget-mb", "-1"], "pool capacity must be >= 0"),
            (["--prefetch-depth", "0"], "prefetch depth must be at least 1"),
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
            ({"prefetch_depth": 0}, "prefetch depth must be at least 1, got 0"),
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
            ({"max_batches_per_epoch": -1}, "max batches must be >= 1 or None"),
            ({"max_batches_per_epoch": 0}, "max batches must be >= 1 or None"),
            ({"epochs": 0}, "epochs and batch size must be >= 1"),
            ({"epochs": 1.5}, "epochs must be an integer, got 1.5"),
            ({"batch_size": 2.5}, "batch size must be an integer, got 2.5"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"prefetch_depth": 0}, "prefetch depth must be at least 1, got 0"),
            ({"lr": np.nan}, "learning rate must be finite and positive"),
            ({"lr": np.inf}, "learning rate must be finite and positive"),
            ({"lr": 0.0}, "learning rate must be finite and positive"),
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


class TestEpochFlagBoundaries:
    """An epoch shape with no batches in it exits 2 — not a ``range()`` /
    ``IndexError`` traceback, a silently dropped batch, or a NaN loss
    written into a lane."""

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--batch-size", "0"], "batch size must be >= 1"),
            (["--batch-size", "-3"], "batch size must be >= 1"),
            (["--max-batches", "0"], "max batches must be >= 1 or None"),
            (["--max-batches", "-1"], "max batches must be >= 1 or None"),
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
        assert "epochs and batch size must be >= 1" in capsys.readouterr().err
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

