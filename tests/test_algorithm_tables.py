"""The algorithm and system tables, and every reader that derives from
them: nothing re-lists a name."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import cli
from repro.algorithms import (
    BENCHMARKED,
    LayeredPipeline,
    available_algorithms,
    make_algorithm,
)
from repro.algorithms.walks import WalkPipeline
from repro.baselines import FIGURE7_SYSTEMS, FIGURE8_SYSTEMS, SYSTEMS, make_system
from repro.core import new_rng
from repro.core.matrix import from_edges
from repro.errors import GSamplerError
from repro.verify import builtin_specs, verification_graph

#: ``make_algorithm``'s accepted parameters and defaults, as of PR 18.
PARAMETERS = {
    "asgcn": {"layer_width": 512, "num_layers": 3, "seed": 2023},
    "deepwalk": {"walk_length": 80},
    "fastgcn": {"layer_width": 512, "num_layers": 3},
    "gcn_bs": {"fanouts": (5, 10)},
    "graphsage": {"fanouts": (5, 10, 15)},
    "graphsaint": {"walk_length": 4},
    "hetgnn": {
        "num_types": 3, "num_walks": 10, "walk_length": 3,
        "restart_prob": 0.5, "k_per_type": 5, "num_layers": 2,
    },
    "labor": {"fanouts": (5, 10, 15)},
    "ladies": {"layer_width": 512, "num_layers": 3},
    "node2vec": {"walk_length": 80, "p": 2.0, "q": 0.5},
    "pass": {"fanout": 10, "num_layers": 2, "dim": 16, "seed": 2023},
    "pinsage": {
        "num_walks": 10, "walk_length": 3, "restart_prob": 0.5,
        "top_t": 10, "num_layers": 2,
    },
    "seal": {"hops": 2, "fanout": 10},
    "shadow": {"fanout": 10, "depth": 2, "bias": "uniform", "ppr_k": 20},
    "thanos": {"fanouts": (5, 10)},
    "vrgcn": {"fanouts": (2, 2)},
}


class TestAlgorithmTable:
    def test_parameters_are_exactly_todays(self):
        accepted = {
            name: {
                p.name: p.default
                for p in inspect.signature(
                    type(make_algorithm(name))
                ).parameters.values()
            }
            for name in available_algorithms()
        }
        assert accepted == PARAMETERS

    def test_parameters_are_attributes(self):
        for name, params in PARAMETERS.items():
            algo = make_algorithm(name)
            assert {p: getattr(algo, p) for p in params} == params

    def test_every_algorithm_carries_its_table2_row(self):
        for name in available_algorithms():
            info = make_algorithm(name).info
            assert info.name == name
            assert info.category in ("node-wise", "layer-wise")
            assert info.bias in ("uniform", "static", "dynamic")
            assert info.description

    def test_one_hop_loop_and_one_walk_driver(self, small_graph, rng):
        """Every GraphSample comes out of ``LayeredPipeline``'s loop and
        every walk out of ``WalkPipeline``; SEAL alone has its own."""
        features = rng.random((small_graph.shape[0], 8)).astype(np.float32)
        shapes = {
            name: type(
                make_algorithm(name).build(
                    small_graph, np.arange(8), features=features
                )
            )
            for name in available_algorithms()
        }
        walkers = {"deepwalk", "node2vec", "graphsaint"}
        for name, shape in shapes.items():
            if name in walkers:
                assert shape is WalkPipeline, name
            elif name != "seal":
                assert issubclass(shape, LayeredPipeline), name

    def test_shadow_stops_at_an_empty_frontier(self):
        # Node 3 has no in-edge: the first hop finds no neighbor and the
        # second is never launched (ShaDow's private loop had no break).
        graph = from_edges(np.array([0, 1]), np.array([1, 2]), 4)
        pipeline = make_algorithm("shadow", fanout=2, depth=2).build(
            graph, np.array([3])
        )
        sample = pipeline.sample_batch(np.array([3]), rng=new_rng(0))
        assert len(sample.expansion.layers) == 1
        np.testing.assert_array_equal(sample.nodes, [3])


class TestVerifierReadsTheTable:
    def test_specs_are_the_algorithms_with_a_layer_function(self):
        compiled = {
            name
            for name in available_algorithms()
            if make_algorithm(name).layer is not None
        }
        assert set(builtin_specs()) == compiled
        assert len(compiled) == 8

    def test_spec_fields_come_from_the_algorithm(self):
        graph = verification_graph()
        for name, spec in builtin_specs().items():
            algo = make_algorithm(name)
            assert spec.layer_fn is algo.layer
            assert spec.superbatch == algo.superbatch
            stand_ins = spec.tensors_fn(graph) if spec.tensors_fn else {}
            assert set(stand_ins) == (
                {"features", *algo.tensors} if algo.tensors else set()
            )

    def test_a_compiled_algorithm_without_sizes_is_an_error(self, monkeypatch):
        from repro.verify import equivalence

        monkeypatch.delitem(equivalence._VERIFY_SIZES, "labor")
        with pytest.raises(GSamplerError, match="'labor' has no verification"):
            builtin_specs()


class TestSystemTable:
    def test_gsampler_supports_exactly_the_registry(self):
        supported = make_system("gsampler").supported_algorithms()
        assert supported == set(available_algorithms())

    def test_figure_lists_are_table_keys(self):
        assert FIGURE7_SYSTEMS == tuple(SYSTEMS)
        assert set(FIGURE8_SYSTEMS) <= set(SYSTEMS)

    def test_cli_system_choices_are_the_table_keys(self):
        parser = cli._build_parser()
        commands = parser._subparsers._group_actions[0].choices
        for command in ("sample", "profile"):
            (action,) = [
                a for a in commands[command]._actions if a.dest == "system"
            ]
            assert tuple(action.choices) == tuple(SYSTEMS)

    def test_cli_listings_come_from_the_tables(self, capsys):
        assert cli.main(["systems"]) == 0
        assert capsys.readouterr().out.split() == list(SYSTEMS)
        assert cli.main(["algorithms"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines] == available_algorithms()
        ladies = lines[available_algorithms().index("ladies")]
        assert "layer-wise" in ladies and "dynamic" in ladies

    def test_every_supported_name_is_registered(self):
        for system in SYSTEMS.values():
            assert system.supported_algorithms() <= set(available_algorithms())
        assert set(BENCHMARKED) <= make_system("dgl-cpu").supported_algorithms()

    def test_only_gsampler_superbatches(self):
        assert [k for k, s in SYSTEMS.items() if s.config.superbatch] == ["gsampler"]
