"""A replica is handed its parts: the flat/tiered store fork is known to
``repro.cache`` alone and the serving task to ``repro.tasks`` alone."""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro import cli
from repro.datasets import load_dataset
from repro.device import V100
from repro.errors import ServeError
from repro.pipeline import run_pipeline_cell
from repro.serve import ClusterSimulator, WorkloadSpec
from repro.tasks import available_tasks

SRC = pathlib.Path(repro.__file__).parent
STORE_CLASSES = {"FeatureCache", "TieredFeatureStore"}


@pytest.fixture(scope="module")
def pd():
    return load_dataset("pd", scale=0.1)


def _modules_outside_cache():
    for path in sorted(SRC.rglob("*.py")):
        if "cache" not in path.relative_to(SRC).parts:
            yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _names(node: ast.AST) -> set[str]:
    """Every identifier under ``node``: names, attributes, import aliases."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias):
            found.add(child.name.rpartition(".")[2])
    return found


class TestStoreForkIsKnownToOnePackage:
    def test_no_module_outside_cache_names_a_store_class(self):
        offenders = {
            module: sorted(_names(tree) & STORE_CLASSES)
            for module, tree in _modules_outside_cache()
            if _names(tree) & STORE_CLASSES
        }
        assert not offenders

    def test_no_module_outside_cache_branches_on_feature_tiers(self):
        """``feature_tiers`` is a pass-through keyword, the CLI's flag and
        display, and a ``ServeReport`` field — never a condition."""
        offenders = [
            f"{module}:{node.lineno}"
            for module, tree in _modules_outside_cache()
            if module != "cli.py"
            for node in ast.walk(tree)
            if isinstance(node, (ast.If, ast.IfExp, ast.While))
            and "feature_tiers" in _names(node.test)
        ]
        assert not offenders

    @pytest.mark.parametrize(
        "knobs, wires",
        [
            (dict(cache_ratio=0.0), ["transfer"]),
            (dict(), ["transfer"]),
            (dict(feature_tiers=True), ["transfer", "remote", "p2p"]),
            (dict(feature_tiers=True, p2p=True), ["transfer", "remote", "p2p"]),
            (dict(feature_tiers=True, cache_ratio=0.0),
             ["transfer", "remote", "p2p"]),
        ],
        ids=["no-cache", "flat", "tiered", "tiered+p2p", "tiered-no-cache"],
    )
    @pytest.mark.parametrize("fleet", [1, 2])
    def test_replicas_declare_the_queues_they_always_did(
        self, pd, knobs, wires, fleet
    ):
        cluster = ClusterSimulator(
            pd, device=V100, num_replicas=fleet, link="nvlink", **knobs
        )
        for i, replica in enumerate(cluster.replicas):
            prefix = f"r{i}:" if fleet > 1 else ""
            assert list(replica.sample_ctx.queue_stats()) == [prefix + "sample"]
            assert list(replica.io_ctx.queue_stats()) == [
                prefix + wire for wire in wires
            ]

    def test_trainer_queues_appear_as_they_always_did(self, pd):
        """The pipelined trainer's queues are lazy: ``remote`` shows up
        only once a tiered store planned a remote tail."""
        def queues(**knobs):
            _, pipelined = run_pipeline_cell(
                "graphsage", pd, device=V100, max_batches=2, **knobs
            )
            return [report.queue for report in pipelined.queue_reports]

        assert queues() == ["sample", "transfer", "compute"]
        assert queues(feature_tiers=True) == ["sample", "transfer", "compute"]
        assert queues(
            feature_tiers=True, host_tier_ratio=0.3, hbm_budget=64 * 1024
        ) == ["sample", "transfer", "remote", "compute"]


class TestTaskIsKnownToOnePackage:
    def test_cli_choices_and_workload_spec_read_the_task_registry(self):
        parser = cli._build_parser()
        serve = parser._subparsers._group_actions[0].choices["serve"]
        (task_flag,) = [
            action for action in serve._actions if action.dest == "task"
        ]
        assert tuple(task_flag.choices) == available_tasks()
        for name in available_tasks():
            assert WorkloadSpec(task=name).task == name
        with pytest.raises(ServeError, match="unknown workload task"):
            WorkloadSpec(task="lunar")

    def test_serve_package_spells_no_task_name(self):
        """No second name list, no string compare: under ``repro/serve``
        the only task name written out is the ``"node"`` default."""
        others = set(available_tasks()) - {"node"}
        spelled = {
            f"{path.name}:{node.lineno}"
            for path in sorted((SRC / "serve").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and node.value in others
        }
        assert others and not spelled
        assert not hasattr(repro.serve.workload, "WORKLOAD_TASKS")
