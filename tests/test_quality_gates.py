"""Repository-wide quality gates: docstrings, exports, and split-device
training behavior."""

from __future__ import annotations

import importlib
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import repro


#: The first CHANGES.md entry written under the size rule; the entries
#: before it are history and stay as they are.
FIRST_SIZED_ENTRY = 46


def _walk_modules():
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if module_info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        yield importlib.import_module(module_info.name)


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        missing = [
            m.__name__
            for m in _walk_modules()
            if not (m.__doc__ or "").strip() and not m.__name__.endswith("__main__")
        ]
        assert not missing, f"modules without docstrings: {missing}"

    def test_every_public_class_and_function_documented(self):
        import inspect

        undocumented = []
        for module in _walk_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not (obj.__doc__ or "").strip():
                        undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"undocumented public items: {undocumented}"

    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


    def test_changes_entries_stay_short(self):
        """Every CHANGES.md entry numbered ``FIRST_SIZED_ENTRY`` or later —
        its ``- PR`` line and the lines after it up to the next entry,
        ``FOUND:`` lines included — is at most 5 lines and 1 000 bytes."""
        text = (pathlib.Path(__file__).parents[1] / "CHANGES.md").read_text()
        entries: list[tuple[int, list[str]]] = []
        for line in text.splitlines():
            head = re.match(r"- PR (\d+)\b", line)
            if head:
                entries.append((int(head.group(1)), []))
            if entries and line.strip():
                entries[-1][1].append(line)
        checked = [(n, lines) for n, lines in entries if n >= FIRST_SIZED_ENTRY]
        for number, lines in checked:
            size = len("\n".join(lines).encode())
            assert len(lines) <= 5, f"PR {number}: {len(lines)} lines"
            assert size <= 1000, f"PR {number}: {size} bytes"


class TestSplitDeviceTraining:
    def test_cpu_sampling_gpu_training_fraction(self):
        """The Table 1 protocol: CPU sampling with GPU training must push
        the sampling fraction far above the all-GPU setup."""
        from repro.algorithms import make_algorithm
        from repro.datasets import load_dataset
        from repro.device import CPU, V100
        from repro.learning import GraphSAGEModel, Trainer

        ds = load_dataset("pd", scale=0.1)
        rng = np.random.default_rng(0)

        def run(sample_device):
            pipe = make_algorithm("graphsage", fanouts=(4, 4)).build(
                ds.graph, ds.train_ids[:64]
            )
            model = GraphSAGEModel(
                ds.features.shape[1], 16, ds.num_classes, num_layers=2,
                rng=np.random.default_rng(0),
            )
            trainer = Trainer(
                pipe, model, ds, device=sample_device, train_device=V100,
                batch_size=64,
            )
            serial, _ = trainer.train(1, max_batches_per_epoch=4)
            return serial.sampling_fraction

        assert run(CPU) > run(V100)
        assert run(CPU) > 0.8
