"""Table 8: end-to-end training time and converged accuracy.

Paper (Ogbn-Products): GraphSAGE — gSampler 226s/90.48%, DGL 322s/90.35%,
PyG 13082s/90.44%; LADIES — gSampler 451s/89.38%, DGL 809s/89.39%.

Two shapes must hold: (1) all systems converge to the *same* accuracy,
because gSampler executes identical sampling logic (differences are just
initialization noise); (2) gSampler's faster sampling cuts end-to-end
time by a large margin (the paper: 30.0% for GraphSAGE, 44.3% for
LADIES vs DGL).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.baselines import make_system
from repro.baselines.base import ProfiledPipeline
from repro.bench import format_table
from repro.datasets import load_dataset
from repro.device import CPU, V100
from repro.learning import GraphSAGEModel, LadiesGCN, Trainer

from benchmarks.conftest import BENCH_SCALE

CONFIGS = {
    "graphsage": (
        GraphSAGEModel,
        dict(fanouts=(5, 10)),
        2,
        ["gsampler", "dgl-gpu", "pyg-cpu"],
    ),
    "ladies": (
        LadiesGCN,
        dict(layer_width=256, num_layers=2),
        2,
        ["gsampler", "dgl-gpu"],
    ),
}


def _train(algorithm: str, system_name: str) -> tuple[float, float]:
    ds = load_dataset("pd", scale=BENCH_SCALE)
    model_cls, algo_kwargs, num_layers, _ = CONFIGS[algorithm]
    system = make_system(system_name)
    algo = make_algorithm(algorithm, **algo_kwargs)
    inner = algo.build(ds.graph, ds.train_ids[:256])
    template = system.build_pipeline(algorithm, ds, ds.train_ids[:256])
    pipeline = (
        ProfiledPipeline(inner, template.profile)
        if isinstance(template, ProfiledPipeline)
        else inner
    )
    # Deterministic per-system seed: Python's str hash is salted per process,
    # which would make checked-in accuracy columns irreproducible.
    seed = int.from_bytes(hashlib.sha256(system_name.encode()).digest()[:4], "little")
    rng = np.random.default_rng(seed)
    model = model_cls(
        ds.features.shape[1], 32, ds.num_classes, num_layers=num_layers, rng=rng
    )
    device = CPU if system.device_kind == "cpu" else V100
    trainer = Trainer(
        pipeline, model, ds, device=device, train_device=V100, batch_size=256
    )
    serial, _ = trainer.train(6, max_batches_per_epoch=6)
    return serial.total_seconds, serial.final_accuracy


@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_table8_end_to_end(benchmark, report, algorithm):
    systems = CONFIGS[algorithm][3]
    results = benchmark.pedantic(
        lambda: {s: _train(algorithm, s) for s in systems},
        rounds=1,
        iterations=1,
    )
    report(
        f"table8_{algorithm}",
        format_table(
            ["System", "Time (ms, simulated)", "Accuracy (%)"],
            [
                [s, f"{t * 1e3:.2f}", f"{a * 100:.2f}"]
                for s, (t, a) in results.items()
            ],
            title=f"Table 8: end-to-end training — {algorithm} on PD",
        ),
    )
    times = {s: t for s, (t, _) in results.items()}
    accs = {s: a for s, (_, a) in results.items()}
    # (1) Convergence accuracy is system-independent (within noise).
    spread = max(accs.values()) - min(accs.values())
    assert spread < 0.08, f"accuracy should match across systems: {accs}"
    assert all(a > 0.85 for a in accs.values())
    # (2) gSampler reduces end-to-end time over DGL by a real margin
    # (paper: 30.0% for GraphSAGE, 44.3% for LADIES).
    reduction = 1.0 - times["gsampler"] / times["dgl-gpu"]
    assert reduction > 0.10, f"end-to-end reduction too small: {reduction:.2%}"
    if "pyg-cpu" in times:
        assert times["pyg-cpu"] > 2 * times["gsampler"]
