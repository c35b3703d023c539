"""Table 1: fraction of end-to-end training time spent sampling.

Paper values (Ogbn-Products): PyG-CPU GraphSAGE 96.2%; DGL-CPU 70.1% /
95.4% / 95.4%; DGL-GPU 45.8% / 57.6% / 70.1% for GraphSAGE / FastGCN /
LADIES.  We reproduce the protocol on the PD stand-in: the same sampled
mini-batches feed a real NumPy GNN, sampling and training time are
charged on the same simulated device, and the table reports the sampling
share.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.baselines import make_system
from repro.bench import format_table
from repro.datasets import load_dataset
from repro.device import CPU, V100
from repro.learning import GraphSAGEModel, LadiesGCN, Trainer

from benchmarks.conftest import BENCH_SCALE

ROWS = [
    ("PyG", "cpu", "pyg-cpu", ("graphsage",)),
    ("DGL", "cpu", "dgl-cpu", ("graphsage", "fastgcn", "ladies")),
    ("DGL", "gpu", "dgl-gpu", ("graphsage", "fastgcn", "ladies")),
    ("gSampler", "gpu", "gsampler", ("graphsage", "fastgcn", "ladies")),
]

_ALGO_SETUP = {
    "graphsage": dict(fanouts=(5, 10, 15)),
    "fastgcn": dict(layer_width=256, num_layers=3),
    "ladies": dict(layer_width=256, num_layers=3),
}


def _fraction(system_name: str, device_kind: str, algo_name: str) -> float:
    ds = load_dataset("pd", scale=BENCH_SCALE)
    system = make_system(system_name)
    pipeline = system.build_pipeline(algo_name, ds, ds.train_ids[:256])
    # Rebuild with the experiment's hyper-parameters.
    algo = make_algorithm(algo_name, **_ALGO_SETUP[algo_name])
    from repro.baselines.base import ProfiledPipeline

    inner = algo.build(ds.graph, ds.train_ids[:256])
    if isinstance(pipeline, ProfiledPipeline):
        pipeline = ProfiledPipeline(inner, pipeline.profile)
    else:
        pipeline = inner
    rng = np.random.default_rng(0)
    model_cls = GraphSAGEModel if algo_name == "graphsage" else LadiesGCN
    model = model_cls(ds.features.shape[1], 32, ds.num_classes,
                      num_layers=3, rng=rng)
    device = CPU if device_kind == "cpu" else V100
    # Sampling runs on the row's hardware; training always runs on the
    # GPU, matching the paper's setup for the CPU-sampling rows.
    trainer = Trainer(
        pipeline, model, ds, device=device, train_device=V100, batch_size=256
    )
    serial, _ = trainer.train(2, max_batches_per_epoch=4)
    return serial.sampling_fraction


@pytest.mark.parametrize("framework,device,system,algos", ROWS)
def test_table1_sampling_fraction(
    benchmark, report, framework, device, system, algos
):
    fractions = benchmark.pedantic(
        lambda: {a: _fraction(system, device, a) for a in algos},
        rounds=1,
        iterations=1,
    )
    cells = [
        f"{fractions[a] * 100:.1f}%" if a in fractions else "-"
        for a in ("graphsage", "fastgcn", "ladies")
    ]
    report(
        f"table1_{framework.lower()}_{device}",
        format_table(
            ["Framework", "Hardware", "GraphSAGE", "FastGCN", "LADIES"],
            [[framework, device.upper(), *cells]],
            title="Table 1: sampling share of end-to-end training time",
        ),
    )
    # Shape assertions from the paper: CPU sampling dominates harder than
    # GPU sampling, and the share is always substantial for baselines.
    if device == "cpu":
        assert all(f > 0.5 for f in fractions.values())
