#!/usr/bin/env python
"""Train a GraphSAGE model end to end on the Ogbn-Products stand-in.

This is the paper's motivating workload (Tables 1 and 8): mini-batch GNN
training where graph sampling prepares every batch.  The script trains a
real NumPy GraphSAGE on the SBM-based PD dataset to convergence, then
prints the time split between sampling and training — the quantity
gSampler exists to shrink.

Run:  python examples/train_graphsage.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import make_algorithm
from repro.datasets import load_dataset
from repro.device import V100
from repro.learning import GraphSAGEModel, Trainer


def main() -> None:
    dataset = load_dataset("pd", scale=0.4)
    print(
        f"dataset: {dataset.name} — {dataset.num_nodes} nodes, "
        f"{dataset.num_edges} edges, {dataset.num_classes} classes"
    )

    fanouts = (5, 10)
    algorithm = make_algorithm("graphsage", fanouts=fanouts)
    pipeline = algorithm.build(dataset.graph, dataset.train_ids[:512])

    rng = np.random.default_rng(7)
    model = GraphSAGEModel(
        in_dim=dataset.features.shape[1],
        hidden_dim=64,
        num_classes=dataset.num_classes,
        num_layers=len(fanouts),
        rng=rng,
    )
    trainer = Trainer(
        pipeline, model, dataset, device=V100, batch_size=512, lr=0.05
    )

    result, _ = trainer.train(epochs=8, max_batches_per_epoch=8)
    print("\nper-epoch training accuracy:")
    for epoch, acc in enumerate(result.accuracy_history, start=1):
        print(f"  epoch {epoch}: {acc * 100:.2f}%")
    print(f"\nfinal accuracy: {result.final_accuracy * 100:.2f}%")
    print(f"simulated end-to-end time: {result.total_seconds * 1e3:.2f} ms")
    print(
        f"  sampling {result.sampling_seconds * 1e3:.2f} ms "
        f"({result.sampling_fraction * 100:.1f}%), "
        f"training {result.training_seconds * 1e3:.2f} ms"
    )


if __name__ == "__main__":
    main()
