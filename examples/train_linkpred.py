#!/usr/bin/env python
"""Train a link-prediction model end to end via the Task abstraction.

The workload the node-classification examples never exercise: training
units are *edges*, not nodes.  Each mini-batch takes a slice of positive
edges, forges an equal number of negative pairs (destination-corrupted,
rejection-sampled against the live edge set so no "negative" is secretly
a real edge), compacts both pair sets to their unique endpoints
(graphbolt-style ``unique_and_compact_node_pairs``), samples neighbors
for that compacted seed set once, and scores each candidate pair by the
dot product of its endpoint embeddings.  The printed metric is AUC —
the probability a positive pair outscores a negative one.

Run:  python examples/train_linkpred.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import make_algorithm
from repro.datasets import load_dataset
from repro.device import V100
from repro.learning import GraphSAGEModel, Trainer
from repro.tasks import LinkPredictionTask


def main() -> None:
    dataset = load_dataset("pd", scale=0.4)
    task = LinkPredictionTask(embedding_dim=16)
    task.prepare(dataset)
    print(
        f"dataset: {dataset.name} — {dataset.num_nodes} nodes, "
        f"{len(task.train_units(dataset))} training edges"
    )

    # One compacted pair batch, to show what the trainer feeds the
    # sampler: 2 * batch pairs collapse to far fewer unique endpoints.
    rng = np.random.default_rng(7)
    units = task.train_units(dataset)
    batch = task.materialize(units[:256], rng)
    print(
        f"one batch: {batch.num_pairs} candidate pairs "
        f"({batch.num_pairs * 2} endpoints) compacted to "
        f"{len(batch.nodes)} unique seed nodes"
    )

    fanouts = (5, 10)
    algorithm = make_algorithm("graphsage", fanouts=fanouts)
    pipeline = algorithm.build(dataset.graph, batch.nodes)

    # Same sampled-GNN backbone as node classification; the head just
    # reads embeddings instead of class logits — that is the Task seam.
    model = GraphSAGEModel(
        in_dim=dataset.features.shape[1],
        hidden_dim=64,
        num_classes=task.output_dim(dataset),
        num_layers=len(fanouts),
        rng=rng,
    )
    trainer = Trainer(
        pipeline, model, dataset, device=V100, batch_size=256, lr=0.05,
        task=task,
    )

    result, _ = trainer.train(epochs=4, max_batches_per_epoch=8)
    print("\nper-epoch AUC (positive pair outscores negative):")
    for epoch, auc in enumerate(result.accuracy_history, start=1):
        print(f"  epoch {epoch}: {auc:.3f}")
    print(f"\nfinal AUC: {result.final_accuracy:.3f}")
    print(f"final BCE loss: {result.final_loss:.4f}")
    print(f"simulated end-to-end time: {result.total_seconds * 1e3:.2f} ms")
    print(
        f"  sampling {result.sampling_seconds * 1e3:.2f} ms "
        f"({result.sampling_fraction * 100:.1f}%), "
        f"training {result.training_seconds * 1e3:.2f} ms"
    )


if __name__ == "__main__":
    main()
