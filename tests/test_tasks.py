"""Task abstraction: compaction, negative sampling, pair scoring, trainer.

The contracts under test:

* ``unique_and_compact_node_pairs`` matches graphbolt's semantics — the
  seed set is sorted unique int64, and indexing it with the compacted
  pairs reproduces the originals exactly (round trip);
* the negative sampler never emits a live edge or self-loop (no false
  negatives), and its draw stream is a pure function of the generator;
* ``pair_auc`` is the rank statistic it claims to be (1.0 when scores
  separate, 0.0 when inverted, 0.5 degenerate);
* ``NodeClassificationTask`` is a bit-for-bit pass-through — the exact
  property the pinned serve/cluster fingerprints rely on;
* ``LinkPredictionTask`` trains end to end through the unmodified
  Trainer: finite BCE loss, AUC a valid probability, and determinism
  under a fixed seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.datasets import load_dataset
from repro.device import V100
from repro.errors import GSamplerError
from repro.learning import GraphSAGEModel, Trainer
from repro.tasks import (
    LinkPredictionTask,
    NodeClassificationTask,
    available_tasks,
    edge_endpoints_of,
    edge_keys,
    make_task,
    negative_sample,
    pair_auc,
    unique_and_compact_node_pairs,
)


@pytest.fixture(scope="module")
def pd():
    return load_dataset("pd", scale=0.25)


# ----------------------------------------------------------------------
# Pair compaction
# ----------------------------------------------------------------------
class TestCompaction:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        pos = rng.integers(0, 1000, size=(64, 2), dtype=np.int64)
        neg = rng.integers(0, 1000, size=(64, 2), dtype=np.int64)
        seeds, cpos, cneg = unique_and_compact_node_pairs(pos, neg)
        assert seeds.dtype == np.int64
        np.testing.assert_array_equal(seeds, np.unique(seeds))
        np.testing.assert_array_equal(seeds[cpos], pos)
        np.testing.assert_array_equal(seeds[cneg], neg)

    def test_seeds_cover_exactly_the_endpoints(self):
        pos = np.array([[5, 9], [9, 2]], dtype=np.int64)
        seeds, cpos, cneg = unique_and_compact_node_pairs(pos)
        np.testing.assert_array_equal(seeds, [2, 5, 9])
        assert cneg is None
        np.testing.assert_array_equal(seeds[cpos], pos)

    def test_compaction_shrinks_duplicated_endpoints(self):
        # 100 pairs over a 10-node universe: endpoints collapse hard.
        rng = np.random.default_rng(1)
        pos = rng.integers(0, 10, size=(100, 2), dtype=np.int64)
        seeds, _, _ = unique_and_compact_node_pairs(pos)
        assert len(seeds) <= 10 < 200


# ----------------------------------------------------------------------
# Negative sampling
# ----------------------------------------------------------------------
class TestNegativeSampler:
    def _live(self, num_nodes, rng, num_edges=400):
        src = rng.integers(0, num_nodes, size=num_edges, dtype=np.int64)
        dst = rng.integers(0, num_nodes, size=num_edges, dtype=np.int64)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        return src, dst, np.sort(edge_keys(src, dst, num_nodes))

    def test_no_false_negatives_and_no_self_loops(self):
        rng = np.random.default_rng(2)
        num_nodes = 50
        src, _, live = self._live(num_nodes, rng)
        neg_dst = negative_sample(src, num_nodes, live, rng)
        keys = edge_keys(src, neg_dst, num_nodes)
        # Not one forged pair may exist in the live edge set.
        idx = np.searchsorted(live, keys)
        idx = np.minimum(idx, len(live) - 1)
        assert not np.any(live[idx] == keys)
        assert not np.any(neg_dst == src)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(3)
        num_nodes = 80
        src, _, live = self._live(num_nodes, rng)
        a = negative_sample(src, num_nodes, live, np.random.default_rng(9))
        b = negative_sample(src, num_nodes, live, np.random.default_rng(9))
        c = negative_sample(src, num_nodes, live, np.random.default_rng(10))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_too_dense_graph_raises(self):
        # 2 nodes, both directed non-loop edges live: nothing to forge.
        num_nodes = 2
        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([1, 0], dtype=np.int64)
        live = np.sort(edge_keys(src, dst, num_nodes))
        with pytest.raises(GSamplerError):
            negative_sample(src, num_nodes, live, np.random.default_rng(0))


# ----------------------------------------------------------------------
# Pair scoring + registry
# ----------------------------------------------------------------------
class TestPairAucAndRegistry:
    def test_pair_auc_extremes(self):
        pos = np.array([3.0, 4.0, 5.0])
        neg = np.array([0.0, 1.0, 2.0])
        assert pair_auc(pos, neg) == 1.0
        assert pair_auc(neg, pos) == 0.0
        assert pair_auc(np.array([]), neg) == 0.5

    def test_pair_auc_partial_overlap(self):
        pos = np.array([1.0, 3.0])
        neg = np.array([0.0, 2.0])
        assert pair_auc(pos, neg) == pytest.approx(0.75)

    def test_registry(self):
        assert available_tasks() == ("linkpred", "node")
        assert isinstance(make_task("node"), NodeClassificationTask)
        task = make_task("linkpred", embedding_dim=8)
        assert isinstance(task, LinkPredictionTask)
        assert task.embedding_dim == 8
        with pytest.raises(GSamplerError):
            make_task("lunar")

    def test_edge_endpoints_consistent_with_keys(self, pd):
        src, dst = edge_endpoints_of(pd.graph)
        assert src.dtype == np.int64 and dst.dtype == np.int64
        assert len(src) == len(dst) == pd.graph.get("csc").nnz
        keys = edge_keys(src, dst, pd.num_nodes)
        # Collision-free: every directed edge has a distinct key.
        assert len(np.unique(keys)) == len(keys)


# ----------------------------------------------------------------------
# NodeClassificationTask: bit-identical pass-through
# ----------------------------------------------------------------------
class TestNodeTaskPassThrough:
    def test_materialize_is_identity_with_zero_rng_draws(self, pd):
        task = NodeClassificationTask()
        task.prepare(pd)
        units = pd.train_ids[:128]
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        batch = task.materialize(units, rng)
        # Same object, not a copy — and the generator was never touched,
        # so downstream draw streams stay bit-identical to the pre-task
        # trainer (the fingerprint-pin property).
        assert batch.nodes is units
        assert batch.pos_pairs is None and batch.neg_pairs is None
        assert batch.num_pairs == 0
        assert rng.bit_generator.state == before

    def test_train_units_are_the_dataset_ids(self, pd):
        task = NodeClassificationTask()
        assert task.train_units(pd) is pd.train_ids
        assert task.output_dim(pd) == pd.num_classes


# ----------------------------------------------------------------------
# LinkPredictionTask end to end
# ----------------------------------------------------------------------
class TestLinkPredictionTask:
    def test_materialize_contract(self, pd):
        task = LinkPredictionTask()
        task.prepare(pd)
        units = task.train_units(pd)
        assert units.dtype == np.int64
        batch = task.materialize(units[:256], np.random.default_rng(4))
        assert batch.pos_pairs is not None and batch.neg_pairs is not None
        assert batch.num_pairs == 512
        # Compacted indices address the unique seed set.
        assert batch.pos_pairs.max() < len(batch.nodes)
        assert batch.neg_pairs.max() < len(batch.nodes)
        # Positives decode to live edges.
        src, dst = edge_endpoints_of(pd.graph)
        live = np.sort(edge_keys(src, dst, pd.num_nodes))
        pos_global = batch.nodes[batch.pos_pairs]
        keys = edge_keys(pos_global[:, 0], pos_global[:, 1], pd.num_nodes)
        idx = np.minimum(np.searchsorted(live, keys), len(live) - 1)
        assert np.all(live[idx] == keys)
        # Negatives decode to non-edges.
        neg_global = batch.nodes[batch.neg_pairs]
        nkeys = edge_keys(neg_global[:, 0], neg_global[:, 1], pd.num_nodes)
        nidx = np.minimum(np.searchsorted(live, nkeys), len(live) - 1)
        assert not np.any(live[nidx] == nkeys)

    def test_unprepared_task_raises(self, pd):
        task = LinkPredictionTask()
        with pytest.raises(GSamplerError):
            task.train_units(pd)

    def test_trains_end_to_end(self, pd):
        task = LinkPredictionTask(embedding_dim=8)
        task.prepare(pd)
        rng = np.random.default_rng(5)
        batch = task.materialize(task.train_units(pd)[:128], rng)
        algorithm = make_algorithm("graphsage", fanouts=(4, 4))
        pipeline = algorithm.build(pd.graph, batch.nodes)
        model = GraphSAGEModel(
            in_dim=pd.features.shape[1],
            hidden_dim=16,
            num_classes=task.output_dim(pd),
            num_layers=2,
            rng=rng,
        )
        trainer = Trainer(
            pipeline, model, pd, device=V100, batch_size=128, lr=0.05,
            seed=0, task=task,
        )
        result, _ = trainer.train(epochs=2, max_batches_per_epoch=4)
        assert np.isfinite(result.final_loss)
        assert 0.0 <= result.final_accuracy <= 1.0
        assert len(result.accuracy_history) == 2

    def test_training_is_seed_deterministic(self, pd):
        def run():
            task = LinkPredictionTask(embedding_dim=8)
            task.prepare(pd)
            rng = np.random.default_rng(6)
            batch = task.materialize(task.train_units(pd)[:64], rng)
            algorithm = make_algorithm("graphsage", fanouts=(4, 4))
            pipeline = algorithm.build(pd.graph, batch.nodes)
            model = GraphSAGEModel(
                in_dim=pd.features.shape[1], hidden_dim=16,
                num_classes=task.output_dim(pd), num_layers=2,
                rng=np.random.default_rng(1),
            )
            trainer = Trainer(
                pipeline, model, pd, device=V100, batch_size=64,
                lr=0.05, seed=0, task=task,
            )
            result, _ = trainer.train(epochs=1, max_batches_per_epoch=3)
            return result.final_loss, result.final_accuracy

        assert run() == run()
