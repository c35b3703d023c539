"""Dataset tests: generators and the LJ/PD/PP/FS stand-in catalog."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    available_datasets,
    block_features,
    dedupe_edges,
    load_dataset,
    random_edge_weights,
    rmat_edges,
    sbm_edges,
    symmetrize,
)
from repro.errors import ShapeError


class TestRMAT:
    def test_shape_and_bounds(self):
        src, dst = rmat_edges(10, 8, seed=1)
        assert len(src) == 8 * 1024
        assert src.max() < 1024 and dst.max() < 1024
        assert src.min() >= 0

    def test_degree_distribution_is_skewed(self):
        src, dst = rmat_edges(12, 16, seed=2)
        degrees = np.bincount(dst, minlength=1 << 12)
        # Heavy tail: the top 1% of nodes hold a large share of edges.
        top = np.sort(degrees)[-41:].sum()
        assert top / degrees.sum() > 0.15

    def test_deterministic(self):
        a = rmat_edges(8, 4, seed=3)
        b = rmat_edges(8, 4, seed=3)
        np.testing.assert_array_equal(a[0], b[0])

    def test_invalid_probs_rejected(self):
        with pytest.raises(ShapeError):
            rmat_edges(8, 4, a=0.6, b=0.3, c=0.3)


class TestSBM:
    def test_intra_block_dominates(self):
        src, dst, blocks = sbm_edges(2000, 4, 20.0, seed=4)
        same = (blocks[src] == blocks[dst]).mean()
        assert same > 0.7

    def test_block_features_separable(self):
        blocks = np.repeat(np.arange(4), 50)
        feats = block_features(blocks, 4, 16, noise=0.1, seed=5)
        # Same-block features are much closer than cross-block ones.
        centroid = np.stack([feats[blocks == b].mean(axis=0) for b in range(4)])
        d_intra = np.linalg.norm(feats - centroid[blocks], axis=1).mean()
        d_inter = np.linalg.norm(centroid[0] - centroid[1])
        assert d_inter > d_intra


class TestEdgeHelpers:
    def test_symmetrize(self):
        src, dst = symmetrize(np.array([0, 1]), np.array([2, 3]))
        assert len(src) == 4
        assert (src[2], dst[2]) == (2, 0)

    def test_dedupe_removes_dupes_and_loops(self):
        src = np.array([0, 0, 1, 2])
        dst = np.array([1, 1, 1, 0])
        s, d = dedupe_edges(src, dst, 3)
        assert len(s) == 2  # (0,1) once, (1,1) self-loop dropped, (2,0)
        assert not np.any(s == d)

    def test_edge_weights_positive(self):
        w = random_edge_weights(1000, seed=6)
        assert np.all(w > 0) and np.all(w <= 1.0)


class TestCatalog:
    def test_four_stand_ins(self):
        assert available_datasets() == ["fs", "lj", "pd", "pp"]

    def test_unknown_rejected(self):
        with pytest.raises(ShapeError):
            load_dataset("ogbn-products")

    @pytest.mark.parametrize("name", ["lj", "pd"])
    def test_dataset_consistency(self, name):
        ds = load_dataset(name, scale=0.1)
        assert ds.num_nodes == ds.graph.shape[0]
        assert len(ds.features) == ds.num_nodes
        assert len(ds.labels) == ds.num_nodes
        assert ds.labels.max() < ds.num_classes
        assert len(ds.train_ids) >= 1
        assert ds.graph_on_device

    def test_pd_has_highest_average_degree(self):
        degs = {}
        for name in ("lj", "pd", "pp"):
            ds = load_dataset(name, scale=0.1)
            degs[name] = ds.num_edges / ds.num_nodes
        assert degs["pd"] > degs["lj"]
        assert degs["pd"] > degs["pp"]

    def test_host_resident_flags(self):
        assert not load_dataset("pp", scale=0.1).graph_on_device
        assert not load_dataset("fs", scale=0.1).graph_on_device

    def test_fs_frontier_fraction(self):
        ds = load_dataset("fs", scale=0.1)
        assert len(ds.train_ids) == pytest.approx(0.01 * ds.num_nodes, rel=0.2)

    def test_caching(self):
        assert load_dataset("pd", scale=0.1) is load_dataset("pd", scale=0.1)

    def test_names_are_one_cache_entry_in_any_case(self):
        """``"pd"`` and ``"PD"`` used to be two builds, two objects and two
        of the cache's slots."""
        from repro.datasets import catalog

        misses = catalog._build_dataset.cache_info().misses
        lower = load_dataset("pd", scale=0.1, seed=4046)
        assert load_dataset("PD", scale=0.1, seed=4046) is lower
        assert lower.name == "pd"
        assert catalog._build_dataset.cache_info().misses == misses + 1
