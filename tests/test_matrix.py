"""Tests for the Matrix class: every Table-4 operator plus id mapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matrix import Matrix, from_edges
from repro.errors import FormatError, ShapeError
from repro.sparse import COO, edge_values

from tests.conftest import to_dense


class TestConstruction:
    def test_from_edges(self):
        a = from_edges([0, 1, 2], [1, 2, 0], 3, weights=[1.0, 2.0, 3.0])
        assert a.shape == (3, 3)
        assert a.nnz == 3
        assert a.is_base_graph
        dense = to_dense(a)
        assert dense[0, 1] == 1.0 and dense[2, 0] == 3.0

    def test_row_column_convention(self):
        # Edge u -> v lives at A[u, v]: column v holds v's in-edges.
        a = from_edges([5, 7], [1, 1], 10)
        col = a[:, np.array([1])]
        np.testing.assert_array_equal(np.sort(col.row()), [5, 7])

    def test_id_map_length_checked(self):
        coo = COO(rows=[0], cols=[0], values=None, shape=(2, 2))
        with pytest.raises(ShapeError):
            Matrix(coo, row_ids=np.array([1, 2, 3]))

    def test_layout_caching(self, small_graph):
        assert small_graph.available_layouts == ("csc",)
        small_graph.get("coo")
        assert "coo" in small_graph.available_layouts
        with pytest.raises(FormatError):
            small_graph.get("dense")


class TestExtract:
    def test_getitem_columns(self, small_graph):
        f = np.array([4, 9, 2])
        sub = small_graph[:, f]
        assert sub.shape == (200, 3)
        np.testing.assert_array_equal(sub.column(), f)
        np.testing.assert_allclose(
            to_dense(sub), to_dense(small_graph)[:, f], rtol=1e-6
        )

    def test_getitem_rows(self, small_graph):
        r = np.array([0, 100])
        sub = small_graph[r, :]
        assert sub.shape == (2, 200)
        np.testing.assert_allclose(
            to_dense(sub), to_dense(small_graph)[r, :], rtol=1e-6
        )

    def test_getitem_both(self, small_graph):
        nodes = np.array([1, 2, 3])
        sub = small_graph[nodes, nodes]
        np.testing.assert_allclose(
            to_dense(sub), to_dense(small_graph)[np.ix_(nodes, nodes)], rtol=1e-6
        )

    def test_full_slice_returns_self(self, small_graph):
        assert small_graph[:, :] is small_graph

    def test_nested_slicing_tracks_global_ids(self, small_graph):
        f1 = np.array([10, 20, 30])
        sub = small_graph[:, f1]
        sub2 = sub[:, np.array([2, 0])]
        np.testing.assert_array_equal(sub2.column(), [30, 10])

    def test_bad_key_rejected(self, small_graph):
        with pytest.raises(ShapeError):
            small_graph[np.array([0])]


class TestCompute:
    def test_scalar_arithmetic(self, small_graph):
        dense = to_dense(small_graph)
        mask = dense != 0
        np.testing.assert_allclose(
            to_dense(small_graph**2), np.where(mask, dense**2, 0), rtol=1e-5
        )
        np.testing.assert_allclose(
            to_dense(small_graph * 3), dense * 3, rtol=1e-5
        )
        np.testing.assert_allclose(
            to_dense((small_graph + 1)), np.where(mask, dense + 1, 0), rtol=1e-5
        )

    def test_matrix_combine(self, small_graph):
        out = small_graph * (small_graph * 2)
        np.testing.assert_allclose(
            to_dense(out), 2 * to_dense(small_graph) ** 2, rtol=1e-5
        )

    def test_reduce_axes(self, small_graph):
        dense = to_dense(small_graph)
        np.testing.assert_allclose(
            small_graph.sum(axis=0), dense.sum(axis=1), rtol=1e-4
        )
        np.testing.assert_allclose(
            small_graph.sum(axis=1), dense.sum(axis=0), rtol=1e-4
        )
        with pytest.raises(ShapeError):
            small_graph.sum(axis=2)

    def test_broadcast_div_normalizes_columns(self, small_graph):
        col_sums = small_graph.sum(axis=1)
        normalized = small_graph.div(col_sums, axis=1)
        np.testing.assert_allclose(
            normalized.sum(axis=1),
            np.where(col_sums > 0, 1.0, 0.0),
            atol=1e-5,
        )

    def test_matmul(self, small_graph, rng):
        d = rng.random((200, 8)).astype(np.float32)
        np.testing.assert_allclose(
            small_graph @ d, to_dense(small_graph) @ d, rtol=1e-3
        )

    def test_unary_chain(self, small_graph):
        out = small_graph.log().exp()
        np.testing.assert_allclose(
            to_dense(out), to_dense(small_graph), rtol=1e-4
        )

    def test_with_values(self, small_graph):
        ones = np.ones(small_graph.nnz, dtype=np.float32)
        out = small_graph.with_values(ones)
        assert out.nnz == small_graph.nnz
        np.testing.assert_array_equal(edge_values(out.any_storage()), ones)
        with pytest.raises(ShapeError):
            small_graph.with_values(np.ones(3))


class TestSelectAndFinalize:
    def test_individual_sample_api(self, small_graph, rng):
        f = np.array([1, 2, 3, 4])
        sub = small_graph[:, f]
        sampled = sub.individual_sample(2, rng=rng)
        assert sampled.nnz <= 8
        np.testing.assert_array_equal(sampled.column(), f)

    def test_collective_sample_sets_row_ids(self, small_graph, rng):
        f = np.arange(20)
        sub = small_graph[:, f]
        sampled = sub.collective_sample(5, rng=rng)
        assert sampled.shape[0] == 5
        np.testing.assert_array_equal(sampled.row(), sampled.row_ids)

    def test_row_returns_occupied_globals(self, small_graph):
        f = np.array([7])
        sub = small_graph[:, f]
        expected = np.flatnonzero(to_dense(small_graph)[:, 7])
        np.testing.assert_array_equal(np.sort(sub.row()), expected)

    def test_compact_rows(self, small_graph):
        f = np.array([3, 8])
        sub = small_graph[:, f]
        compacted = sub.compact(axis=0)
        assert compacted.shape[0] == len(compacted.row_ids)
        assert compacted.nnz == sub.nnz
        np.testing.assert_array_equal(compacted.row(), np.sort(sub.row()))

    def test_to_coo_arrays_global_ids(self, small_graph, rng):
        f = np.array([11, 13])
        sub = small_graph[:, f].individual_sample(3, rng=rng)
        rows, cols, vals = sub.to_coo_arrays()
        assert set(cols) <= {11, 13}
        dense = to_dense(small_graph)
        for r, c, v in zip(rows, cols, vals):
            assert dense[r, c] == pytest.approx(float(v), rel=1e-5)


# ----------------------------------------------------------------------
# Eager == compiled == oracle, per operator
# ----------------------------------------------------------------------
_FRONTIERS = np.array([1, 4, 7, 10, 13, 16])
_WEIGHTS = np.linspace(0.5, 2.0, len(_FRONTIERS)).astype(np.float32)


def _col_sums(A, f):
    return A[:, f].sum(axis=1)


#: One program per Table-4 operator, over ``A``, the frontiers ``f`` and a
#: dense ``X`` with one row per frontier.
_PROGRAMS = {
    "A @ X": lambda A, f, X: A[:, f] @ X,
    "A[rows, :]": lambda A, f, X: A[f, :],
    "compact": lambda A, f, X: A[:, f].compact(),
    "lifted constant": lambda A, f, X: A[:, f].mul(_WEIGHTS, axis=1),
    "column": lambda A, f, X: A[:, f].column(),
    "tensor sum": lambda A, f, X: _col_sums(A, f).sum(),
    "add": lambda A, f, X: A[:, f].add(_col_sums(A, f), axis=1),
    "sub": lambda A, f, X: A[:, f].sub(_col_sums(A, f), axis=1),
    "mul": lambda A, f, X: A[:, f].mul(_col_sums(A, f), axis=1),
    "mean": lambda A, f, X: A[:, f].mean(axis=1),
    "max": lambda A, f, X: A[:, f].max(axis=1),
    "min": lambda A, f, X: A[:, f].min(axis=1),
    "relu": lambda A, f, X: (A[:, f] - 0.5).relu(),
    "exp": lambda A, f, X: (A[:, f] / 4.0).exp(),
    "log": lambda A, f, X: (2.0 * A[:, f]).log(),
    "reflected tensor operators": lambda A, f, X: (
        1.0 + _col_sums(A, f),
        2.0 * _col_sums(A, f),
        3.0 - _col_sums(A, f),
        1.0 / _col_sums(A, f),
        _col_sums(A, f) / 2.0,
    ),
}


def _flat(value) -> list[np.ndarray]:
    if isinstance(value, tuple):
        return [part for item in value for part in _flat(item)]
    if isinstance(value, Matrix):
        return [to_dense(value)]
    return [np.asarray(value, dtype=np.float64)]


class TestEagerCompiledOracle:
    """Each operator gives one answer three ways: eagerly on ``Matrix``,
    traced and compiled with every pass on, and through the eager
    oracle's reference handlers."""

    @pytest.fixture(scope="class")
    def graph(self):
        rng = np.random.default_rng(11)
        n = 20
        src = np.concatenate([np.roll(np.arange(n), 1), rng.integers(0, n, 80)])
        dst = np.concatenate([np.arange(n), rng.integers(0, n, 80)])
        keys = np.unique(src * n + dst)
        weights = (rng.random(len(keys)) + 0.1).astype(np.float32)
        return from_edges(keys // n, keys % n, n, weights=weights)

    @pytest.mark.parametrize("name", list(_PROGRAMS))
    def test_three_ways_agree(self, name, graph):
        from repro.sampler import compile_sampler
        from repro.verify import trace_oracle

        program = _PROGRAMS[name]
        tensors = {"X": np.arange(18, dtype=np.float32).reshape(6, 3) / 10}
        eager = program(graph, _FRONTIERS, **tensors)
        compiled = compile_sampler(
            program, graph, _FRONTIERS, tensors=tensors, debug=True
        ).run(_FRONTIERS, tensors=tensors)
        oracle = trace_oracle(program, graph, _FRONTIERS, tensors=tensors).run(
            _FRONTIERS, tensors=tensors
        )
        for got in (compiled, oracle):
            for want, part in zip(_flat(eager), _flat(got), strict=True):
                np.testing.assert_allclose(part, want, rtol=1e-6)
