"""Kernel tests against the dense oracle: slicing, maps, reduces, SpMM."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import CPU, ExecutionContext
from repro.errors import ShapeError
from repro.sparse import (
    convert,
    edge_endpoints,
    edge_values,
    fused_map_chain,
    fused_map_reduce,
    map_edges_broadcast,
    map_edges_combine,
    map_edges_scalar,
    map_edges_unary,
    reduce_cols,
    reduce_rows,
    scatter_add,
    sddmm_dot,
    slice_columns,
    slice_rows,
    spmm,
)

from tests.conftest import random_coo, to_dense


@pytest.mark.parametrize("layout", ["coo", "csr", "csc"])
class TestSlicing:
    def test_slice_columns_matches_dense(self, rng, layout):
        coo = random_coo(rng, rows=15, cols=12, nnz=70)
        matrix = convert(coo, layout)
        cols = np.array([3, 0, 7, 7, 11])
        out = slice_columns(matrix, cols)
        assert out.layout == layout
        assert out.shape == (15, 5)
        np.testing.assert_allclose(
            to_dense(out), to_dense(coo)[:, cols], rtol=1e-6
        )

    def test_slice_rows_matches_dense(self, rng, layout):
        coo = random_coo(rng, rows=15, cols=12, nnz=70)
        matrix = convert(coo, layout)
        rows = np.array([1, 1, 14, 0])
        out = slice_rows(matrix, rows)
        assert out.shape == (4, 12)
        np.testing.assert_allclose(
            to_dense(out), to_dense(coo)[rows, :], rtol=1e-6
        )

    def test_empty_selection(self, rng, layout):
        coo = random_coo(rng)
        matrix = convert(coo, layout)
        out = slice_columns(matrix, np.array([], dtype=np.int64))
        assert out.shape == (coo.shape[0], 0)
        assert out.nnz == 0

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("offset", [-1, -2, 0, 2])
    def test_out_of_range_ids_are_refused(self, rng, layout, axis, offset):
        """Same typed error on every layout and axis, and no launch: before,
        negative ids wrapped on CSC/CSR-native slices, ``n`` raised a raw
        IndexError there, and COO / cross-axis slices returned empty."""
        matrix = convert(random_coo(rng), layout)
        bad = offset if offset < 0 else matrix.shape[axis] + offset
        ctx = ExecutionContext(CPU)
        with pytest.raises(ShapeError, match="is outside"):
            (slice_rows, slice_columns)[axis](matrix, np.array([0, bad]), ctx)
        assert ctx.launches == []


@pytest.mark.parametrize("layout", ["coo", "csr", "csc"])
class TestEdgeMaps:
    def test_scalar_ops(self, rng, layout):
        matrix = convert(random_coo(rng), layout)
        dense = to_dense(matrix)
        mask = dense != 0
        for op, fn in [
            ("add", lambda x: x + 2), ("sub", lambda x: x - 2),
            ("mul", lambda x: x * 2), ("div", lambda x: x / 2),
            ("pow", lambda x: x**2),
        ]:
            out = map_edges_scalar(matrix, op, 2.0)
            expected = np.where(mask, fn(dense), 0.0)
            np.testing.assert_allclose(to_dense(out), expected, rtol=1e-5)

    def test_reverse_scalar(self, rng, layout):
        matrix = convert(random_coo(rng), layout)
        dense = to_dense(matrix)
        mask = dense != 0
        out = map_edges_scalar(matrix, "div", 1.0, reverse=True)
        expected = np.where(
            mask, np.divide(1.0, dense, where=mask, out=np.zeros_like(dense)), 0.0
        )
        np.testing.assert_allclose(to_dense(out), expected, rtol=1e-5)

    def test_unary_ops(self, rng, layout):
        matrix = convert(random_coo(rng), layout)
        dense = to_dense(matrix)
        mask = dense != 0
        out = map_edges_unary(matrix, "sqrt")
        np.testing.assert_allclose(
            to_dense(out), np.where(mask, np.sqrt(np.abs(dense)), 0.0), rtol=1e-5
        )

    def test_broadcast_rows(self, rng, layout):
        matrix = convert(random_coo(rng, rows=10, cols=8, nnz=40), layout)
        vec = (rng.random(10) + 0.5).astype(np.float32)
        dense = to_dense(matrix)
        mask = dense != 0
        out = map_edges_broadcast(matrix, "mul", vec, axis=0)
        np.testing.assert_allclose(
            to_dense(out), dense * np.where(mask, vec[:, None], 0), rtol=1e-5
        )

    def test_broadcast_cols(self, rng, layout):
        matrix = convert(random_coo(rng, rows=10, cols=8, nnz=40), layout)
        vec = (rng.random(8) + 0.5).astype(np.float32)
        dense = to_dense(matrix)
        out = map_edges_broadcast(matrix, "div", vec, axis=1)
        expected = np.where(dense != 0, dense / vec[None, :], 0.0)
        np.testing.assert_allclose(to_dense(out), expected, rtol=1e-5)

    def test_broadcast_shape_checked(self, rng, layout):
        matrix = convert(random_coo(rng, rows=10, cols=8, nnz=40), layout)
        with pytest.raises(ShapeError):
            map_edges_broadcast(matrix, "mul", np.ones(3), axis=0)

    def test_combine_same_topology(self, rng, layout):
        matrix = convert(random_coo(rng), layout)
        doubled = map_edges_scalar(matrix, "mul", 2.0)
        out = map_edges_combine(matrix, "add", doubled)
        np.testing.assert_allclose(to_dense(out), 3 * to_dense(matrix), rtol=1e-5)


@pytest.mark.parametrize("layout", ["coo", "csr", "csc"])
@pytest.mark.parametrize("op", ["sum", "mean", "max", "min"])
class TestReduce:
    def test_reduce_rows(self, rng, layout, op):
        coo = random_coo(rng, rows=9, cols=7, nnz=30)
        matrix = convert(coo, layout)
        out = reduce_rows(matrix, op)
        dense = to_dense(coo)
        for i in range(9):
            vals = dense[i][dense[i] != 0]
            if len(vals) == 0:
                expected = {"sum": 0.0, "mean": 0.0, "max": -np.inf, "min": np.inf}[op]
            else:
                expected = getattr(np, op)(vals)
            assert out[i] == pytest.approx(expected, rel=1e-5), (op, i)

    def test_reduce_cols(self, rng, layout, op):
        coo = random_coo(rng, rows=9, cols=7, nnz=30)
        matrix = convert(coo, layout)
        out = reduce_cols(matrix, op)
        dense = to_dense(coo)
        for j in range(7):
            vals = dense[:, j][dense[:, j] != 0]
            if len(vals) == 0:
                expected = {"sum": 0.0, "mean": 0.0, "max": -np.inf, "min": np.inf}[op]
            else:
                expected = getattr(np, op)(vals)
            assert out[j] == pytest.approx(expected, rel=1e-5), (op, j)


def add_at(groups, values, size):
    """The unbuffered scatter ``scatter_add`` replaced, kept as its oracle."""
    values = np.asarray(values)
    out = np.zeros((size,) + values.shape[1:], dtype=np.float64)
    np.add.at(out, groups, values)
    return out


class TestScatterAdd:
    """``scatter_add`` is ``np.add.at`` into float64 zeros, bit for bit."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        edges=st.integers(0, 300),
        size=st.integers(1, 40),
        tail=st.sampled_from([(), (1,), (3,), (33,), (2, 3)]),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_add_at(self, seed, edges, size, tail, dtype):
        rng = np.random.default_rng(seed)
        # Unsorted, repeated, and (``high < size``) with the top ids absent.
        groups = rng.integers(0, rng.integers(1, size + 1), edges)
        values = (rng.standard_normal((edges, *tail)) * 1e3).astype(dtype)
        out = scatter_add(groups, values, size)
        assert out.dtype == np.float64 and out.shape == (size, *tail)
        assert np.array_equal(out, add_at(groups, values, size))

    def test_column_blocks_equal_one_pass(self, rng):
        # 9000 x 130 > 2**20 flat bins: two column blocks, the last narrower.
        groups = rng.integers(0, 700, 9000)
        values = rng.standard_normal((9000, 130))
        assert np.array_equal(
            scatter_add(groups, values, 800), add_at(groups, values, 800)
        )

    def test_nan_stays_in_its_group(self):
        out = scatter_add(np.array([1, 0, 1]), np.array([1.0, np.nan, 2.0]), 3)
        assert np.isnan(out[0]) and out[1] == 3.0 and out[2] == 0.0

    @pytest.mark.parametrize("bad", [[0, 3], [-1, 0]])
    def test_group_outside_size_refused(self, bad):
        with pytest.raises(ShapeError, match="outside"):
            scatter_add(np.array(bad), np.ones((2, 4)), 3)

    def test_one_value_row_per_group(self):
        with pytest.raises(ShapeError, match="one value row per group"):
            scatter_add(np.array([0, 1]), np.ones((3, 4)), 3)


class TestDenseInteraction:
    @given(
        seed=st.integers(0, 2**31 - 1),
        nnz=st.integers(0, 60),
        k=st.sampled_from([None, 1, 5]),
        layout=st.sampled_from(["coo", "csr", "csc"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_spmm_equals_add_at(self, seed, nnz, k, layout):
        rng = np.random.default_rng(seed)
        matrix = convert(random_coo(rng, rows=9, cols=6, nnz=nnz, unique=False), layout)
        dense = rng.standard_normal(6 if k is None else (6, k)).astype(np.float32)
        rows, cols = edge_endpoints(matrix)
        vals = edge_values(matrix).astype(np.float64)
        products = vals * dense[cols] if k is None else vals[:, None] * dense[cols]
        expected = add_at(rows, products, 9).astype(np.float32)
        assert np.array_equal(spmm(matrix, dense), expected)

    def test_spmm_matches_dense(self, rng):
        coo = random_coo(rng, rows=10, cols=6, nnz=30)
        d = rng.random((6, 4)).astype(np.float32)
        out = spmm(coo, d)
        np.testing.assert_allclose(out, to_dense(coo) @ d, rtol=1e-4)

    def test_spmm_vector(self, rng):
        coo = random_coo(rng, rows=10, cols=6, nnz=30)
        v = rng.random(6).astype(np.float32)
        out = spmm(coo, v)
        assert out.shape == (10,)
        np.testing.assert_allclose(out, to_dense(coo) @ v, rtol=1e-4)

    def test_spmm_shape_checked(self, rng):
        with pytest.raises(ShapeError):
            spmm(random_coo(rng, rows=5, cols=3, nnz=5), np.ones((4, 2)))

    def test_sddmm_dot(self, rng):
        coo = random_coo(rng, rows=8, cols=5, nnz=20)
        bf = rng.random((8, 3)).astype(np.float32)
        cf = rng.random((5, 3)).astype(np.float32)
        out = sddmm_dot(coo, bf, cf)
        rows, cols = edge_endpoints(out)
        for r, c, v in zip(rows, cols, edge_values(out)):
            assert v == pytest.approx(float(bf[r] @ cf[c]), rel=1e-4)


class TestFusedKernels:
    def test_fused_map_chain_equals_sequential(self, rng):
        matrix = random_coo(rng, rows=10, cols=8, nnz=40)
        vec = (rng.random(10) + 0.5).astype(np.float32)
        fused = fused_map_chain(
            matrix,
            [("pow", 2.0, None), ("mul", vec, 0), ("relu", None, None)],
        )
        step1 = map_edges_scalar(matrix, "pow", 2.0)
        step2 = map_edges_broadcast(step1, "mul", vec, axis=0)
        step3 = map_edges_unary(step2, "relu")
        np.testing.assert_allclose(to_dense(fused), to_dense(step3), rtol=1e-5)

    def test_fused_map_reduce_equals_sequential(self, rng):
        matrix = random_coo(rng, rows=10, cols=8, nnz=40)
        fused = fused_map_reduce(matrix, [("pow", 2.0, None)], "sum", 0)
        expected = reduce_rows(map_edges_scalar(matrix, "pow", 2.0), "sum")
        np.testing.assert_allclose(fused, expected, rtol=1e-5)

    def test_fused_matrix_operand(self, rng):
        matrix = random_coo(rng)
        other = map_edges_scalar(matrix, "mul", 3.0)
        fused = fused_map_chain(matrix, [("add", other, -1)])
        np.testing.assert_allclose(to_dense(fused), 4 * to_dense(matrix), rtol=1e-5)

    @given(st.integers(0, 2**31 - 1), st.sampled_from(["sum", "max", "mean"]))
    @settings(max_examples=25, deadline=None)
    def test_fused_reduce_property(self, seed, op):
        rng = np.random.default_rng(seed)
        matrix = random_coo(rng, rows=6, cols=5, nnz=rng.integers(0, 25))
        fused = fused_map_reduce(matrix, [("mul", 2.0, None)], op, 1)
        sequential = reduce_cols(map_edges_scalar(matrix, "mul", 2.0), op)
        np.testing.assert_allclose(fused, sequential, rtol=1e-5)
