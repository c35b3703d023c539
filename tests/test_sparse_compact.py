"""Compaction tests: isolated-node removal and id bookkeeping."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.sparse import (
    COO,
    CSC,
    CSR,
    INDEX_DTYPE,
    compact_cols,
    compact_rows,
    convert,
    occupied_cols,
    occupied_rows,
)
from repro.sparse.compact import _relabel
from repro.sparse.formats import _indptr_from_counts, _take

from tests.conftest import random_coo, to_dense


@pytest.fixture
def sparse_rows_coo():
    """A matrix whose rows 0, 3, 9 are the only occupied ones."""
    return COO(
        rows=[0, 3, 3, 9],
        cols=[1, 0, 2, 1],
        values=[1.0, 2.0, 3.0, 4.0],
        shape=(10, 3),
    )


@pytest.mark.parametrize("layout", ["coo", "csr", "csc"])
def test_occupied_rows(sparse_rows_coo, layout):
    matrix = convert(sparse_rows_coo, layout)
    np.testing.assert_array_equal(occupied_rows(matrix), [0, 3, 9])


@pytest.mark.parametrize("layout", ["coo", "csr", "csc"])
def test_occupied_cols(layout):
    coo = COO(rows=[0, 1], cols=[4, 2], values=None, shape=(3, 6))
    matrix = convert(coo, layout)
    np.testing.assert_array_equal(occupied_cols(matrix), [2, 4])


@pytest.mark.parametrize("layout", ["coo", "csr", "csc"])
def test_compact_rows_removes_isolated(sparse_rows_coo, layout):
    matrix = convert(sparse_rows_coo, layout)
    result = compact_rows(matrix)
    assert result.matrix.shape == (3, 3)
    np.testing.assert_array_equal(result.row_ids, [0, 3, 9])
    dense = to_dense(sparse_rows_coo)
    np.testing.assert_allclose(to_dense(result.matrix), dense[[0, 3, 9]], rtol=1e-6)


@pytest.mark.parametrize("layout", ["coo", "csr", "csc"])
def test_compact_cols_removes_isolated(layout):
    coo = COO(rows=[0, 1], cols=[4, 2], values=[1.0, 2.0], shape=(3, 6))
    matrix = convert(coo, layout)
    result = compact_cols(matrix)
    assert result.matrix.shape == (3, 2)
    np.testing.assert_array_equal(result.col_ids, [2, 4])
    np.testing.assert_allclose(
        to_dense(result.matrix), to_dense(coo)[:, [2, 4]], rtol=1e-6
    )


def test_compact_with_explicit_keep_rows(sparse_rows_coo):
    result = compact_rows(sparse_rows_coo, keep_rows=np.array([3, 9]))
    assert result.matrix.shape == (2, 3)
    np.testing.assert_allclose(
        to_dense(result.matrix), to_dense(sparse_rows_coo)[[3, 9]], rtol=1e-6
    )


def test_compact_preserves_edge_ids(rng):
    coo = random_coo(rng, rows=30, cols=5, nnz=20)
    coo.edge_ids = np.arange(coo.nnz) + 100
    result = compact_rows(coo)
    assert result.matrix.edge_ids is not None
    assert set(result.matrix.edge_ids) <= set(coo.edge_ids)
    assert result.matrix.nnz == coo.nnz  # compaction drops no edges


def test_compact_empty_matrix():
    empty = COO(rows=[], cols=[], values=None, shape=(5, 4))
    result = compact_rows(empty)
    assert result.matrix.shape == (0, 4)
    assert len(result.row_ids) == 0


# ----------------------------------------------------------------------
# The boolean-mask ``_relabel`` this module had until the index-list
# rewrite, kept verbatim as the oracle: same container, same arrays.
# ----------------------------------------------------------------------
def _masked_relabel(matrix, keep, axis):
    lut = np.full(matrix.shape[axis], -1, dtype=INDEX_DTYPE)
    lut[keep] = np.arange(len(keep), dtype=INDEX_DTYPE)
    shape = (len(keep), matrix.shape[1]) if axis == 0 else (matrix.shape[0], len(keep))
    if isinstance(matrix, COO):
        index = [matrix.rows, matrix.cols]
        index[axis] = lut[index[axis]]
        mask = index[axis] >= 0
        return COO(
            index[0][mask],
            index[1][mask],
            _take(matrix.values, mask),
            shape,
            _take(matrix.edge_ids, mask),
        )
    if not isinstance(matrix, (CSR, CSC)):
        raise FormatError(f"unknown sparse container {type(matrix).__name__}")
    new_minor = lut[matrix.minor]
    mask = new_minor >= 0
    # The running count of survivors, read at the old segment boundaries,
    # is the new pointer.
    survivors = _indptr_from_counts(mask)
    return type(matrix)(
        survivors[matrix.indptr],
        new_minor[mask],
        _take(matrix.values, mask),
        shape,
        _take(matrix.edge_ids, mask),
    )


@st.composite
def _relabel_cases(draw):
    shape = (draw(st.integers(0, 7)), draw(st.integers(0, 7)))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, max(shape[0] - 1, 0)),
                      st.integers(0, max(shape[1] - 1, 0))),
            max_size=30 if min(shape) else 0,
        )
    )
    rows = np.array([p[0] for p in pairs], dtype=INDEX_DTYPE)
    cols = np.array([p[1] for p in pairs], dtype=INDEX_DTYPE)
    values = (
        np.arange(len(pairs), dtype=np.float32) + 0.5
        if draw(st.booleans()) else None
    )
    coo = COO(rows, cols, values, shape)
    matrix = convert(coo, draw(st.sampled_from(["coo", "csr", "csc"])))
    edge_ids = np.arange(matrix.nnz, dtype=INDEX_DTYPE)[::-1] + 7
    matrix = dataclasses.replace(
        matrix, edge_ids=edge_ids if draw(st.booleans()) else None
    )
    # Along a compressed axis compaction is a slice, never ``_relabel``.
    axis = draw(st.integers(0, 1)) if matrix.axis is None else 1 - matrix.axis
    extent = shape[axis]
    kind = draw(st.sampled_from(["empty", "all", "subset"]))
    if kind == "empty":
        keep = np.empty(0, dtype=INDEX_DTYPE)
    elif kind == "all":
        keep = np.arange(extent, dtype=INDEX_DTYPE)
    else:
        chosen = draw(st.lists(st.booleans(), min_size=extent, max_size=extent))
        keep = np.flatnonzero(chosen).astype(INDEX_DTYPE)
    return matrix, keep, axis


@given(_relabel_cases())
@settings(max_examples=300, deadline=None)
def test_relabel_matches_the_masked_oracle(case):
    """One index list of survivors gathers what three boolean masks and a
    nnz-long cumsum did: same container type, shape and arrays, dtype
    included — COO on either axis, CSR / CSC across their compressed one,
    empty / full / partial keep sets, with and without values and ids."""
    matrix, keep, axis = case
    got = _relabel(matrix, keep, axis)
    want = _masked_relabel(matrix, keep, axis)
    assert type(got) is type(want) and got.shape == want.shape
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "shape" or b is None:
            assert a == b
            continue
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype
