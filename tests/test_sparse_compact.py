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
from repro.sparse import kernels
from repro.sparse.compact import _relabel
from repro.sparse.formats import (
    VALUE_DTYPE,
    _AXES,
    _Compressed,
    _indptr_from_counts,
    _take,
    edge_values,
    sorted_unique,
)

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


# ----------------------------------------------------------------------
# Occupancy and the cross-axis reduce read a compressed matrix's
# ``minor`` array instead of expanding its pointer, yet charge the same
# ``expand_indptr`` launch.  The older bodies, verbatim, are the oracle.
# ----------------------------------------------------------------------
def _older_occupied(matrix, axis, ctx):
    if matrix.axis == axis:
        out = np.flatnonzero(matrix._degrees() > 0).astype(INDEX_DTYPE)
        read = matrix.indptr.nbytes
        work = flops = matrix.shape[axis]  # one pointer entry per lane
    else:
        ids = kernels.edge_endpoints(matrix, ctx)[axis]
        out = sorted_unique(ids, matrix.shape[axis])
        read = ids.nbytes
        work = matrix.nnz  # one edge per lane, sorted
        flops = max(work, 1) * max(1.0, np.log2(max(work, 2)))
    ctx.record(
        f"occupied_{_AXES[axis]}",
        bytes_read=read,
        bytes_written=out.nbytes,
        flops=flops,
        tasks=max(work, 1),
    )
    return out


def _older_reduce(matrix, op, axis, ctx):
    if op not in ("sum", "mean", "max", "min"):
        raise FormatError(f"unknown reduce op {op!r}")
    vals = edge_values(matrix)
    extent = matrix.shape[axis]
    along = matrix.axis == axis
    prefix_sums = (
        along and op in ("sum", "mean") and bool(np.all(np.isfinite(vals)))
    )
    if not prefix_sums:
        groups = (
            matrix._expand() if along else kernels.edge_endpoints(matrix, ctx)[axis]
        )
    if op in ("sum", "mean"):
        if prefix_sums:
            csum = np.zeros(len(vals) + 1, dtype=np.float64)
            np.cumsum(vals, dtype=np.float64, out=csum[1:])
            out = csum[matrix.indptr[1:]] - csum[matrix.indptr[:-1]]
        else:
            out = np.bincount(
                groups, weights=vals.astype(np.float64), minlength=extent
            )
        if op == "mean":
            counts = (
                matrix._degrees() if along else np.bincount(groups, minlength=extent)
            )
            with np.errstate(invalid="ignore", divide="ignore"):
                out = out / counts
            out[counts == 0] = 0.0
        out = out.astype(VALUE_DTYPE)
    else:
        out = np.full(extent, -np.inf if op == "max" else np.inf, dtype=VALUE_DTYPE)
        (np.maximum if op == "max" else np.minimum).at(out, groups, vals)
    factor = 1.0 if along else 2.0  # scatter with atomics
    ctx.record(
        f"edge_reduce_{_AXES[axis]}_{op}",
        bytes_read=(vals.nbytes + matrix.nnz * kernels._ITEM) * factor,
        bytes_written=extent * kernels._VAL,
        flops=matrix.nnz * factor,
        tasks=max(matrix.nnz, 1),
    )
    return out


def _occupancy_calls():
    """``(name, new call, older call)`` for every call the tripwire runs:
    both occupancies on either layout, and each reduce across the axis
    the pointer compresses."""
    calls = [
        ("occupied_rows", occupied_rows, lambda m, ctx: _older_occupied(m, 0, ctx)),
        ("occupied_cols", occupied_cols, lambda m, ctx: _older_occupied(m, 1, ctx)),
    ]
    for op in ("sum", "mean", "max", "min"):
        calls.append((
            f"cross-axis reduce {op}",
            lambda m, ctx, op=op: kernels._reduce(m, op, 1 - m.axis, ctx),
            lambda m, ctx, op=op: _older_reduce(m, op, 1 - m.axis, ctx),
        ))
    return calls


@pytest.mark.parametrize("layout", ["csr", "csc"])
@pytest.mark.parametrize(
    ("name", "call", "older"),
    _occupancy_calls(),
    ids=[name for name, _, _ in _occupancy_calls()],
)
@pytest.mark.parametrize("empty", [False, True])
def test_occupancy_reads_minor_without_expanding(
    layout, name, call, older, empty, rng, monkeypatch
):
    """``row()``, ``col()`` and a cross-axis reduce never decompress the
    pointer on the host, and leave the older code's result and ledger:
    the device still pays ``expand_indptr``, ``nnz * 8`` bytes written."""
    from repro.device import V100, ExecutionContext

    nnz = 0 if empty else 90
    matrix = convert(random_coo(rng, rows=40, cols=25, nnz=nnz), layout)
    want_ctx = ExecutionContext(V100)
    want = older(matrix, want_ctx)

    def refuse(self):
        raise AssertionError("expanded the pointer")

    monkeypatch.setattr(_Compressed, "_expand", refuse)
    got_ctx = ExecutionContext(V100)
    got = call(matrix, got_ctx)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert [tuple(l) for l in got_ctx.launches] == [
        tuple(l) for l in want_ctx.launches
    ]
