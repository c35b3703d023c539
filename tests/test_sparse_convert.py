"""Format conversion tests: all six directions preserve the matrix."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import CPU, ExecutionContext
from repro.errors import FormatError
from repro.sparse import COO, convert, to_csc

from tests.conftest import random_coo, to_dense


@pytest.mark.parametrize("target", ["coo", "csr", "csc"])
@pytest.mark.parametrize("source", ["coo", "csr", "csc"])
def test_all_direction_round_trips(rng, source, target):
    coo = random_coo(rng, rows=12, cols=9, nnz=40)
    src = convert(coo, source)
    dst = convert(src, target)
    assert dst.layout == target
    np.testing.assert_allclose(to_dense(dst), to_dense(coo), rtol=1e-6)


def test_conversion_preserves_edge_ids(rng):
    coo = random_coo(rng)
    coo.edge_ids = np.arange(coo.nnz)
    csr = convert(coo, "csr")
    back = convert(csr, "coo")
    # Each edge id must still label the same (row, col, value) triple.
    orig = {
        (int(r), int(c)): int(e)
        for r, c, e in zip(coo.rows, coo.cols, coo.edge_ids)
    }
    for r, c, e in zip(back.rows, back.cols, back.edge_ids):
        assert orig[(int(r), int(c))] == int(e)


def test_conversion_preserves_values_alignment(rng):
    coo = random_coo(rng)
    csc = to_csc(coo)
    orig = {
        (int(r), int(c)): float(v)
        for r, c, v in zip(coo.rows, coo.cols, coo.values)
    }
    back = convert(csc, "coo")
    for r, c, v in zip(back.rows, back.cols, back.values):
        assert orig[(int(r), int(c))] == pytest.approx(float(v))


def test_noop_conversion_returns_same_object(rng):
    coo = random_coo(rng)
    assert convert(coo, "coo") is coo


def test_unknown_layout_rejected(rng):
    with pytest.raises(FormatError):
        convert(random_coo(rng), "bsr")


def test_conversion_costs_are_asymmetric(rng):
    """Decompression (csr->coo) must be much cheaper than compression
    (coo->csr), reproducing Table 5's 0.36ms vs 2.40ms asymmetry."""
    coo = random_coo(rng, rows=200, cols=200, nnz=3000)
    ctx_compress = ExecutionContext(CPU)
    convert(coo, "csr", ctx_compress)
    csr = convert(coo, "csr")
    ctx_decompress = ExecutionContext(CPU)
    convert(csr, "coo", ctx_decompress)
    assert ctx_compress.elapsed > 3 * ctx_decompress.elapsed


def test_empty_matrix_conversions():
    empty = COO(rows=[], cols=[], values=None, shape=(5, 7))
    for layout in ("csr", "csc"):
        out = convert(empty, layout)
        assert out.nnz == 0
        assert out.shape == (5, 7)
        round_trip = convert(out, "coo")
        assert round_trip.nnz == 0


@given(
    st.integers(1, 15),
    st.integers(1, 15),
    st.integers(0, 60),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_round_trip_property(n_rows, n_cols, nnz, seed):
    rng = np.random.default_rng(seed)
    coo = random_coo(rng, rows=n_rows, cols=n_cols, nnz=nnz, unique=True)
    for path in (("csr", "csc"), ("csc", "csr"), ("csr", "coo", "csc")):
        cur = coo
        for layout in path:
            cur = convert(cur, layout)
        np.testing.assert_allclose(to_dense(cur), to_dense(coo), rtol=1e-6)
