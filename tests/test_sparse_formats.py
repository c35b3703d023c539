"""Unit tests for the sparse storage containers and gather primitive."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FormatError, ShapeError
from repro.sparse import COO, CSC, CSR, gather_ranges, sorted_unique
from repro.sparse.formats import (
    _UNIQUE_BOUND_RATIO,
    edge_ids_or_identity,
    edge_values,
)

from tests.conftest import random_coo, to_dense


class TestCOO:
    def test_basic_construction(self):
        coo = COO(rows=[0, 1], cols=[1, 2], values=[1.0, 2.0], shape=(3, 3))
        assert coo.nnz == 2
        assert coo.layout == "coo"
        assert coo.shape == (3, 3)

    def test_unweighted_values_are_none(self):
        coo = COO(rows=[0], cols=[0], values=None, shape=(1, 1))
        assert coo.values is None
        np.testing.assert_array_equal(edge_values(coo), [1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            COO(rows=[0, 1], cols=[1], values=None, shape=(3, 3))

    def test_values_length_checked(self):
        with pytest.raises(ShapeError):
            COO(rows=[0, 1], cols=[1, 2], values=[1.0], shape=(3, 3))

    def test_out_of_bounds_edge_rejected(self):
        with pytest.raises(ShapeError):
            COO(rows=[5], cols=[0], values=None, shape=(3, 3))

    def test_nbytes_counts_all_arrays(self):
        coo = COO(
            rows=[0, 1], cols=[1, 2], values=[1.0, 2.0], shape=(3, 3),
            edge_ids=[7, 9],
        )
        assert coo.nbytes() == 2 * 8 + 2 * 8 + 2 * 4 + 2 * 8

    def test_edge_ids_identity_default(self):
        coo = COO(rows=[0, 1, 2], cols=[0, 0, 0], values=None, shape=(3, 1))
        np.testing.assert_array_equal(edge_ids_or_identity(coo), [0, 1, 2])


class TestCSR:
    def test_basic_construction(self):
        csr = CSR(indptr=[0, 2, 2, 3], cols=[0, 1, 2], values=None, shape=(3, 3))
        assert csr.nnz == 3
        np.testing.assert_array_equal(csr.row_degrees(), [2, 0, 1])
        np.testing.assert_array_equal(csr.expand_rows(), [0, 0, 2])

    def test_indptr_length_checked(self):
        with pytest.raises(ShapeError):
            CSR(indptr=[0, 3], cols=[0, 1, 2], values=None, shape=(3, 3))

    def test_indptr_monotone_checked(self):
        with pytest.raises(FormatError):
            CSR(indptr=[0, 2, 1, 3], cols=[0, 1, 2], values=None, shape=(3, 3))

    def test_indptr_terminal_checked(self):
        with pytest.raises(FormatError):
            CSR(indptr=[0, 1, 2, 2], cols=[0, 1, 2], values=None, shape=(3, 3))


class TestCSC:
    def test_basic_construction(self):
        csc = CSC(indptr=[0, 1, 3], rows=[2, 0, 1], values=None, shape=(3, 2))
        assert csc.nnz == 3
        np.testing.assert_array_equal(csc.col_degrees(), [1, 2])
        np.testing.assert_array_equal(csc.expand_cols(), [0, 1, 1])

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            CSC(indptr=[0, 1], rows=[0], values=None, shape=(2, 2))


class TestGatherRanges:
    def test_simple(self):
        out = gather_ranges(np.array([0, 5]), np.array([2, 3]))
        np.testing.assert_array_equal(out, [0, 1, 5, 6, 7])

    def test_empty_segments_interleaved(self):
        out = gather_ranges(np.array([3, 9, 1]), np.array([2, 0, 1]))
        np.testing.assert_array_equal(out, [3, 4, 1])

    def test_all_empty(self):
        out = gather_ranges(np.array([1, 2]), np.array([0, 0]))
        assert len(out) == 0

    def test_leading_empty_segment(self):
        out = gather_ranges(np.array([7, 2]), np.array([0, 3]))
        np.testing.assert_array_equal(out, [2, 3, 4])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            gather_ranges(np.array([0]), np.array([1, 2]))

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 6)), max_size=20))
    # Zero-length runs at both ends and doubled in the middle, ranges
    # that overlap and run backwards.
    @example([(4, 0), (0, 0), (9, 2), (3, 0), (8, 0), (8, 3), (0, 1), (7, 0)])
    @settings(max_examples=60, deadline=None)
    def test_matches_python_reference(self, pairs):
        starts = np.array([p[0] for p in pairs], dtype=np.int64)
        lengths = np.array([p[1] for p in pairs], dtype=np.int64)
        expected = []
        for s, l in pairs:
            expected.extend(range(s, s + l))
        out = gather_ranges(starts, lengths)
        np.testing.assert_array_equal(out, expected)
        assert out.dtype == np.int64


def _assert_same_as_np_unique(ids, bound=None):
    got = sorted_unique(ids, bound)
    want = np.unique(ids)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype


class TestSortedUnique:
    @given(
        st.lists(st.integers(0, 400), max_size=60),
        st.sampled_from([np.int32, np.int64, np.uint8, np.uint32, np.uint64]),
        st.sampled_from(["tight", "none", "flags", "fallback"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_np_unique(self, values, dtype, bound_kind):
        ids = np.array(values, dtype=np.int64).astype(dtype)
        if dtype == np.uint8:
            ids = ids % 200
        top = int(ids.max(initial=0)) + 1
        # On both sides of the fallback threshold, and exactly on it.
        bound = {
            "tight": top,
            "none": None,
            "flags": max(top, _UNIQUE_BOUND_RATIO * len(ids)),
            "fallback": max(top, _UNIQUE_BOUND_RATIO * len(ids) + 1),
        }[bound_kind]
        _assert_same_as_np_unique(ids, bound)

    def test_empty_input(self):
        _assert_same_as_np_unique(np.empty(0, dtype=np.int64))
        _assert_same_as_np_unique(np.empty(0, dtype=np.int32), bound=10)

    def test_non_integer_ids_go_to_np_unique(self):
        _assert_same_as_np_unique(np.array([2.5, 0.5, 2.5, -1.0]))
        _assert_same_as_np_unique(np.array([True, False, True]))

    def test_tiny_gather_over_a_huge_id_space_is_not_o_bound(self):
        # Would allocate 8 TB of flags if it scattered.
        _assert_same_as_np_unique(np.array([7, 3, 7], dtype=np.int64), 1 << 43)
        _assert_same_as_np_unique(np.array([(1 << 62) + 1, 5, 5]))

    @pytest.mark.parametrize(
        "ids, bound",
        [
            ([3, -1, 2], None),  # negative id, with and without a bound
            ([3, -1, 2], 10),
            ([0, 4, 5], 5),  # id == bound
            ([1 << 40], 5),  # ... also where np.unique would take over
            ([[1, 2], [3, 4]], None),  # not 1-D
        ],
    )
    def test_out_of_range_ids_raise_shape_error(self, ids, bound):
        with pytest.raises(ShapeError):
            sorted_unique(np.array(ids), bound)


class TestDenseOracle:
    def test_round_trip_via_dense(self, rng):
        coo = random_coo(rng)
        dense = to_dense(coo)
        assert dense.shape == coo.shape
        assert np.count_nonzero(dense) == coo.nnz
