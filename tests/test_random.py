"""Tests for the sampling RNG utilities: races, alias tables, segments."""

from __future__ import annotations

import inspect
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import random as rnd
from repro.core.random import (
    AliasTable,
    _race_select_counts,
    exponential_race_keys,
    new_rng,
    segmented_race_select,
    segmented_uniform_with_replacement,
    weighted_choice_with_replacement,
    weighted_choice_without_replacement,
)
from repro.errors import ShapeError
from repro.sparse.formats import _indptr_from_counts


class TestExponentialRace:
    def test_zero_weight_never_wins(self):
        rng = new_rng(0)
        weights = np.array([1.0, 0.0, 2.0])
        for _ in range(50):
            keys = exponential_race_keys(weights, rng)
            assert keys[1] == np.inf

    def test_bias_drives_selection_frequency(self):
        rng = new_rng(1)
        weights = np.array([10.0, 1.0])
        wins = sum(
            int(np.argmin(exponential_race_keys(weights, rng)) == 0)
            for _ in range(2000)
        )
        # P(item0 first) = 10/11.
        assert 0.85 < wins / 2000 < 0.97


class TestWeightedChoice:
    def test_without_replacement_unique(self):
        rng = new_rng(2)
        idx = weighted_choice_without_replacement(np.ones(20), 8, rng)
        assert len(idx) == 8
        assert len(np.unique(idx)) == 8

    def test_without_replacement_short_population(self):
        rng = new_rng(3)
        idx = weighted_choice_without_replacement(
            np.array([1.0, 0.0, 2.0]), 5, rng
        )
        assert set(idx) == {0, 2}

    def test_with_replacement_distribution(self):
        rng = new_rng(4)
        idx = weighted_choice_with_replacement(np.array([3.0, 1.0]), 8000, rng)
        frac = (idx == 0).mean()
        assert 0.70 < frac < 0.80

    def test_with_replacement_empty_weights(self):
        rng = new_rng(5)
        assert len(weighted_choice_with_replacement(np.zeros(3), 5, rng)) == 0


class TestAliasTable:
    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            AliasTable.build(np.array([]))

    def test_distribution_matches_weights(self):
        rng = new_rng(6)
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        table = AliasTable.build(weights)
        draws = table.sample(40_000, rng)
        counts = np.bincount(draws, minlength=4) / 40_000
        np.testing.assert_allclose(counts, weights / weights.sum(), atol=0.02)

    def test_degenerate_uniform(self):
        rng = new_rng(7)
        table = AliasTable.build(np.zeros(3))
        draws = table.sample(3000, rng)
        counts = np.bincount(draws, minlength=3) / 3000
        np.testing.assert_allclose(counts, [1 / 3] * 3, atol=0.05)


class TestSegmentedUniform:
    def test_offsets_within_segments(self):
        rng = new_rng(8)
        lengths = np.array([3, 0, 7, 1])
        seg, off = segmented_uniform_with_replacement(lengths, 5, rng)
        assert set(np.unique(seg)) <= {0, 2, 3}
        assert np.all(off < lengths[seg])
        assert np.all(off >= 0)

    def test_counts_per_segment(self):
        rng = new_rng(9)
        lengths = np.array([2, 5])
        seg, _ = segmented_uniform_with_replacement(lengths, 4, rng)
        counts = np.bincount(seg, minlength=2)
        np.testing.assert_array_equal(counts, [4, 4])


class TestSegmentedRaceSelect:
    def test_selects_k_smallest_per_segment(self):
        keys = np.array([0.5, 0.1, 0.9, 0.3, 0.2, 0.8])
        indptr = np.array([0, 3, 6])
        picks = segmented_race_select(keys, indptr, 2)
        assert sorted(picks[:2]) == [0, 1]
        assert sorted(picks[2:]) == [3, 4]

    def test_infinite_keys_excluded(self):
        keys = np.array([np.inf, 0.1, np.inf])
        indptr = np.array([0, 3])
        picks = segmented_race_select(keys, indptr, 3)
        np.testing.assert_array_equal(picks, [1])

    def test_per_segment_k(self):
        keys = np.linspace(0, 1, 6)
        indptr = np.array([0, 3, 6])
        picks = segmented_race_select(keys, indptr, np.array([1, 2]))
        assert len(picks) == 3

    def test_key_length_checked(self):
        with pytest.raises(ShapeError):
            segmented_race_select(np.ones(3), np.array([0, 2]), 1)

    @given(
        st.lists(st.integers(0, 8), min_size=1, max_size=10),
        st.integers(1, 5),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_picks_grouped_and_bounded(self, seg_lengths, k, seed):
        rng = np.random.default_rng(seed)
        lengths = np.array(seg_lengths, dtype=np.int64)
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        keys = rng.random(int(indptr[-1]))
        picks = segmented_race_select(keys, indptr, k)
        # Every pick belongs to exactly one segment, each segment yields
        # at most min(k, length) picks, with no duplicates.
        seg_of = np.searchsorted(indptr, picks, side="right") - 1
        assert len(np.unique(picks)) == len(picks)
        for s in range(len(lengths)):
            assert (seg_of == s).sum() == min(k, lengths[s])


# ----------------------------------------------------------------------
# The lexsort select this module had until PR 18, kept verbatim as the
# oracle: the dense-block select must return the same positions in the
# same order.
# ----------------------------------------------------------------------
def _lexsort_race_select(keys, indptr, k):
    from repro.sparse.formats import gather_ranges

    lengths = np.diff(indptr)
    n_seg = len(lengths)
    if keys.shape != (int(indptr[-1]),):
        raise ShapeError("keys length must equal indptr[-1]")
    k_arr = np.full(n_seg, k, dtype=np.int64) if np.isscalar(k) else np.asarray(k)
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64)
    seg_ids = np.repeat(np.arange(n_seg, dtype=np.int64), lengths)
    order = np.lexsort((keys, seg_ids))
    sorted_keys = keys[order]
    # After the sort, each segment still occupies [indptr[i], indptr[i+1]).
    finite_per_seg = _finite_prefix(sorted_keys, indptr)
    take = np.minimum(np.minimum(k_arr, lengths), finite_per_seg)
    picks = gather_ranges(indptr[:-1], take)
    return order[picks]


def _finite_prefix(sorted_keys, indptr):
    """Per segment, how many leading keys are finite after sorting."""
    finite = np.isfinite(sorted_keys).astype(np.int64)
    csum = np.zeros(len(finite) + 1, dtype=np.int64)
    np.cumsum(finite, out=csum[1:])
    return csum[indptr[1:]] - csum[indptr[:-1]]


def _assert_matches_oracle(keys, indptr, k):
    picks, counts = _race_select_counts(keys, indptr, k)
    expected = _lexsort_race_select(keys, indptr, k)
    np.testing.assert_array_equal(picks, expected)
    assert picks.dtype == expected.dtype
    owner = np.searchsorted(indptr, expected, side="right") - 1
    np.testing.assert_array_equal(
        counts, np.bincount(owner, minlength=len(indptr) - 1)
    )


#: Segment lengths on both sides of every bin edge up to 128.
_EDGE_LENGTHS = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 129]
#: How keys are drawn: continuous, tie-heavy, the LADIES shape, hostile,
#: ``top_k_per_segment``'s negated scores, and a different kind per row.
_KEY_SHAPES = (
    "continuous",
    "ties",
    "inf_heavy",
    "nan_and_inf",
    "negative",
    "mixed_rows",
)
#: Per-row kinds of "mixed_rows": what the threshold kernel has to tell
#: apart inside one block — equal keys straddling the cut, rows short of
#: selectable keys, rows with none — next to ordinary full rows.
_ROW_KINDS = ("continuous", "ties", "inf_heavy", "all_inf", "all_nan", "negative")


def _draw_keys(shape, n, rng):
    if shape == "continuous":
        return rng.random(n)
    if shape == "ties":
        return rng.integers(0, 4, size=n).astype(np.float64)
    if shape == "negative":
        return -rng.integers(0, 6, size=n).astype(np.float64) / 2
    if shape == "all_inf":
        return np.full(n, np.inf)
    if shape == "all_nan":
        return np.full(n, np.nan)
    keys = rng.exponential(size=n)
    keys[rng.random(n) < 0.8] = np.inf
    if shape == "nan_and_inf":
        keys[rng.random(n) < 0.2] = np.nan
    return keys


def _draw_segment_keys(shape, indptr, rng):
    if shape != "mixed_rows":
        return _draw_keys(shape, int(indptr[-1]), rng)
    rows = [
        _draw_keys(_ROW_KINDS[rng.integers(len(_ROW_KINDS))], length, rng)
        for length in np.diff(indptr)
    ]
    return np.concatenate(rows + [np.empty(0)])


class TestRaceSelectAgainstLexsortOracle:
    @given(
        st.lists(
            st.sampled_from(_EDGE_LENGTHS) | st.integers(0, 140),
            min_size=0,
            max_size=40,
        ),
        st.sampled_from(_KEY_SHAPES),
        st.one_of(st.integers(0, 140), st.none()),
        # Small limits bin every call; at 512 and 4096 the generated
        # calls fall on both sides of the one-block rule; 2**18 is the
        # shipped value, one block for all of them.
        st.sampled_from([1, 8, 64, 512, 4096, 1 << 18]),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_positions_same_order(
        self, seg_lengths, key_shape, k, block_elems, seed
    ):
        rng = np.random.default_rng(seed)
        indptr = _indptr_from_counts(np.array(seg_lengths, dtype=np.int64))
        keys = _draw_segment_keys(key_shape, indptr, rng)
        if k is None:
            # Per-segment k, including 0 and more than the segment holds.
            k = rng.integers(0, 140, size=len(seg_lengths))
        with mock.patch.object(rnd, "_RACE_BLOCK_ELEMS", block_elems):
            # Inline, then with two CPUs: a call holding two blocks' worth
            # of keys runs its blocks on the host pool.
            for cpus in (1, 2):
                with mock.patch.object(rnd, "_host_cpus", return_value=cpus):
                    _assert_matches_oracle(keys, indptr, k)

    def test_one_row_over_its_cap_and_one_short_is_not_a_full_block(self):
        """Three keys at the cut of row 0 and one selectable key in row 1
        add up to ``rows * k`` picks before the tie is cut back."""
        keys = np.array([1.0, 5.0, 1.0, 1.0, np.inf, 0.5, np.inf, np.nan])
        indptr = np.array([0, 4, 8])
        np.testing.assert_array_equal(
            segmented_race_select(keys, indptr, 2), [0, 2, 5]
        )
        _assert_matches_oracle(keys, indptr, 2)

    def test_ties_across_the_cut_in_several_rows_of_one_block(self):
        rng = np.random.default_rng(11)
        indptr = _indptr_from_counts(np.full(50, 9))
        keys = rng.integers(0, 3, size=450).astype(np.float64)
        keys[9 * 7 : 9 * 8] = np.inf
        keys[9 * 20 : 9 * 21] = np.nan
        for k in (1, 4, 8, 9, 12):
            _assert_matches_oracle(keys, indptr, k)

    @pytest.mark.parametrize("k", [1, 3, 4, 5, 40, 5000])
    def test_one_giant_segment_among_thousands_of_tiny_ones(self, k):
        rng = np.random.default_rng(k)
        lengths = rng.integers(0, 5, size=3000)
        lengths[1234] = 4096
        indptr = _indptr_from_counts(lengths)
        _assert_matches_oracle(rng.random(int(indptr[-1])), indptr, k)

    def test_few_huge_inf_heavy_segments(self):
        """``sb_collective_sample``'s shape: 4 x 32768 rows, k = 512."""
        rng = np.random.default_rng(0)
        indptr = np.arange(5, dtype=np.int64) * 32768
        keys = _draw_keys("inf_heavy", int(indptr[-1]), rng)
        # One batch with fewer selectable rows than its k.
        keys[32768 + 100 : 2 * 32768] = np.inf
        _assert_matches_oracle(keys, indptr, 512)

    def test_all_inf_segments_yield_nothing(self):
        indptr = np.array([0, 3, 3, 7])
        keys = np.array([np.inf] * 3 + [0.4, np.inf, 0.2, np.inf])
        _assert_matches_oracle(keys, indptr, 2)
        np.testing.assert_array_equal(
            segmented_race_select(keys, indptr, 2), [5, 3]
        )

    def test_nan_keys_behave_like_inf(self):
        keys = np.array([np.nan, 0.3, np.inf, 0.1, np.nan])
        indptr = np.array([0, 5])
        np.testing.assert_array_equal(
            segmented_race_select(keys, indptr, 4), [3, 1]
        )
        _assert_matches_oracle(keys, indptr, 4)

    def test_equal_keys_come_back_in_position_order(self):
        keys = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        indptr = np.array([0, 6])
        np.testing.assert_array_equal(
            segmented_race_select(keys, indptr, 4), [1, 4, 0, 2]
        )

    def test_segment_wider_than_the_block_limit_is_one_row(self):
        rng = np.random.default_rng(3)
        indptr = np.array([0, 2, 1002, 1010])
        with mock.patch.object(rnd, "_RACE_BLOCK_ELEMS", 16):
            _assert_matches_oracle(rng.random(1010), indptr, 7)


class TestRaceSelectRefusals:
    """Typed refusal before any work (ROADMAP direction 3)."""

    @pytest.mark.parametrize(
        "indptr, k",
        [
            (np.array([0, 2, 4]), -1),  # negative k
            (np.array([0, 2, 4]), np.array([1, -1])),  # negative per-segment k
            (np.array([0, 2, 4]), np.array([1, 1, 1])),  # one k too many
            (np.array([0, 2, 4]), np.array([1])),  # one too few
            (np.array([0, 3, 2, 4]), 1),  # non-monotone
            (np.array([1, 2, 4]), 1),  # does not start at 0
            (np.array([], dtype=np.int64), 1),  # no pointer at all
            (np.array([[0, 4]]), 1),  # not 1-D
        ],
    )
    def test_malformed_input_raises_shape_error(self, indptr, k):
        with pytest.raises(ShapeError):
            segmented_race_select(np.ones(4), indptr, k)

    def test_zero_segments_and_zero_k_are_legal(self):
        empty = np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(
            segmented_race_select(np.empty(0), np.array([0]), 3), empty
        )
        np.testing.assert_array_equal(
            segmented_race_select(np.ones(4), np.array([0, 2, 4]), 0), empty
        )


class TestOneSelectPath:
    def test_core_has_no_global_sort_left(self):
        """One select path, not two: the lexsort select lives on only as
        the oracle above.  (``git grep lexsort src/`` still lists the
        partitioners' tie-breaks, DeltaGraph's edge order and the walk
        top-k — none of them a select.)"""
        core = pathlib.Path(rnd.__file__).parent
        assert [
            path.name for path in core.glob("*.py") if "lexsort" in path.read_text()
        ] == []

    def test_select_has_no_index_sort_chain_left(self):
        """One block kernel, not two: value sort and threshold replaced
        the ``argpartition`` chain, it did not join it."""
        for function in (segmented_race_select, rnd._race_select_block):
            source = inspect.getsource(function)
            assert "argpartition" not in source
            assert "take_along_axis" not in source

    def test_benchmark_facing_names_and_signatures_unchanged(self):
        """``perfbench`` wraps these two by module attribute and reads
        ``args[0]`` / ``len(result)``."""
        assert list(inspect.signature(segmented_race_select).parameters) == [
            "keys",
            "indptr",
            "k",
        ]
        assert list(inspect.signature(exponential_race_keys).parameters) == [
            "weights",
            "rng",
        ]
        assert rnd.segmented_race_select is segmented_race_select
        picks = segmented_race_select(np.array([0.2, 0.1]), np.array([0, 2]), 1)
        assert isinstance(picks, np.ndarray) and picks.tolist() == [1]
