"""Select-step tests: individual/collective sampling and the fused path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import new_rng
from repro.core.sampling import (
    collective_sample,
    fused_extract_individual_sample,
    individual_sample,
    uniform_walk_step,
)
from repro.errors import ShapeError
from repro.sparse import CSC, slice_columns, to_csc

from tests.conftest import random_coo, to_dense


def _csc(rng, rows=30, cols=10, nnz=120, weighted=True):
    return to_csc(random_coo(rng, rows=rows, cols=cols, nnz=nnz, weighted=weighted))


class TestIndividualSample:
    def test_fanout_respected(self, rng):
        csc = _csc(rng)
        out = individual_sample(csc, 3, rng=new_rng(0))
        assert out.shape == csc.shape
        assert np.all(out.col_degrees() <= 3)
        # Columns with >= 3 candidates return exactly 3.
        full = csc.col_degrees()
        np.testing.assert_array_equal(
            out.col_degrees(), np.minimum(full, 3)
        )

    def test_sampled_edges_are_subset(self, rng):
        csc = _csc(rng)
        out = individual_sample(csc, 4, rng=new_rng(1))
        dense_in = to_dense(csc)
        dense_out = to_dense(out)
        assert np.all((dense_out != 0) <= (dense_in != 0))
        # Edge values are preserved, not replaced by probabilities.
        mask = dense_out != 0
        np.testing.assert_allclose(dense_out[mask], dense_in[mask], rtol=1e-6)

    def test_without_replacement_no_duplicates(self, rng):
        csc = _csc(rng)
        out = individual_sample(csc, 5, rng=new_rng(2))
        rows, cols = out.rows, out.expand_cols()
        keys = rows * csc.shape[1] + cols
        assert len(np.unique(keys)) == len(keys)

    def test_with_replacement_reaches_fanout(self, rng):
        csc = _csc(rng)
        out = individual_sample(csc, 6, replace=True, rng=new_rng(3))
        nonempty = csc.col_degrees() > 0
        np.testing.assert_array_equal(
            out.col_degrees()[nonempty], 6
        )

    def test_bias_respected(self):
        # One column, two candidate rows with extreme bias.
        from repro.sparse import COO

        coo = COO(rows=[0, 1], cols=[0, 0], values=[1.0, 1.0], shape=(2, 1))
        csc = to_csc(coo)
        bias = np.array([1000.0, 0.001])
        hits0 = 0
        rng = new_rng(4)
        for _ in range(200):
            out = individual_sample(csc, 1, bias, rng=rng)
            hits0 += int(out.rows[0] == 0)
        assert hits0 > 190

    def test_zero_bias_edges_never_sampled(self, rng):
        csc = _csc(rng)
        bias = np.zeros(csc.nnz)
        bias[0] = 1.0
        out = individual_sample(csc, 3, bias, rng=new_rng(5))
        assert out.nnz == 1

    def test_invalid_fanout_rejected(self, rng):
        with pytest.raises(ShapeError):
            individual_sample(_csc(rng), 0)

    def test_probs_shape_checked(self, rng):
        with pytest.raises(ShapeError):
            individual_sample(_csc(rng), 2, np.ones(3))


class TestCollectiveSample:
    def test_row_budget_respected(self, rng):
        csc = _csc(rng)
        result = collective_sample(csc, 7, rng=new_rng(0))
        assert result.matrix.shape == (7, csc.shape[1])
        assert len(result.selected_rows) == 7

    def test_only_selected_rows_kept(self, rng):
        csc = _csc(rng)
        probs = np.zeros(csc.shape[0])
        probs[[2, 5, 11]] = 1.0
        result = collective_sample(csc, 3, probs, rng=new_rng(1))
        np.testing.assert_array_equal(result.selected_rows, [2, 5, 11])
        dense = to_dense(csc)
        np.testing.assert_allclose(
            to_dense(result.matrix), dense[[2, 5, 11]], rtol=1e-6
        )

    def test_default_probs_aggregate_edge_bias(self, rng):
        # Rows without edges have zero default bias and are never picked.
        csc = _csc(rng, rows=50, cols=5, nnz=30)
        result = collective_sample(csc, 10, rng=new_rng(2))
        degrees = np.bincount(csc.rows, minlength=50)
        assert np.all(degrees[result.selected_rows] > 0)

    def test_probs_shape_checked(self, rng):
        with pytest.raises(ShapeError):
            collective_sample(_csc(rng), 2, np.ones(3))


class TestFusedExtractSample:
    def test_matches_unfused_semantics(self, rng):
        """Fused extract+select must sample from exactly the same
        candidate sets as slice-then-sample."""
        csc = _csc(rng, rows=40, cols=40, nnz=300)
        frontiers = np.array([3, 17, 17, 39, 0])
        fused = fused_extract_individual_sample(csc, frontiers, 4, rng=new_rng(0))
        sliced = slice_columns(csc, frontiers)
        assert fused.shape == (40, 5)
        assert isinstance(sliced, type(csc))
        np.testing.assert_array_equal(
            fused.col_degrees(), np.minimum(sliced.col_degrees(), 4)
        )
        # Every fused edge exists in the sliced subgraph.
        dense_sub = to_dense(sliced)
        dense_fused = to_dense(fused)
        assert np.all((dense_fused != 0) <= (dense_sub != 0))

    @pytest.mark.parametrize("replace", [False, True])
    @pytest.mark.parametrize("bias", ["weights", "unweighted", "probs"])
    def test_bit_identical_to_slice_then_sample(self, rng, bias, replace):
        """Same draws, same picks, same pointer: the fused kernel rebuilds
        the column layout from the select's per-segment counts, the
        unfused one from its own — including columns cut short by
        zero-probability edges, empty columns and repeated frontiers."""
        csc = _csc(rng, rows=60, cols=40, nnz=500, weighted=bias != "unweighted")
        # Explicit ids, so the slice carries graph positions along.
        csc.edge_ids = np.arange(csc.nnz)
        frontiers = np.array([3, 17, 17, 39, 0, 21, 8])
        probs = None
        if bias == "probs":
            probs = rng.random(csc.nnz)
            probs[rng.random(csc.nnz) < 0.6] = 0.0
        fused = fused_extract_individual_sample(
            csc, frontiers, 4, probs, replace=replace, rng=new_rng(7)
        )
        sliced = slice_columns(csc, frontiers)
        eager = individual_sample(
            sliced,
            4,
            None if probs is None else probs[sliced.edge_ids],
            replace=replace,
            rng=new_rng(7),
        )
        assert fused.nnz > 0
        np.testing.assert_array_equal(fused.indptr, eager.indptr)
        np.testing.assert_array_equal(fused.rows, eager.rows)
        np.testing.assert_array_equal(fused.edge_ids, eager.edge_ids)
        if bias != "unweighted":
            np.testing.assert_array_equal(fused.values, eager.values)

    def test_weight_scan_is_remembered_per_values_array(self, rng):
        csc = _csc(rng)
        assert csc._has_nonuniform_values()
        assert csc._nonuniform[0] is csc.values
        # A new values array is a new question.
        csc.values = np.ones(csc.nnz, dtype=np.float32)
        assert not csc._has_nonuniform_values()
        csc.values = None
        assert not csc._has_nonuniform_values()

    def test_fused_writes_less_memory(self, rng):
        """The fusion's point: no materialized subgraph (Figure 5a)."""
        from repro.device import ExecutionContext, V100

        csc = _csc(rng, rows=500, cols=500, nnz=8000)
        frontiers = np.arange(200)
        fused_ctx = ExecutionContext(V100)
        fused_extract_individual_sample(
            csc, frontiers, 2, rng=new_rng(1), ctx=fused_ctx
        )
        eager_ctx = ExecutionContext(V100)
        sub = slice_columns(csc, frontiers, eager_ctx)
        individual_sample(sub, 2, rng=new_rng(1), ctx=eager_ctx)
        fused_written = sum(l.bytes_written for l in fused_ctx.launches)
        eager_written = sum(l.bytes_written for l in eager_ctx.launches)
        assert fused_written < 0.6 * eager_written

    def test_biased_fused_sampling(self, rng):
        csc = _csc(rng)
        bias = np.zeros(csc.nnz)
        bias[:5] = 1.0
        out = fused_extract_individual_sample(
            csc, np.arange(csc.shape[1]), 3, bias, rng=new_rng(2)
        )
        assert out.nnz <= 5


class TestWalkStep:
    def test_next_is_in_neighbor(self, rng):
        csc = _csc(rng, rows=30, cols=30, nnz=200)
        frontiers = np.arange(30)
        nxt = uniform_walk_step(csc, frontiers, rng=new_rng(0))
        dense = to_dense(csc)
        for f, n in zip(frontiers, nxt):
            if n >= 0:
                assert dense[n, f] != 0
            else:
                assert csc.col_degrees()[f] == 0

    def test_largest_draw_picks_the_last_in_edge(self):
        """The walk step has no clamp on ``u * length``: the largest
        ``u`` below 1 must still land on a column's last in-edge."""

        class LargestDraw:
            def random(self, n):
                return np.full(n, np.nextafter(1.0, 0.0))

        lengths = np.array(
            [*range(1, 200), 1023, 1024, 1025, 4095, 4096, 65535, 65536, 65537]
        )
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        csc = CSC(
            indptr=indptr,
            rows=np.arange(indptr[-1]) % len(lengths),
            values=None,
            shape=(len(lengths), len(lengths)),
        )
        frontiers = np.arange(len(lengths))
        nxt = uniform_walk_step(csc, frontiers, rng=LargestDraw())
        np.testing.assert_array_equal(nxt, csc.rows[indptr[1:] - 1])

    def test_zero_in_degree_frontiers_draw_nothing(self):
        """A node without in-edges stays ``-1`` and takes no draw; the
        others take one each, in frontier order.  (A ``-1`` frontier is
        refused: ``test_typed_refusals``.)"""
        csc = CSC(
            indptr=[0, 2, 2, 3, 6], rows=[1, 2, 0, 0, 1, 3], values=None,
            shape=(4, 4),
        )
        frontiers = np.array([1, 0, 2, 1, 3])
        rng = new_rng(5)
        nxt = uniform_walk_step(csc, frontiers, rng=rng)
        oracle = new_rng(5)
        u = oracle.random(3)
        offsets = np.floor(u * [2, 1, 3]).astype(np.int64)
        expected = np.full(len(frontiers), -1)
        expected[[1, 2, 4]] = csc.rows[np.array([0, 2, 3]) + offsets]
        np.testing.assert_array_equal(nxt, expected)
        assert rng.bit_generator.state == oracle.bit_generator.state

        rng = new_rng(5)
        untouched = rng.bit_generator.state
        nxt = uniform_walk_step(csc, np.array([1, 1]), rng=rng)
        np.testing.assert_array_equal(nxt, [-1, -1])
        assert rng.bit_generator.state == untouched


@given(st.integers(0, 2**31 - 1), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_individual_sample_invariants(seed, k):
    rng = np.random.default_rng(seed)
    csc = _csc(rng, rows=15, cols=8, nnz=int(rng.integers(0, 60)))
    out = individual_sample(csc, k, rng=rng)
    assert out.shape == csc.shape
    np.testing.assert_array_equal(
        out.col_degrees(), np.minimum(csc.col_degrees(), k)
    )


class TestCostModelParity:
    """The fused and unfused kernels must price equivalent work alike."""

    def _record(self, ctx, name):
        matches = [l for l in ctx.launches if l.name == name]
        assert matches, f"no {name} launch recorded"
        return matches[-1]

    def test_fused_flops_match_unfused_when_biased(self, rng):
        from repro.device import ExecutionContext

        csc = _csc(rng, rows=40, cols=40, nnz=300, weighted=True)
        frontiers = np.arange(12)
        fused_ctx = ExecutionContext()
        fused_extract_individual_sample(
            csc, frontiers, 3, rng=new_rng(0), ctx=fused_ctx
        )
        unfused_ctx = ExecutionContext()
        sub = slice_columns(csc, frontiers)
        individual_sample(sub, 3, rng=new_rng(0), ctx=unfused_ctx)
        fused = self._record(fused_ctx, "fused_extract_individual_sample")
        unfused = self._record(unfused_ctx, "individual_sample")
        # The candidate edge set is identical, and both paths generate a
        # key and run the race compare per candidate: 2 flops/edge.
        assert fused.flops == unfused.flops == sub.nnz * 2.0

    def test_fused_flops_match_unfused_when_uniform(self, rng):
        from repro.device import ExecutionContext

        csc = _csc(rng, rows=40, cols=40, nnz=300, weighted=False)
        frontiers = np.arange(12)
        fused_ctx = ExecutionContext()
        fused_extract_individual_sample(
            csc, frontiers, 3, rng=new_rng(0), ctx=fused_ctx
        )
        unfused_ctx = ExecutionContext()
        sub = slice_columns(csc, frontiers)
        individual_sample(sub, 3, rng=new_rng(0), ctx=unfused_ctx)
        fused = self._record(fused_ctx, "fused_extract_individual_sample")
        unfused = self._record(unfused_ctx, "individual_sample")
        assert fused.flops == unfused.flops == sub.nnz * 1.0

    def test_collective_replace_keeps_layer_width(self, rng):
        # A single deduplicated batch of draws used to shrink the layer
        # below k; the race draws k distinct rows.
        csc = _csc(rng, rows=50, cols=20, nnz=400, weighted=True)
        result = collective_sample(csc, 12, replace=True, rng=new_rng(0))
        assert len(result.selected_rows) == 12
        assert len(np.unique(result.selected_rows)) == 12
        assert result.matrix.shape == (12, csc.shape[1])

    def test_collective_replace_capped_by_available_rows(self, rng):
        probs = np.zeros(30)
        probs[:7] = 1.0
        csc = _csc(rng, rows=30, cols=10, nnz=90, weighted=True)
        result = collective_sample(
            csc, 20, node_probs=probs, replace=True, rng=new_rng(1)
        )
        np.testing.assert_array_equal(
            np.sort(result.selected_rows), np.arange(7)
        )

    def test_collective_unweighted_charges_no_value_bytes(self, rng):
        from repro.device import ExecutionContext

        import dataclasses as dc

        weighted = _csc(rng, rows=30, cols=12, nnz=150, weighted=True)
        unweighted = dc.replace(weighted, values=None)
        w_ctx, u_ctx = ExecutionContext(), ExecutionContext()
        collective_sample(weighted, 5, rng=new_rng(2), ctx=w_ctx)
        collective_sample(
            unweighted,
            5,
            node_probs=np.ones(unweighted.shape[0]),
            rng=new_rng(2),
            ctx=u_ctx,
        )
        w = self._record(w_ctx, "collective_sample")
        u = self._record(u_ctx, "collective_sample")
        # 8 bytes/edge for the row id; the weighted matrix adds 4 for the
        # value, the unweighted one must not charge values it never reads.
        assert w.bytes_read - u.bytes_read == weighted.nnz * 4
