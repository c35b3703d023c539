"""Super-batch sampling tests (Section 4.4): independence and correctness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import new_rng
from repro.device import ExecutionContext, V100
from repro.errors import TraceError
from repro.ir.passes.superbatch import SuperBatchPass, needs_block_diagonal
from repro.ir.trace import trace
from repro.ir import superbatch_ops
from repro.sampler import compile_sampler

from tests.conftest import to_dense


def sage_layer(A, frontiers, K):
    sub_A = A[:, frontiers]
    sample_A = sub_A.individual_sample(K)
    return sample_A, sample_A.row()


def ladies_layer(A, frontiers, K):
    sub_A = A[:, frontiers]
    row_probs = (sub_A ** 2).sum(axis=0)
    sample_A = sub_A.collective_sample(K, row_probs)
    return sample_A, sample_A.row()


class TestRewritePass:
    def test_nodewise_needs_no_rewrite(self, small_graph):
        ir, _ = trace(sage_layer, small_graph, np.arange(4), constants={"K": 2})
        assert not needs_block_diagonal(ir)
        assert not SuperBatchPass().run(ir)

    def test_layerwise_rewritten(self, small_graph):
        ir, _ = trace(ladies_layer, small_graph, np.arange(4), constants={"K": 3})
        assert needs_block_diagonal(ir)
        assert SuperBatchPass().run(ir)
        ops = [n.op for n in ir.nodes()]
        assert "sb_slice_cols" in ops
        assert "sb_collective_sample" in ops
        assert "collective_sample" not in ops
        ir.validate()

    def test_rewrite_is_idempotent(self, small_graph):
        ir, _ = trace(ladies_layer, small_graph, np.arange(4), constants={"K": 3})
        SuperBatchPass().run(ir)
        assert not SuperBatchPass().run(ir)


class TestSegmentedOps:
    def test_sb_slice_cols_block_diagonal(self, small_graph):
        frontiers = np.array([1, 2, 3, 4])
        batch_ptr = np.array([0, 2, 4])
        out = superbatch_ops.sb_slice_cols(small_graph, frontiers, batch_ptr)
        n = small_graph.shape[0]
        assert out.shape == (2 * n, 4)
        dense = to_dense(out)
        # Batch 0's columns only touch row block 0; batch 1's only block 1.
        assert not dense[n:, :2].any()
        assert not dense[:n, 2:].any()
        np.testing.assert_allclose(
            dense[:n, :2], to_dense(small_graph)[:, [1, 2]], rtol=1e-6
        )
        np.testing.assert_allclose(
            dense[n:, 2:], to_dense(small_graph)[:, [3, 4]], rtol=1e-6
        )

    def test_sb_collective_sample_per_batch_budget(self, small_graph):
        frontiers = np.arange(20)
        batch_ptr = np.array([0, 10, 20])
        block = superbatch_ops.sb_slice_cols(small_graph, frontiers, batch_ptr)
        out = superbatch_ops.sb_collective_sample(
            block, 5, batch_ptr, rng=new_rng(0)
        )
        n = small_graph.shape[0]
        assert out.shape[0] == 10  # 5 rows per batch
        # External row ids stay block-diagonal, five per batch, so the
        # debias steps can index per-(batch, node) vectors with them.
        np.testing.assert_array_equal(out.row_ids // n, [0] * 5 + [1] * 5)
        csc = out.get("csc")
        rows_b0 = set(csc.rows[csc.indptr[0] : csc.indptr[10]].tolist())
        rows_b1 = set(csc.rows[csc.indptr[10] : csc.indptr[20]].tolist())
        assert len(rows_b0) <= 5 and len(rows_b1) <= 5
        assert not rows_b0 & rows_b1  # batches stay independent

    def test_split_sample_restores_global_ids(self, small_graph):
        frontiers = np.array([1, 2, 3, 4])
        batch_ptr = np.array([0, 2, 4])
        block = superbatch_ops.sb_slice_cols(small_graph, frontiers, batch_ptr)
        pieces = superbatch_ops.split_sample(
            block, batch_ptr, small_graph.shape[0]
        )
        assert len(pieces) == 2
        for piece, cols in zip(pieces, ([1, 2], [3, 4])):
            np.testing.assert_array_equal(piece.column(), cols)
            assert piece.row_ids.max() < small_graph.shape[0]


class TestRunSuperbatch:
    def test_sage_superbatch_matches_columns(self, small_graph):
        sampler = compile_sampler(
            sage_layer, small_graph, np.arange(8), constants={"K": 3}
        )
        batches = [np.arange(8), np.arange(50, 58), np.arange(100, 108)]
        results = sampler.run_superbatch(batches, rng=new_rng(1))
        assert len(results) == 3
        for (matrix, nxt), batch in zip(results, batches):
            np.testing.assert_array_equal(matrix.column(), batch)
            assert matrix.nnz <= 3 * len(batch)
            # Every sampled edge is a real graph edge.
            rows, cols, _ = matrix.to_coo_arrays()
            dense = to_dense(small_graph)
            assert all(dense[r, c] != 0 for r, c in zip(rows, cols))
            np.testing.assert_array_equal(np.sort(nxt), np.unique(rows))

    def test_ladies_superbatch_independent_batches(self, small_graph):
        sampler = compile_sampler(
            ladies_layer, small_graph, np.arange(16), constants={"K": 6}
        )
        batches = [np.arange(16), np.arange(30, 46)]
        results = sampler.run_superbatch(batches, rng=new_rng(2))
        for (matrix, nxt), batch in zip(results, batches):
            assert matrix.shape[0] <= 6
            np.testing.assert_array_equal(matrix.column(), batch)
            assert len(nxt) <= 6

    @pytest.mark.parametrize("layer", ["ladies", "asgcn_like", "fastgcn"])
    def test_debias_reads_each_batchs_own_probabilities(self, small_graph, layer):
        """Every batch of a super-batch is debiased by *its* selection
        probabilities: the weights equal an eager per-batch debias of the
        same sampled structure.  (Until PR 18 batches 1.. were divided by
        batch 0's block of the probability vector: wrong, and NaN where
        batch 0 had a zero.)"""
        from repro.algorithms.fastgcn import fastgcn_layer
        from repro.algorithms.ladies import ladies_layer as full_ladies_layer

        dense = to_dense(small_graph).astype(np.float64)
        scores = np.linspace(0.5, 2.0, small_graph.shape[0])

        def asgcn_like_layer(A, frontiers, scores, K):
            # Per-(batch, node) reduce times a batch-invariant per-node
            # vector: the product is B*N long, like ASGCN's.
            sub_A = A[:, frontiers]
            probs = sub_A.sum(axis=0) * scores
            sample_A = sub_A.collective_sample(K, probs)
            sample_A = sample_A.div(probs[sample_A.row()], axis=0)
            return sample_A, sample_A.row()

        def expected_weights(rows, cols, batch):
            """Eager debias of edges ``(rows, cols)``, in graph ids."""
            sub = np.zeros_like(dense)
            sub[:, batch] = dense[:, batch]
            if layer == "ladies":
                probs = (sub ** 2).sum(axis=1)
            elif layer == "asgcn_like":
                probs = sub.sum(axis=1) * scores
            else:
                probs = dense.sum(axis=1) ** 2
            debiased = dense[rows, cols] / probs[rows]
            if layer != "ladies":
                return debiased
            return debiased / np.bincount(cols, debiased, len(dense))[cols]

        fn, tensors = {
            "ladies": (full_ladies_layer, None),
            "asgcn_like": (asgcn_like_layer, {"scores": scores}),
            "fastgcn": (fastgcn_layer, None),
        }[layer]
        batches = [np.arange(lo, lo + 16) for lo in (0, 40, 90, 150)]
        sampler = compile_sampler(
            fn, small_graph, batches[0], constants={"K": 12}, tensors=tensors
        )
        results = sampler.run_superbatch(batches, tensors=tensors, rng=new_rng(5))
        assert len(results) == len(batches) >= 3
        for (matrix, _), batch in zip(results, batches):
            rows, cols, weights = matrix.to_coo_arrays()
            assert len(weights) and np.all(np.isfinite(weights))
            assert set(cols) <= set(batch)
            np.testing.assert_allclose(
                weights, expected_weights(rows, cols, batch), rtol=1e-5
            )
            if layer == "ladies":
                sums = np.bincount(cols, weights)[np.unique(cols)]
                np.testing.assert_allclose(sums, 1.0, rtol=1e-5)

    def test_superbatch_faster_than_sequential(self, small_graph):
        """The point of super-batching: fewer, fuller launches (Figure 6)."""
        sampler = compile_sampler(
            ladies_layer, small_graph, np.arange(16), constants={"K": 6}
        )
        batches = [np.arange(i, i + 16) for i in range(0, 128, 16)]
        sb_ctx = ExecutionContext(V100)
        sampler.run_superbatch(batches, ctx=sb_ctx, rng=new_rng(3))
        seq_ctx = ExecutionContext(V100)
        for batch in batches:
            sampler.run(batch, ctx=seq_ctx, rng=new_rng(3))
        assert sb_ctx.elapsed < seq_ctx.elapsed
        # The sampling work itself collapses into one launch sequence;
        # only the final per-batch split scales with the batch count.
        sampling_launches = sum(
            1 for l in sb_ctx.launches if l.name.startswith("sb_")
        )
        assert sampling_launches <= 5

    def test_non_pair_contract_rejected(self, small_graph):
        def walk(A, frontiers):
            return A[:, frontiers].individual_sample(1)

        sampler = compile_sampler(walk, small_graph, np.arange(4))
        with pytest.raises(TraceError):
            sampler.run_superbatch([np.arange(4)])

    def test_choose_superbatch_size(self, small_graph):
        sampler = compile_sampler(
            sage_layer, small_graph, np.arange(8), constants={"K": 3}
        )
        size = sampler.choose_superbatch_size(
            np.arange(8), memory_budget=1 << 22, max_size=16
        )
        assert 1 <= size <= 16
        # A tiny budget forces size 1.
        tiny = sampler.choose_superbatch_size(
            np.arange(8), memory_budget=1, max_size=16
        )
        assert tiny == 1

    def test_nested_structure_rejected(self, small_graph):
        # The contract check must reject *nested* tuple structures too,
        # not just single-leaf programs.
        def nested(A, frontiers, K):
            sub_A = A[:, frontiers]
            sample_A = sub_A.individual_sample(K)
            return (sample_A, sample_A.row()), sample_A.row()

        sampler = compile_sampler(
            nested, small_graph, np.arange(4), constants={"K": 2}
        )
        with pytest.raises(TraceError, match="one-layer contract"):
            sampler.run_superbatch([np.arange(4)])


class TestChooseSuperbatchSize:
    @pytest.fixture
    def sampler(self, small_graph):
        return compile_sampler(
            sage_layer, small_graph, np.arange(8), constants={"K": 3}
        )

    def _peak_for(self, sampler, size: int) -> int:
        ctx = ExecutionContext()
        sampler.run_superbatch(
            [np.arange(8)] * size, ctx=ctx, rng=new_rng(0)
        )
        return ctx.memory.peak_bytes

    def test_chosen_size_respects_budget(self, sampler):
        budget = self._peak_for(sampler, 4) + 1
        size = sampler.choose_superbatch_size(
            np.arange(8), memory_budget=budget, max_size=64
        )
        assert self._peak_for(sampler, size) <= budget
        # The search keeps the *largest* fitting probe: doubling busts it.
        assert self._peak_for(sampler, size * 2) > budget

    def test_max_size_cap_wins_over_budget(self, sampler):
        size = sampler.choose_superbatch_size(
            np.arange(8), memory_budget=1 << 40, max_size=8
        )
        assert size == 8

    def test_non_power_of_two_cap(self, sampler):
        # The probe doubles 2, 4, 8, ...; a cap of 12 must still be
        # honored (largest probed size not exceeding it is 8).
        size = sampler.choose_superbatch_size(
            np.arange(8), memory_budget=1 << 40, max_size=12
        )
        assert size == 8

    def test_non_power_of_two_budget(self, sampler):
        # An awkward odd budget between probe peaks picks the probe
        # just below it, never the one above.
        peak2 = self._peak_for(sampler, 2)
        peak4 = self._peak_for(sampler, 4)
        assert peak2 < peak4
        budget = (peak2 + peak4) // 2 + 1
        size = sampler.choose_superbatch_size(
            np.arange(8), memory_budget=budget, max_size=64
        )
        assert size == 2
