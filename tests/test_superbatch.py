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
            np.testing.assert_array_equal(piece.matrix.column(), cols)
            assert piece.matrix.row_ids is piece.next_frontiers
            assert piece.next_frontiers.max() < small_graph.shape[0]


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


class TestSharedExtraction:
    """Within one interpreter run, a hop's column slice of ``A`` and its
    extract-reduce of ``A ** 2`` read the frontier ranges once."""

    @staticmethod
    def _run(name, dataset, monkeypatch, *, shared):
        import dataclasses

        from repro.algorithms import make_algorithm
        from repro.ir.interpreter import Interpreter
        from repro.sparse import formats
        from tests.test_algorithm_golden import _arrays

        if not shared:
            share = Interpreter._shared_ranges

            def unshared(self, *args):
                self._ranges.clear()  # every kernel gathers its own ranges
                return share(self, *args)

            monkeypatch.setattr(Interpreter, "_shared_ranges", unshared)
        gathers = []
        real = formats.gather_ranges
        monkeypatch.setattr(
            formats, "gather_ranges", lambda *a: gathers.append(1) or real(*a)
        )
        seeds = dataset.train_ids[:96]
        pipeline = make_algorithm(name).build(
            dataset.graph, seeds[:32], features=dataset.features
        )
        ctx = ExecutionContext(V100)
        rng = new_rng(11)
        samples = [
            pipeline.sample_batch(seeds[:32], ctx=ctx, rng=rng),
            *pipeline.sample_superbatch(
                [seeds[32:64], seeds[64:]], ctx=ctx, rng=rng
            ),
        ]
        monkeypatch.undo()
        # Ledger first: reading a sample's arrays may convert layouts.
        ledger = [dataclasses.astuple(launch) for launch in ctx.launches]
        return ledger, _arrays(samples), rng.bit_generator.state, len(gathers)

    @pytest.mark.parametrize("name", ["ladies", "asgcn"])
    def test_samples_and_ledger_equal_an_unshared_extraction(self, name, monkeypatch):
        from repro.datasets import load_dataset

        dataset = load_dataset("pd", scale=0.05)
        got = self._run(name, dataset, monkeypatch, shared=True)
        want = self._run(name, dataset, monkeypatch, shared=False)
        assert got[:3] == want[:3]
        # LADIES gathers each hop's ranges once instead of twice (plain
        # and super-batched); AS-GCN has one extraction per hop to begin with.
        assert got[3] == (want[3] // 2 if name == "ladies" else want[3])

    def test_ranges_of_another_topology_are_gathered_afresh(self, small_graph):
        """Ranges are reused only for the ``indptr`` / ``rows`` they were
        gathered from; handed another matrix's, a kernel gathers its own."""
        from repro.core.matrix import from_edges
        from repro.core.sampling import fused_extract_reduce
        from repro.sparse.formats import frontier_ranges

        rng = np.random.default_rng(5)
        other = from_edges(rng.integers(0, 200, 900), rng.integers(0, 200, 900), 200)
        frontiers, batch_ptr = np.array([3, 1, 4, 1, 5, 9]), np.array([0, 2, 6])
        stale = frontier_ranges(other.get("csc"), frontiers)
        np.testing.assert_array_equal(
            fused_extract_reduce(small_graph.get("csc"), stale, "sum", 0),
            fused_extract_reduce(small_graph.get("csc"), frontiers, "sum", 0),
        )
        stale = superbatch_ops.block_ranges(other.get("csc"), frontiers, batch_ptr)
        got = superbatch_ops.sb_slice_cols(small_graph, stale, batch_ptr)
        want = superbatch_ops.sb_slice_cols(small_graph, frontiers, batch_ptr)
        np.testing.assert_array_equal(to_dense(got), to_dense(want))


def _parent_split_sample(matrix, batch_ptr, num_graph_rows, ctx):
    """The eager ``split_sample`` that built every piece's matrix, kept
    verbatim as the oracle of the pieces built on read."""
    from repro.core.matrix import Matrix
    from repro.sparse import CSC, INDEX_DTYPE

    _ITEM, _VAL = superbatch_ops._ITEM, superbatch_ops._VAL
    csc = matrix.get("csc")
    out: list[Matrix] = []
    total_edges = 0
    for b in range(len(batch_ptr) - 1):
        lo, hi = int(batch_ptr[b]), int(batch_ptr[b + 1])
        e_lo, e_hi = int(csc.indptr[lo]), int(csc.indptr[hi])
        rows_b = csc.rows[e_lo:e_hi]
        uniq, inv = np.unique(rows_b, return_inverse=True)
        piece_csc = CSC(
            indptr=csc.indptr[lo : hi + 1] - e_lo,
            rows=inv.astype(INDEX_DTYPE),
            values=None if csc.values is None else csc.values[e_lo:e_hi],
            shape=(len(uniq), hi - lo),
            edge_ids=None if csc.edge_ids is None else csc.edge_ids[e_lo:e_hi],
        )
        merged_row_ids = (
            uniq if matrix.row_ids is None else matrix.row_ids[uniq]
        )
        piece_col_ids = (
            np.arange(lo, hi, dtype=INDEX_DTYPE)
            if matrix.col_ids is None
            else matrix.col_ids[lo:hi]
        )
        out.append(
            Matrix(
                piece_csc,
                row_ids=merged_row_ids % num_graph_rows,
                col_ids=piece_col_ids,
                ctx=ctx,
            )
        )
        total_edges += len(rows_b)
    ctx.record(
        "sb_split",
        bytes_read=total_edges * (_ITEM + _VAL),
        bytes_written=total_edges * _ITEM,
        flops=total_edges * max(1.0, np.log2(max(total_edges, 2))),
        tasks=max(total_edges, 1),
    )
    return out


def _merged_windows(graph, layer, batches, K, monkeypatch):
    """Every merged sample ``run_superbatch`` hands ``split_sample``."""
    seen = []
    real = superbatch_ops.split_sample

    def capture(matrix, batch_ptr, num_graph_rows, ctx):
        seen.append((matrix, batch_ptr, num_graph_rows))
        return real(matrix, batch_ptr, num_graph_rows, ctx)

    sampler = compile_sampler(layer, graph, batches[0], constants={"K": K})
    with monkeypatch.context() as patch:
        patch.setattr(superbatch_ops, "split_sample", capture)
        sampler.run_superbatch(batches, rng=new_rng(4))
    return seen


class TestSplitOracle:
    """Pieces built on read equal the parent's eager pieces field for
    field and dtype for dtype, under an identical ``sb_split`` ledger."""

    @staticmethod
    def _fields(matrix):
        csc = matrix.get("csc")
        return {
            "indptr": csc.indptr,
            "rows": csc.rows,
            "values": csc.values,
            "edge_ids": csc.edge_ids,
            "row_ids": matrix.row_ids,
            "col_ids": matrix.col_ids,
        }

    def _assert_split_equal(self, matrix, batch_ptr, num_graph_rows):
        import dataclasses

        got_ctx, want_ctx = ExecutionContext(V100), ExecutionContext(V100)
        pieces = superbatch_ops.split_sample(
            matrix, batch_ptr, num_graph_rows, got_ctx
        )
        want = _parent_split_sample(matrix, batch_ptr, num_graph_rows, want_ctx)
        assert [dataclasses.astuple(x) for x in got_ctx.launches] == [
            dataclasses.astuple(x) for x in want_ctx.launches
        ]
        assert len(pieces) == len(want)
        for piece, expected in zip(pieces, want):
            assert piece.nnz == expected.nnz
            np.testing.assert_array_equal(piece.next_frontiers, expected.row())
            assert piece.next_frontiers.dtype == expected.row().dtype
            got = piece.matrix
            assert got.shape == expected.shape
            assert got.ctx is got_ctx
            assert piece.matrix is got  # built once, then kept
            for name, value in self._fields(expected).items():
                actual = self._fields(got)[name]
                if value is None:
                    assert actual is None, name
                else:
                    np.testing.assert_array_equal(actual, value, err_msg=name)
                    assert actual.dtype == value.dtype, name
        # Building the pieces charges nothing.
        assert len(got_ctx.launches) == 1

    @pytest.mark.parametrize(
        ("layer", "K"), [(sage_layer, 3), (ladies_layer, 6)], ids=["sage", "ladies"]
    )
    def test_windows(self, layer, K, small_graph, monkeypatch):
        batches = [np.arange(8), np.arange(50, 61), np.arange(100, 105)]
        for window in (batches, batches[:1]):
            for matrix, batch_ptr, rows in _merged_windows(
                small_graph, layer, window, K, monkeypatch
            ):
                self._assert_split_equal(matrix, batch_ptr, rows)

    def test_zero_edge_and_empty_pieces(self):
        from repro.core.matrix import from_edges

        # Node 5 has no in-edges, so a batch of it splits to zero edges.
        graph = from_edges(np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]), 6)
        for frontiers, batch_ptr in (
            ([1, 5, 2], [0, 1, 2, 3]),
            ([5], [0, 1]),
            ([1, 2], [0, 0, 2, 2]),
        ):
            block = superbatch_ops.sb_slice_cols(
                graph, np.array(frontiers), np.array(batch_ptr)
            )
            self._assert_split_equal(block, np.array(batch_ptr), 6)


def test_superbatch_serving_session_builds_no_piece_matrix(monkeypatch):
    """Serving reads only a sample's node sets, so no piece of a fused
    window ever builds its matrix — the saving of building pieces on read
    cannot regress silently.  Training, which reads them, does build."""
    from repro.algorithms import make_algorithm
    from repro.datasets import load_dataset
    from repro.serve import ServePolicy, WorkloadSpec, run_cluster_session

    built = []
    build = superbatch_ops.SplitPiece.matrix.func
    monkeypatch.setattr(
        superbatch_ops.SplitPiece,
        "matrix",
        property(lambda piece: built.append(piece) or build(piece)),
    )
    pd = load_dataset("pd", scale=0.25)
    _, report = run_cluster_session(
        pd,
        device=V100,
        spec=WorkloadSpec(
            num_requests=192,
            arrival_rate=400_000.0,
            process="bursty",
            seeds_per_request=8,
            max_seeds_per_request=32,
            seed=3,
        ),
        policy=ServePolicy(max_batch=8, max_wait=5e-4, queue_capacity=32),
        composer="superbatch",
        num_replicas=2,
        router="shard",
        partition="greedy",
        feature_tiers=True,
        p2p=True,
        seed=3,
    )
    assert report.superbatch_batches > 0 and report.dedup_rows > 0
    assert built == []
    pipeline = make_algorithm("graphsage").build(pd.graph, pd.train_ids[:8])
    samples = pipeline.sample_superbatch(
        [pd.train_ids[:8], pd.train_ids[8:16]], rng=new_rng(0)
    )
    assert built == []
    assert samples[1].layers[0].matrix.nnz == samples[1].layers[0].num_edges
    assert len(built) == 1
