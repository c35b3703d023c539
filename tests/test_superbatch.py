"""Super-batch sampling tests (Section 4.4): independence and correctness."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import new_rng
from repro.device import ExecutionContext, V100
from repro.errors import TraceError
from repro.ir.interpreter import segmented_nodes
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


class TestSegmentDecision:
    def test_nodewise_segments_nothing(self, small_graph):
        ir, _ = trace(sage_layer, small_graph, np.arange(4), constants={"K": 2})
        assert segmented_nodes(ir) == frozenset()

    def test_layerwise_segments_the_slice_and_the_select(self, small_graph):
        ir, _ = trace(ladies_layer, small_graph, np.arange(4), constants={"K": 3})
        ops = sorted(ir.node(i).op for i in segmented_nodes(ir))
        assert ops == ["collective_sample", "slice_cols"]


class TestSegmentedOps:
    def test_sb_slice_cols_block_diagonal(self, small_graph):
        frontiers = np.array([1, 2, 3, 4])
        batch_ptr = np.array([0, 2, 4])
        out = superbatch_ops.sb_slice_cols(small_graph, frontiers, batch_ptr)
        n = small_graph.shape[0]
        assert out.shape == out.matrix.shape == (2 * n, 4)
        assert out.nbytes() == out.matrix.nbytes()
        dense = to_dense(out.matrix)
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
            block.matrix, batch_ptr, small_graph.shape[0]
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
        ledger = [tuple(launch) for launch in ctx.launches]
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
        np.testing.assert_array_equal(to_dense(got.matrix), to_dense(want.matrix))


#: Every algorithm whose compiled layers run super-batched.
SUPERBATCH_ALGORITHMS = ("asgcn", "fastgcn", "graphsage", "labor", "ladies", "vrgcn")


def test_superbatch_algorithms_are_the_capable_ones():
    from repro.algorithms import available_algorithms, make_algorithm

    capable = {n for n in available_algorithms() if make_algorithm(n).superbatch}
    assert capable == set(SUPERBATCH_ALGORITHMS)


@pytest.fixture(scope="module")
def pd_small():
    from repro.datasets import load_dataset

    return load_dataset("pd", scale=0.05)


def _charges(ctx):
    return [
        (l.name, l.bytes_read, l.bytes_written, l.flops, l.tasks)
        for l in ctx.launches
    ]


@pytest.mark.parametrize("name", SUPERBATCH_ALGORITHMS)
def test_superbatch_of_one_is_the_batch_run(name, pd_small):
    """``run_superbatch([seeds])`` is ``run(seeds)`` under the same draws:
    the same COO arrays, the same next frontiers, the generator left in
    the same state, and the same launch ledger — no ``sb_*`` kernel and
    no split.  (FastGCN's pieces used to lose the collectively sampled
    rows with no edge into their batch: 417 of 512 frontiers.  The
    ledgers differed for all six: GraphSAGE added an ``sb_split`` per
    hop, LADIES ran ``sb_*`` kernels.)"""
    from repro.algorithms import make_algorithm

    seeds = pd_small.train_ids[:32]
    pipeline = make_algorithm(name).build(
        pd_small.graph, seeds, features=pd_small.features
    )
    tensors = pipeline.tensors_fn and pipeline.tensors_fn()
    for sampler in pipeline.samplers:
        single, fused = new_rng(7), new_rng(7)
        single_ctx, fused_ctx = ExecutionContext(V100), ExecutionContext(V100)
        matrix, frontiers = sampler.run(
            seeds, tensors=tensors, ctx=single_ctx, rng=single
        )
        (piece,) = sampler.run_superbatch(
            [seeds], tensors=tensors, ctx=fused_ctx, rng=fused
        )
        assert _charges(fused_ctx) == _charges(single_ctx)
        assert fused_ctx.memory.stats() == single_ctx.memory.stats()
        for got, want in zip(
            piece.matrix.to_coo_arrays(), matrix.to_coo_arrays()
        ):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(piece.next_frontiers, frontiers)
        assert piece.nnz == matrix.nnz
        assert fused.bit_generator.state == single.bit_generator.state


#: The nodes each capable algorithm's distinct compiled layers segment by
#: batch, by the computation knob (the layout and super-batch knobs move
#: none): exactly the nodes the super-batch rewrite pass renamed to their
#: ``sb_*`` forms before the decision moved onto the compiled program.
SEGMENTED = {
    "asgcn": {
        "C0": [{(4, "slice_cols"), (10, "collective_sample")}],
        "C1": [{(4, "slice_cols"), (10, "collective_sample")}],
    },
    "fastgcn": {
        "C0": [{(2, "slice_cols"), (5, "collective_sample")}],
        "C1": [{(2, "slice_cols"), (5, "collective_sample")}],
    },
    "graphsage": {"C0": [set(), set(), set()], "C1": [set(), set(), set()]},
    "labor": {"C0": [set(), set(), set()], "C1": [set(), set(), set()]},
    "ladies": {
        "C0": [{(2, "slice_cols"), (5, "collective_sample")}],
        "C1": [
            {
                (2, "slice_cols"),
                (14, "fused_extract_reduce"),
                (5, "collective_sample"),
            }
        ],
    },
    "vrgcn": {"C0": [set(), set()], "C1": [set(), set()]},
}


@pytest.mark.parametrize("name", SUPERBATCH_ALGORITHMS)
def test_segment_decision_is_the_rewrite_table(name, pd_small):
    from repro.algorithms import make_algorithm
    from repro.sampler import OptimizationConfig

    assert set(SEGMENTED) == set(SUPERBATCH_ALGORITHMS)
    for config in OptimizationConfig.all_combinations():
        pipeline = make_algorithm(name).build(
            pd_small.graph,
            pd_small.train_ids[:32],
            features=pd_small.features,
            config=config,
        )
        samplers = {id(s): s for s in pipeline.samplers}.values()
        got = [
            {(i, sampler.ir.node(i).op) for i in sampler.segmented}
            for sampler in samplers
        ]
        assert got == SEGMENTED[name][config.label()[:2]], config.label()


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

    def capture(matrix, batch_ptr, num_graph_rows, ctx, **kwargs):
        seen.append((matrix, batch_ptr, num_graph_rows, kwargs))
        return real(matrix, batch_ptr, num_graph_rows, ctx, **kwargs)

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

    def _assert_split_equal(self, matrix, batch_ptr, num_graph_rows, **kwargs):
        got_ctx, want_ctx = ExecutionContext(V100), ExecutionContext(V100)
        pieces = superbatch_ops.split_sample(
            matrix, batch_ptr, num_graph_rows, got_ctx, **kwargs
        )
        want = _parent_split_sample(matrix, batch_ptr, num_graph_rows, want_ctx)
        assert got_ctx.launches == want_ctx.launches
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
        windows = _merged_windows(small_graph, layer, batches, K, monkeypatch)
        assert windows
        for matrix, batch_ptr, rows, kwargs in windows:
            self._assert_split_equal(matrix, batch_ptr, rows, **kwargs)
        # A window of one is the batch run: nothing is split.
        assert not _merged_windows(small_graph, layer, batches[:1], K, monkeypatch)

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
            self._assert_split_equal(block.matrix, np.array(batch_ptr), 6)


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


# ----------------------------------------------------------------------
# The deferred block slice.  The segmented operators' earlier bodies,
# which built the block-diagonal slice and relabelled it, are kept
# verbatim as their oracle.
# ----------------------------------------------------------------------
def _materialized_sb_slice_cols(matrix, frontiers, batch_ptr, ctx):
    """``sb_slice_cols`` building the block-diagonal CSC eagerly."""
    from repro.core.matrix import Matrix
    from repro.sparse import CSC
    from repro.sparse.formats import _indptr_from_counts

    _ITEM, _VAL = superbatch_ops._ITEM, superbatch_ops._VAL
    csc = matrix.get("csc")
    ranges = superbatch_ops.block_ranges(csc, frontiers, batch_ptr)
    flat = ranges.flat
    out = CSC(
        indptr=_indptr_from_counts(ranges.lengths),
        rows=ranges.block_rows,
        values=None if csc.values is None else csc.values[flat],
        shape=((len(ranges.batch_ptr) - 1) * matrix.shape[0], len(ranges.ids)),
        edge_ids=flat if csc.edge_ids is None else csc.edge_ids[flat],
    )
    read = len(ranges.ids) * 2 * _ITEM + out.nnz * (_ITEM + _VAL)
    ctx.record(
        "sb_slice_cols",
        bytes_read=read,
        bytes_written=out.nbytes(),
        flops=out.nnz * 2.0,
        tasks=max(out.nnz, 1),
        graph_bytes=read if matrix.is_base_graph else 0.0,
    )
    return Matrix(out, col_ids=ranges.ids, ctx=ctx)


def _materialized_sb_fused_extract_reduce(matrix, frontiers, batch_ptr, op, axis, ctx):
    """``sb_fused_extract_reduce`` binning over block rows."""
    _ITEM, _VAL = superbatch_ops._ITEM, superbatch_ops._VAL
    csc = matrix.get("csc")
    ranges = superbatch_ops.block_ranges(csc, frontiers, batch_ptr)
    flat = ranges.flat
    vals = (
        np.ones(len(flat), dtype=np.float64)
        if csc.values is None
        else csc.values[flat].astype(np.float64)
    )
    out = np.bincount(
        ranges.block_rows,
        weights=vals,
        minlength=(len(ranges.batch_ptr) - 1) * matrix.shape[0],
    ).astype(np.float32)
    read = len(ranges.ids) * 2 * _ITEM + len(flat) * (_ITEM + _VAL)
    ctx.record(
        "sb_fused_extract_reduce",
        bytes_read=read,
        bytes_written=out.nbytes,
        flops=float(len(flat)) * 2.0,
        tasks=max(len(flat), 1),
        graph_bytes=read if matrix.is_base_graph else 0.0,
    )
    return out


def _materialized_sb_collective_sample(
    matrix, k, batch_ptr, node_probs=None, *, rng=None, ctx
):
    """``sb_collective_sample`` keying every row and relabelling the
    built slice."""
    from repro.core import random as rnd
    from repro.core.matrix import Matrix
    from repro.sparse import INDEX_DTYPE, reduce_rows
    from repro.sparse.compact import _relabel

    _ITEM, _VAL = superbatch_ops._ITEM, superbatch_ops._VAL
    num_batches = len(batch_ptr) - 1
    csc = matrix.get("csc")
    total_rows = csc.shape[0]
    rows_per_batch = total_rows // num_batches
    if node_probs is None:
        node_probs = reduce_rows(csc, "sum", ctx).astype(np.float64)
    else:
        node_probs = np.asarray(node_probs, dtype=np.float64)
        if node_probs.shape == (rows_per_batch,):
            node_probs = np.tile(node_probs, num_batches)
    keys = rnd.exponential_race_keys(node_probs, rng)
    seg_ptr = np.arange(num_batches + 1, dtype=INDEX_DTYPE) * rows_per_batch
    selected = rnd.segmented_race_select(keys, seg_ptr, k)
    selected = np.sort(selected).astype(INDEX_DTYPE)
    sub = _relabel(csc, selected, 0)
    ctx.record(
        "sb_collective_sample",
        bytes_read=node_probs.nbytes
        + csc.nnz * (_ITEM + (_VAL if csc.values is not None else 0)),
        bytes_written=sub.nbytes() + selected.nbytes,
        flops=total_rows + csc.nnz,
        tasks=max(csc.nnz, 1),
    )
    row_ids = selected if matrix.row_ids is None else matrix.row_ids[selected]
    return Matrix(sub, row_ids=row_ids, col_ids=matrix.col_ids, ctx=ctx)


_MATERIALIZED = {
    "sb_slice_cols": _materialized_sb_slice_cols,
    "sb_fused_extract_reduce": _materialized_sb_fused_extract_reduce,
    "sb_collective_sample": _materialized_sb_collective_sample,
}

LAYERWISE = ("ladies", "fastgcn", "asgcn")


@pytest.fixture(scope="module")
def pd_quarter():
    from repro.datasets import load_dataset

    return load_dataset("pd", scale=0.25)


def _layerwise_epoch(name, dataset, config, num_batches, monkeypatch, *, oracle):
    """Samples, ledger, pool stats and generator state of ``num_batches``
    batches of 32 seeds sampled as one super-batch."""
    from repro.algorithms import make_algorithm
    from tests.test_algorithm_golden import _arrays

    seeds = dataset.train_ids[: 32 * num_batches]
    batches = [seeds[i : i + 32] for i in range(0, len(seeds), 32)]
    pipeline = make_algorithm(name).build(
        dataset.graph, batches[0], features=dataset.features, config=config
    )
    ctx, rng = ExecutionContext(V100), new_rng(5)
    with monkeypatch.context() as patch:
        if oracle:
            for attr, body in _MATERIALIZED.items():
                patch.setattr(superbatch_ops, attr, body)
        samples = pipeline.sample_superbatch(batches, ctx=ctx, rng=rng)
    # Ledger first: reading a sample's arrays may convert layouts.
    ledger = [tuple(launch) for launch in ctx.launches]
    stats = ctx.memory.stats()
    return ledger, stats, rng.bit_generator.state, _arrays(samples)


@pytest.mark.parametrize("num_batches", [1, 3])
@pytest.mark.parametrize("name", LAYERWISE)
def test_deferred_slice_equals_the_materialized_oracle(
    name, num_batches, pd_quarter, monkeypatch
):
    """Sampling from the slice's ranges keeps every sample, launch, pool
    stat and draw of building the slice and relabelling it, in all 8
    configs — LADIES under ``C0D0`` included, where the slice is laid out
    as COO and read by a second node."""
    from repro.sampler import OptimizationConfig

    for config in OptimizationConfig.all_combinations():
        got = _layerwise_epoch(
            name, pd_quarter, config, num_batches, monkeypatch, oracle=False
        )
        want = _layerwise_epoch(
            name, pd_quarter, config, num_batches, monkeypatch, oracle=True
        )
        for part, got_part, want_part in zip(
            ("ledger", "pool stats", "generator", "samples"), got, want
        ):
            assert got_part == want_part, (config.label(), part)
        if num_batches > 1:
            assert any(launch[0] == "sb_collective_sample" for launch in got[0])


def test_ladies_c0d0_slice_is_coo_with_a_second_reader(pd_small):
    from repro.algorithms import make_algorithm
    from repro.sampler import OptimizationConfig

    pipeline = make_algorithm("ladies").build(
        pd_small.graph,
        pd_small.train_ids[:32],
        config=OptimizationConfig(computation=False, layout=False),
    )
    (sampler,) = {id(s): s for s in pipeline.samplers}.values()
    (slice_id,) = [
        i for i in sampler.segmented if sampler.ir.node(i).op == "slice_cols"
    ]
    assert sampler.ir.node(slice_id).layout == "coo"
    readers = [n.op for n in sampler.ir.nodes() if slice_id in n.inputs]
    assert sorted(readers) == ["collective_sample", "map_scalar"]


#: How many times each super-batched hop builds its block-diagonal CSC, by
#: the computation knob: never where the segmented collective sample is
#: its only reader; once where a row reduce or an edge map reads it too.
BUILDS_PER_HOP = {
    "ladies": {"C0": 1, "C1": 0},
    "fastgcn": {"C0": 0, "C1": 0},
    "asgcn": {"C0": 1, "C1": 1},
}


@pytest.mark.parametrize("name", LAYERWISE)
def test_block_slice_is_built_only_for_a_reader_that_needs_it(
    name, pd_small, monkeypatch
):
    from repro.algorithms import make_algorithm
    from repro.sampler import OptimizationConfig

    built = []
    build = superbatch_ops.BlockSlice.matrix.func
    counted = functools.cached_property(
        lambda block: built.append(block) or build(block)
    )
    counted.__set_name__(superbatch_ops.BlockSlice, "matrix")
    monkeypatch.setattr(superbatch_ops.BlockSlice, "matrix", counted)
    slices = []
    real = superbatch_ops.sb_slice_cols
    monkeypatch.setattr(
        superbatch_ops,
        "sb_slice_cols",
        lambda *args: slices.append(real(*args)) or slices[-1],
    )
    for config in OptimizationConfig.all_combinations():
        del built[:], slices[:]
        pipeline = make_algorithm(name).build(
            pd_small.graph,
            pd_small.train_ids[:32],
            features=pd_small.features,
            config=config,
        )
        pipeline.sample_superbatch(
            [pd_small.train_ids[i : i + 32] for i in (0, 32, 64)], rng=new_rng(3)
        )
        assert slices, config.label()
        per_hop = BUILDS_PER_HOP[name][config.label()[:2]]
        assert len(built) == per_hop * len(slices), config.label()
