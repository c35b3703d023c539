"""The node-wise Select against the body it replaced: ``sampling._select``
below and above the pool floor equals the older select, which planned
chunks and probed the pool on every call and re-derived the segment
lengths in every helper — array for array, launch for launch, draw for
draw.  And the inline race stays one traced ``segmented_race_select``
call per hop, which is what ``perfbench`` counts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import random as rnd
from repro.core import sampling
from repro.core.sampling import fused_extract_individual_sample, individual_sample
from repro.device import V100, ExecutionContext
from repro.sparse import CSC
from repro.sparse.formats import INDEX_DTYPE, _indptr_from_counts, gather_ranges


# ----------------------------------------------------------------------
# The older select, verbatim but for its helpers' names: the chunk plan
# and pool probe ran on every weighted call, and the race and the pick
# counts each diffed the pointer again.
# ----------------------------------------------------------------------
def _older_select(csc, starts, lengths, weights, k, replace, rng):
    indptr = _indptr_from_counts(lengths)
    total = int(indptr[-1])
    chunks = []
    if weights is not None and not replace and total > 0:
        # Range bounds of chunks of about one race block of candidates.
        bounds = np.searchsorted(
            indptr, np.arange(0, total, rnd._RACE_BLOCK_ELEMS)
        ).tolist() + [len(lengths)]
        chunks = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    if rnd._pool_engages(len(chunks), total):
        pool = rnd._host_pool()
        futures = [
            pool.submit(
                _older_race_chunk,
                rng.standard_exponential(int(indptr[b] - indptr[a])),
                weights, starts[a:b], lengths[a:b], k,
            )
            for a, b in chunks
        ]
        pieces = [future.result() for future in futures]
        picks = np.concatenate([picks for picks, _ in pieces])
        counts = np.concatenate([counts for _, counts in pieces])
    else:
        if total == 0:
            local = np.empty(0, dtype=INDEX_DTYPE)
            counts = np.zeros(len(lengths), dtype=INDEX_DTYPE)
        elif replace:
            if weights is None:
                seg_ids, local = rnd.segmented_uniform_with_replacement(
                    lengths, k, rng
                )
                local += indptr[seg_ids]
            else:
                bias = weights[gather_ranges(starts, lengths)].astype(np.float64)
                local = sampling._segmented_biased_with_replacement(
                    indptr, bias, k, rng
                )
                seg_ids = sampling._segments_of(local, indptr)
            counts = np.bincount(seg_ids, minlength=len(lengths))
        else:
            if weights is None:
                keys = rng.random(total)
            else:
                keys = rng.standard_exponential(total)
                # Chunk by chunk: one gather of every candidate's weight
                # costs more time and memory than the chunks' cache-sized
                # ones.
                for a, b in chunks:
                    rnd._race_keys_in_place(
                        keys[indptr[a] : indptr[b]],
                        weights[gather_ranges(starts[a:b], lengths[a:b])],
                    )
            local = rnd.segmented_race_select(keys, indptr, k)
            counts = _older_pick_counts(local, indptr, k)
        # Picks are grouped by range: shift each group from its place
        # among the candidates back to its range in ``csc``.
        picks = local + np.repeat(starts - indptr[:-1], counts)
    out = CSC(
        indptr=_indptr_from_counts(counts),
        rows=csc.rows[picks],
        values=None if csc.values is None else csc.values[picks],
        shape=(csc.shape[0], len(lengths)),
        edge_ids=picks if csc.edge_ids is None else csc.edge_ids[picks],
    )
    return out, total


def _older_race_chunk(draws, weights, starts, lengths, k):
    rnd._race_keys_in_place(draws, weights[gather_ranges(starts, lengths)])
    indptr = _indptr_from_counts(lengths)
    picks = _older_race_select(draws, indptr, k)
    counts = _older_pick_counts(picks, indptr, k)
    return picks + np.repeat(starts - indptr[:-1], counts), counts


def _older_race_select(keys, indptr, k):
    lengths = np.diff(indptr)
    n_seg = len(lengths)
    cap = np.minimum(lengths, k)
    active = np.flatnonzero(cap > 0)
    if len(active) == 0:
        return np.empty(0, dtype=np.int64)
    images = rnd._key_images(keys)
    active_lengths = lengths[active]
    if len(active) * int(active_lengths.max()) <= rnd._RACE_BLOCK_ELEMS:
        return rnd._race_select_block(
            images, indptr[active], active_lengths, cap[active]
        )[0]
    # frexp's exponent of (length - 1) is its bit length: class c holds
    # the segments of 2**(c-1) < length <= 2**c.
    width_class = np.frexp(active_lengths - 1)[1].astype(np.uint8)
    binned = active[np.argsort(width_class, kind="stable")]
    bin_ptr = _indptr_from_counts(np.bincount(width_class))
    block_rows = []
    for c in np.flatnonzero(np.diff(bin_ptr)):
        in_bin = binned[bin_ptr[c] : bin_ptr[c + 1]]
        rows_per_block = max(1, rnd._RACE_BLOCK_ELEMS >> int(c))
        for lo in range(0, len(in_bin), rows_per_block):
            block_rows.append(in_bin[lo : lo + rows_per_block])
    taken = np.zeros(n_seg, dtype=np.int64)
    pieces = []
    for rows in block_rows:
        picks, taken[rows] = rnd._race_select_block(
            images, indptr[rows], lengths[rows], cap[rows]
        )
        pieces.append(picks)
    # Blocks ran in bin order; scatter their picks back to segment order.
    out_ptr = _indptr_from_counts(taken)
    out = np.empty(int(out_ptr[-1]), dtype=np.int64)
    out[gather_ranges(out_ptr[binned], taken[binned])] = np.concatenate(pieces)
    return out


def _older_pick_counts(picks, indptr, k):
    counts = np.minimum(np.diff(indptr), k)
    if len(picks) != counts.sum():
        owner = np.searchsorted(indptr, picks, side="right") - 1
        counts = np.bincount(owner, minlength=len(counts))
    return counts


# ----------------------------------------------------------------------
#: A race block small enough that the graph below crosses the pool
#: floor (``2 * _RACE_BLOCK_ELEMS`` candidates) many chunks over.
_SMALL_BLOCK = 32


@pytest.fixture(params=["below", "above-inline", "above-pooled"])
def floor(request, monkeypatch):
    """Where the selects sit against the pool floor: below it (the real
    block size), or above it on one CPU (chunked keys, one select) or on
    two (streamed through a fresh pool)."""
    monkeypatch.setattr(rnd, "_POOL", None)
    monkeypatch.setattr(rnd, "_POOL_PID", -1)
    if request.param != "below":
        monkeypatch.setattr(rnd, "_RACE_BLOCK_ELEMS", _SMALL_BLOCK)
    cpus = 2 if request.param == "above-pooled" else 1
    monkeypatch.setattr(rnd, "_host_cpus", lambda: cpus)
    yield request.param
    if rnd._POOL is not None:
        rnd._POOL.shutdown()


def _graph(edge_ids: bool) -> CSC:
    """300 columns of 0–39 edges; float32 weights, a fifth of them zero
    and a few negative."""
    rng = np.random.default_rng(5)
    indptr = _indptr_from_counts(rng.integers(0, 40, size=300))
    nnz = int(indptr[-1])
    values = rng.random(nnz).astype(np.float32)
    values[rng.random(nnz) < 0.2] = 0.0
    values[rng.random(nnz) < 0.02] = -1.0
    return CSC(
        indptr=indptr,
        rows=rng.integers(0, 300, size=nnz),
        values=values,
        shape=(300, 300),
        edge_ids=rng.permutation(nnz) if edge_ids else None,
    )


def _run(sample, select, monkeypatch):
    """``sample(ctx, rng)`` with ``sampling._select`` set to ``select``:
    the sample's arrays, the launch ledger and the generator's end state."""
    monkeypatch.setattr(sampling, "_select", select)
    ctx = ExecutionContext(V100)
    rng = np.random.default_rng(11)
    out = sample(ctx, rng)
    arrays = {
        field: getattr(out, field)
        for field in ("indptr", "rows", "values", "edge_ids")
    }
    ledger = [tuple(launch) for launch in ctx.launches]
    return arrays, ledger, rng.bit_generator.state, out.shape


def _assert_equal_runs(got, want):
    (arrays, *rest), (old_arrays, *old_rest) = got, want
    for field, array in arrays.items():
        old = old_arrays[field]
        if old is None:
            assert array is None, field
            continue
        assert array.dtype == old.dtype, field
        np.testing.assert_array_equal(array, old, err_msg=field)
    assert rest == old_rest  # ledger, generator state, shape


@pytest.mark.parametrize("frontier_dtype", [np.int32, np.uint64, np.int64])
@pytest.mark.parametrize("k", [4, 50])  # 50 > every degree
@pytest.mark.parametrize("bias", ["values", "probs", "uniform"])
@pytest.mark.parametrize("replace", [False, True])
@pytest.mark.parametrize("edge_ids", [False, True])
def test_fused_select_equals_the_older_select(
    floor, frontier_dtype, k, bias, replace, edge_ids, monkeypatch
):
    csc = _graph(edge_ids)
    if bias == "uniform":
        csc.values = None
    probs = None
    if bias == "probs":
        probs = np.random.default_rng(3).random(csc.nnz)
        probs[probs < 0.3] = 0.0
    frontiers = np.random.default_rng(4).integers(0, 300, size=200)
    frontiers = frontiers.astype(frontier_dtype)

    def sample(ctx, rng):
        return fused_extract_individual_sample(
            csc, frontiers, k, probs, replace=replace, rng=rng, ctx=ctx
        )

    _assert_equal_runs(
        _run(sample, sampling._select, monkeypatch),
        _run(sample, _older_select, monkeypatch),
    )


@pytest.mark.parametrize("k", [4, 50])
@pytest.mark.parametrize("bias", ["values", "probs"])
def test_unfused_select_equals_the_older_select(floor, k, bias, monkeypatch):
    csc = _graph(edge_ids=False)
    probs = None
    if bias == "probs":
        probs = np.random.default_rng(3).random(csc.nnz)
        probs[probs < 0.3] = 0.0

    def sample(ctx, rng):
        return individual_sample(csc, k, probs, rng=rng, ctx=ctx)

    _assert_equal_runs(
        _run(sample, sampling._select, monkeypatch),
        _run(sample, _older_select, monkeypatch),
    )


def test_the_floor_cases_reach_both_sides(floor, monkeypatch):
    """The fixture's cases are what they say: the graph's candidates sit
    below ``2 * _RACE_BLOCK_ELEMS`` at the real block size and above it
    at the small one, and only the two-CPU case streams."""
    csc = _graph(edge_ids=False)
    submitted = []
    race_chunk = sampling._race_chunk
    monkeypatch.setattr(
        sampling, "_race_chunk", lambda *args: submitted.append(1) or race_chunk(*args)
    )
    above = csc.nnz >= 2 * rnd._RACE_BLOCK_ELEMS
    assert above == (floor != "below")
    fused_extract_individual_sample(
        csc, np.arange(300), 4, rng=np.random.default_rng(0)
    )
    assert bool(submitted) == (floor == "above-pooled")


def test_below_the_floor_the_pool_is_not_probed(monkeypatch):
    """Below ``2 * _RACE_BLOCK_ELEMS`` candidates the weighted select is
    one chunk: it neither asks whether the pool engages nor how many CPUs
    it may use."""

    def refuse(*args, **kwargs):
        raise AssertionError("probed below the pool floor")

    monkeypatch.setattr(rnd, "_pool_engages", refuse)
    monkeypatch.setattr(rnd, "_host_cpus", refuse)
    csc = _graph(edge_ids=False)
    assert csc.nnz < 2 * rnd._RACE_BLOCK_ELEMS
    out = fused_extract_individual_sample(
        csc, np.arange(300), 4, rng=np.random.default_rng(0)
    )
    assert out.nnz > 0


def test_a_graphsage_hop_is_one_traced_race(monkeypatch):
    """A 64-seed sample of the serving GraphSAGE pipeline calls
    ``segmented_race_select`` once per hop through its module attribute —
    the call ``perfbench`` wraps as ``core.race_select`` — so a
    ``serve_fifo`` round of 256 two-hop batches counts 512 of them."""
    from repro.datasets import load_dataset
    from repro.serve.replica import build_pipelines

    dataset = load_dataset("pd", scale=0.1)
    pipeline = build_pipelines(dataset, "graphsage")[0]
    segments = []
    traced = rnd.segmented_race_select

    def counting(keys, indptr, k):
        segments.append(len(indptr) - 1)
        return traced(keys, indptr, k)

    monkeypatch.setattr(rnd, "segmented_race_select", counting)
    seeds = dataset.train_ids[:64]
    pipeline.sample_batch(seeds, rng=np.random.default_rng(0))
    assert len(segments) == 2
    assert segments[0] == len(seeds)
