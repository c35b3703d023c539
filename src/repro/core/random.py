"""Random-number utilities shared by the sampling kernels.

The GPU samplers in the paper (and in SkyWalker, which gSampler compares
against) rely on two classic tricks that we reproduce here in vectorized
form:

* the **exponential race** (equivalently Gumbel top-k): drawing
  ``Exp(1) / w_i`` per item and keeping the ``k`` smallest yields a
  weighted sample *without* replacement in one parallel pass;
* the **alias method**: O(1) weighted sampling *with* replacement after an
  O(n) table build, which is what SkyWalker's kernels implement.
"""

from __future__ import annotations

import dataclasses
import os
import threading

import numpy as np

from repro.errors import ShapeError

_DEFAULT_SEED = 2023

#: Largest dense scratch block, in elements, ``segmented_race_select``
#: pads segments into — the padded size up to which a call is one block,
#: and half the keys from which ``_host_map`` uses the pool (DESIGN.md,
#: "Host kernels", has the measurements).
_RACE_BLOCK_ELEMS = 1 << 18

#: The host thread pool ``_host_map`` runs on, and the process that built
#: it: a pool does not survive ``fork``, so a child builds its own.
_POOL = None
_POOL_PID = -1
_POOL_LOCK = threading.Lock()


def new_rng(seed: int | None = _DEFAULT_SEED) -> np.random.Generator:
    """A fresh PCG64 generator; the package default seed is 2023."""
    return np.random.default_rng(seed)


def exponential_race_keys(
    weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Per-item race keys: smaller key == earlier finish == selected first.

    Items with non-positive weight get ``+inf`` keys and are never chosen
    before any positively-weighted item.
    """
    weights = np.asarray(weights, dtype=np.float64)
    keys = rng.standard_exponential(len(weights))
    _race_keys_in_place(keys, weights)
    return keys


def _race_keys_in_place(draws: np.ndarray, weights: np.ndarray) -> None:
    """Turn Exp(1) ``draws`` into race keys ``draws / weights`` in place.

    The one place draws become keys.  ``weights`` may be any real dtype:
    the division upcasts it to float64, exactly for float32.  A
    non-positive weight's key is ``+inf``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(draws, weights, out=draws)
    draws[weights <= 0] = np.inf


def _host_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _host_map(fn, items: list[tuple], size: int) -> list:
    """``[fn(*item) for item in items]``, in order, on the host thread pool
    when the work is worth splitting.

    The pool runs when the process may use two or more CPUs, there are
    two or more items and ``size`` — the keys the items share — fills at
    least one ``_RACE_BLOCK_ELEMS`` block for each of two workers; below
    that, the per-thread scratch costs more resident memory than the
    split saves time (DESIGN.md, "Host parallelism").  ``fn`` must draw
    nothing and write only its own output or its own slice: every draw
    stays on the calling thread, in stream order.
    """
    if len(items) < 2 or size < 2 * _RACE_BLOCK_ELEMS or (cpus := _host_cpus()) < 2:
        return [fn(*item) for item in items]
    global _POOL, _POOL_PID
    with _POOL_LOCK:
        if _POOL_PID != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(cpus, thread_name_prefix="repro-host")
            _POOL_PID = os.getpid()
        pool = _POOL
    return list(pool.map(fn, *zip(*items)))


def weighted_choice_without_replacement(
    weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of ``k`` items drawn without replacement, prob ∝ weight.

    When fewer than ``k`` items have positive weight, all of them are
    returned (the result may be shorter than ``k``).
    """
    weights = np.asarray(weights, dtype=np.float64)
    positive = int(np.count_nonzero(weights > 0))
    take = min(k, positive)
    if take == 0:
        return np.empty(0, dtype=np.int64)
    keys = exponential_race_keys(weights, rng)
    if take == len(keys):
        return np.flatnonzero(weights > 0).astype(np.int64)
    idx = np.argpartition(keys, take - 1)[:take]
    return idx.astype(np.int64)


def weighted_choice_with_replacement(
    weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of ``k`` items drawn with replacement, prob ∝ weight."""
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total <= 0 or k <= 0:
        return np.empty(0, dtype=np.int64)
    cdf = np.cumsum(weights)
    targets = rng.random(k) * total
    return np.searchsorted(cdf, targets, side="right").astype(np.int64)


@dataclasses.dataclass
class AliasTable:
    """Walker's alias table for O(1) weighted draws with replacement."""

    prob: np.ndarray
    alias: np.ndarray

    @classmethod
    def build(cls, weights: np.ndarray) -> "AliasTable":
        """Construct the table in O(n) from non-negative weights."""
        weights = np.asarray(weights, dtype=np.float64)
        n = len(weights)
        if n == 0:
            raise ShapeError("cannot build an alias table over zero items")
        total = weights.sum()
        if total <= 0:
            # Degenerate: uniform over all items.
            scaled = np.ones(n, dtype=np.float64)
        else:
            scaled = weights * (n / total)
        prob = np.ones(n, dtype=np.float64)
        alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = (scaled[l] + scaled[s]) - 1.0
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        return cls(prob=prob, alias=alias)

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``k`` indices with replacement."""
        n = len(self.prob)
        slots = rng.integers(0, n, size=k)
        accept = rng.random(k) < self.prob[slots]
        return np.where(accept, slots, self.alias[slots]).astype(np.int64)


def segmented_uniform_with_replacement(
    lengths: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """For each segment, draw ``k`` uniform offsets with replacement.

    Empty segments contribute nothing.  Returns ``(segment_ids, offsets)``
    flat arrays of equal length.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    nonempty = np.flatnonzero(lengths > 0)
    if len(nonempty) == 0 or k <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    seg_ids = np.repeat(nonempty, k)
    u = rng.random(len(seg_ids))
    offsets = np.floor(u * lengths[seg_ids]).astype(np.int64)
    # Guard against u == 1.0 rounding onto the segment length.
    np.minimum(offsets, lengths[seg_ids] - 1, out=offsets)
    return seg_ids, offsets


def segmented_race_select(
    keys: np.ndarray,
    indptr: np.ndarray,
    k: int | np.ndarray,
) -> np.ndarray:
    """Positions of the ``k`` smallest keys within every indptr segment.

    ``k`` may be a scalar or a per-segment array.  Items with ``+inf``
    keys (zero weight) are never selected, and neither are NaN keys;
    segments shorter than their ``k`` return all their selectable items.
    Returns flat positions into the original arrays, grouped by segment
    in ascending-key order, equal keys in position order.

    Work is linear in ``len(keys)``: segments are padded into dense
    ``[rows, width]`` blocks, where one value sort per row gives the
    threshold key that cuts the row to its ``k`` smallest.  A call whose
    padded size — selecting segments times the longest of them — is at
    most ``_RACE_BLOCK_ELEMS`` elements is one block, rows in segment
    order.  A larger call bins its segments by power-of-two width class
    (the thread / warp / block split C-SAW and NextDoor use for skewed
    frontiers) and pads every bin into blocks of at most that many
    elements (one row when a single segment is longer); a few huge
    segments are simply the widest bin.  Those blocks run on the host
    thread pool (:func:`_host_map`) and their picks are scattered back
    on the calling thread.
    """
    keys = np.asarray(keys)
    indptr = np.asarray(indptr)
    if indptr.ndim != 1 or len(indptr) == 0 or indptr[0] != 0:
        raise ShapeError("indptr must be a 1-D pointer array starting at 0")
    lengths = np.diff(indptr)
    n_seg = len(lengths)
    if np.any(lengths < 0):
        raise ShapeError("indptr must be non-decreasing")
    if keys.shape != (int(indptr[-1]),):
        raise ShapeError("keys length must equal indptr[-1]")
    if np.ndim(k) != 0 and np.shape(k) != (n_seg,):
        raise ShapeError(
            f"per-segment k has shape {np.shape(k)}, expected ({n_seg},)"
        )
    if np.any(np.asarray(k) < 0):
        raise ShapeError("k must be non-negative")
    cap = np.minimum(lengths, k)
    active = np.flatnonzero(cap > 0)
    if len(active) == 0:
        return np.empty(0, dtype=np.int64)
    active_lengths = lengths[active]
    if len(active) * int(active_lengths.max()) <= _RACE_BLOCK_ELEMS:
        return _race_select_block(
            keys, indptr[active], active_lengths, cap[active]
        )[0]
    from repro.sparse.formats import _indptr_from_counts, gather_ranges

    # frexp's exponent of (length - 1) is its bit length: class c holds
    # the segments of 2**(c-1) < length <= 2**c.
    width_class = np.frexp(active_lengths - 1)[1].astype(np.uint8)
    binned = active[np.argsort(width_class, kind="stable")]
    bin_ptr = _indptr_from_counts(np.bincount(width_class))
    block_rows = []
    for c in np.flatnonzero(np.diff(bin_ptr)):
        in_bin = binned[bin_ptr[c] : bin_ptr[c + 1]]
        rows_per_block = max(1, _RACE_BLOCK_ELEMS >> int(c))
        for lo in range(0, len(in_bin), rows_per_block):
            block_rows.append(in_bin[lo : lo + rows_per_block])
    # The blocks are independent: each reads the shared keys and returns
    # its own picks, so they may run on the host pool.
    blocks = [
        (keys, indptr[rows], lengths[rows], cap[rows]) for rows in block_rows
    ]
    taken = np.zeros(n_seg, dtype=np.int64)
    pieces = []
    for rows, (picks, counts) in zip(
        block_rows, _host_map(_race_select_block, blocks, len(keys))
    ):
        taken[rows] = counts
        pieces.append(picks)
    # Blocks ran in bin order; scatter their picks back to segment order.
    out_ptr = _indptr_from_counts(taken)
    out = np.empty(int(out_ptr[-1]), dtype=np.int64)
    out[gather_ranges(out_ptr[binned], taken[binned])] = np.concatenate(pieces)
    return out


def _race_select_counts(
    keys: np.ndarray, indptr: np.ndarray, k: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`segmented_race_select` plus how many picks each segment got.

    Package-private, for callers that lay the picks out as a pointer
    array.  A segment gets ``min(k, length)`` picks unless it ran out of
    selectable keys first, and no segment can get more — so when the
    totals agree, every segment got exactly that.
    """
    picks = segmented_race_select(keys, indptr, k)
    counts = np.minimum(np.diff(indptr), k)
    if len(picks) != counts.sum():
        owner = np.searchsorted(indptr, picks, side="right") - 1
        counts = np.bincount(owner, minlength=len(counts))
    return picks, counts


def _race_select_block(
    keys: np.ndarray, starts: np.ndarray, lengths: np.ndarray, cap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Race-select the segments ``[starts, starts + lengths)`` as one
    dense block: their picks, row after row, and the count per row."""
    n_rows, width, k = len(starts), int(lengths.max()), int(cap.max())
    cols = np.arange(width, dtype=np.int64)
    rows = np.arange(n_rows)[:, None]
    block = keys.take(starts[:, None] + cols, mode="clip")
    block = block.astype(np.float64, copy=False)
    if lengths.min() < width:
        block[cols >= lengths[:, None]] = np.inf
    # A row's picks are the keys up to its cap-th smallest.  When that
    # one is +inf or NaN (sorted last) the row runs out of selectable
    # keys first and takes every key below +inf.
    cut = np.sort(block, axis=1)[rows[:, 0], cap - 1]
    picked = block <= np.fmin(cut, np.finfo(np.float64).max)[:, None]
    taken = np.count_nonzero(picked, axis=1)
    # Keys equal to the cut on both sides of it put a row over its cap.
    # The keys are continuous draws, so that is rare, and only those
    # rows are sorted again, stably: equal keys go in position order.
    over = np.flatnonzero(taken > cap)
    if len(over):
        order = np.argsort(block[over], axis=1, kind="stable")[:, :k]
        redone = np.zeros((len(over), width), dtype=bool)
        redone[np.arange(len(over))[:, None], order] = cols[:k] < cap[over, None]
        picked[over] = redone
        taken[over] = cap[over]
    # Row-major, so each row's picks come in position order; a stable
    # sort of those few keys then leaves equal ones that way.
    flat = np.flatnonzero(picked)
    pick_keys = block.ravel()[flat]
    # Block element row * width + col is keys[starts[row] + col].
    to_position = starts[:, None] - rows * width
    if len(flat) == n_rows * k:
        flat, pick_keys = flat.reshape(n_rows, k), pick_keys.reshape(n_rows, k)
        order = np.argsort(pick_keys, axis=1, kind="stable")
        return (flat[rows, order] + to_position).ravel(), taken
    # Some row is short of k picks: pad with +inf, which sorts after
    # every pick (no +inf or NaN key is ever picked).
    slots = cols[:k] < taken[:, None]
    padded_keys = np.full((n_rows, k), np.inf)
    padded_keys[slots] = pick_keys
    padded_flat = np.zeros((n_rows, k), dtype=np.int64)
    padded_flat[slots] = flat
    order = np.argsort(padded_keys, axis=1, kind="stable")
    return (padded_flat[rows, order] + to_position)[slots], taken
