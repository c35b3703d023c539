"""Random-number utilities shared by the sampling kernels.

The weighted samplers rely on the **exponential race** (equivalently
Gumbel top-k), reproduced here in vectorized form: drawing
``Exp(1) / w_i`` per item and keeping the ``k`` smallest yields a
weighted sample *without* replacement in one parallel pass.  Weighted
draws *with* replacement are inverse-CDF scans per segment
(``repro.core.sampling``).
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.errors import ShapeError

_DEFAULT_SEED = 2023

#: Largest dense scratch block, in elements, ``segmented_race_select``
#: pads segments into — the padded size up to which a call is one block,
#: and half the keys from which the pool engages (``_pool_engages``;
#: DESIGN.md, "Host kernels", has the measurements).
_RACE_BLOCK_ELEMS = 1 << 18

#: ``+inf`` as a key image: every image at or above it is a key the race
#: never selects.
_INF_IMAGE = np.float64(np.inf).view(np.int64)

#: The host thread pool (``_host_pool``), and the process that built it:
#: a pool does not survive ``fork``, so a child builds its own.
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


def _pool_engages(items: int, size: int) -> bool:
    """Whether ``items`` chunks of a weighted race sharing ``size`` keys
    stream through the host thread pool (``sampling._select``).

    They do when the process may use two or more CPUs, there are two or
    more chunks and the keys fill at least one ``_RACE_BLOCK_ELEMS``
    block for each of two workers; below that, the per-thread scratch
    costs more resident memory than the split saves time (DESIGN.md,
    "Host parallelism").
    """
    return items >= 2 and size >= 2 * _RACE_BLOCK_ELEMS and _host_cpus() >= 2


def _host_pool():
    """The host thread pool, built on first use in this process."""
    global _POOL, _POOL_PID
    with _POOL_LOCK:
        if _POOL_PID != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(_host_cpus(), thread_name_prefix="repro-host")
            _POOL_PID = os.getpid()
        return _POOL


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

    ``k`` may be a scalar or a per-segment array of integers.  Items with
    ``+inf`` keys (zero weight) are never selected, and neither are NaN
    keys; segments shorter than their ``k`` return all their selectable
    items.  Returns flat positions into the original arrays, grouped by
    segment in ascending-key order, equal keys in position order.

    Work is linear in ``len(keys)``: segments are padded into dense
    ``[rows, width]`` blocks of integer key images whose low bits carry
    the column, and one sort per row yields the row's picks in order
    (:func:`_race_select_block`).  A call whose padded size — selecting
    segments times the longest of them — is at most ``_RACE_BLOCK_ELEMS``
    elements is one block, rows in segment order.  A larger call bins its
    segments by power-of-two width class (the thread / warp / block split
    C-SAW and NextDoor use for skewed frontiers) and pads every bin into
    blocks of at most that many elements (one row when a single segment
    is longer); a few huge segments are simply the widest bin.  The
    blocks run in turn on the calling thread and their picks are
    scattered back to segment order.
    """
    keys = np.asarray(keys)
    indptr = np.asarray(indptr)
    if indptr.ndim != 1 or len(indptr) == 0 or indptr[0] != 0:
        raise ShapeError("indptr must be a 1-D pointer array starting at 0")
    if indptr.dtype.kind not in "iu":
        raise ShapeError(f"indptr must be integer, got dtype {indptr.dtype}")
    # Neighbours compared, not differenced: an unsigned difference wraps.
    if (indptr[1:] < indptr[:-1]).any():
        raise ShapeError("indptr must be non-decreasing")
    # int64 positions: an unsigned pointer would promote the picks to float.
    indptr = indptr.astype(np.int64, copy=False)
    lengths = indptr[1:] - indptr[:-1]
    n_seg = len(lengths)
    if keys.shape != (int(indptr[-1]),):
        raise ShapeError("keys length must equal indptr[-1]")
    if keys.dtype.kind not in "biuf":
        raise ShapeError(f"keys must be real numbers, got dtype {keys.dtype}")
    k_array = np.asarray(k)
    if k_array.dtype.kind not in "iu":
        raise ShapeError(f"k must be an integer, got dtype {k_array.dtype}")
    if k_array.ndim != 0 and k_array.shape != (n_seg,):
        raise ShapeError(
            f"per-segment k has shape {k_array.shape}, expected ({n_seg},)"
        )
    if (k_array < 0).any():
        raise ShapeError("k must be non-negative")
    return _race_select(keys, indptr, lengths, np.minimum(lengths, k_array))


def _race_select(
    keys: np.ndarray, indptr: np.ndarray, lengths: np.ndarray, cap: np.ndarray
) -> np.ndarray:
    """:func:`segmented_race_select` on checked input, untraced, given the
    segments' ``lengths`` and their caps ``min(length, k)``: what a pool
    worker's chunk (``sampling._race_chunk``) runs."""
    active = np.flatnonzero(cap > 0)
    if len(active) == 0:
        return np.empty(0, dtype=np.int64)
    images = _key_images(keys)
    if len(active) == len(cap):
        # Every segment selects: the one block's rows are the segments.
        starts, widths, caps = indptr[:-1], lengths, cap
    else:
        starts, widths, caps = indptr[active], lengths[active], cap[active]
    if len(active) * int(widths.max()) <= _RACE_BLOCK_ELEMS:
        return _race_select_block(images, starts, widths, caps)[0]
    from repro.sparse.formats import _indptr_from_counts, gather_ranges

    # frexp's exponent of (length - 1) is its bit length: class c holds
    # the segments of 2**(c-1) < length <= 2**c.
    width_class = np.frexp(widths - 1)[1].astype(np.uint8)
    binned = active[np.argsort(width_class, kind="stable")]
    bin_ptr = _indptr_from_counts(np.bincount(width_class))
    block_rows = []
    for c in np.flatnonzero(np.diff(bin_ptr)):
        in_bin = binned[bin_ptr[c] : bin_ptr[c + 1]]
        rows_per_block = max(1, _RACE_BLOCK_ELEMS >> int(c))
        for lo in range(0, len(in_bin), rows_per_block):
            block_rows.append(in_bin[lo : lo + rows_per_block])
    taken = np.zeros(len(cap), dtype=np.int64)
    pieces = []
    for rows in block_rows:
        picks, taken[rows] = _race_select_block(
            images, indptr[rows], lengths[rows], cap[rows]
        )
        pieces.append(picks)
    # Blocks ran in bin order; scatter their picks back to segment order.
    out_ptr = _indptr_from_counts(taken)
    out = np.empty(int(out_ptr[-1]), dtype=np.int64)
    out[gather_ranges(out_ptr[binned], taken[binned])] = np.concatenate(pieces)
    return out


def _pick_counts(picks: np.ndarray, indptr: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """How many of the race's ``picks`` fell in each indptr segment, given
    the segments' caps ``min(length, k)``.

    A segment gets its cap unless it ran out of selectable keys first,
    and no segment can get more — so when the totals agree, every segment
    got exactly that.
    """
    if len(picks) == cap.sum():
        return cap
    owner = np.searchsorted(indptr, picks, side="right") - 1
    return np.bincount(owner, minlength=len(cap))


def _key_images(keys: np.ndarray) -> np.ndarray:
    """``keys`` as C-contiguous int64 images that order as the keys do.

    Every key the samplers draw is a positive float64, whose bits already
    order as its value: its image is a view, no copy.  Any other input is
    canonicalised in a float64 copy first: ``-0.0`` becomes ``+0.0``, NaN
    becomes ``+inf`` (the race selects neither), and a negative key's
    magnitude bits are flipped so that a larger magnitude orders lower.
    """
    keys = np.ascontiguousarray(keys, dtype=np.float64)
    if keys.min() > 0:
        return keys.view(np.int64)
    keys = keys + 0.0
    keys[np.isnan(keys)] = np.inf
    images = keys.view(np.int64)
    images[images < 0] ^= np.int64(0x7FFF_FFFF_FFFF_FFFF)
    return images


def _race_select_block(
    images: np.ndarray, starts: np.ndarray, lengths: np.ndarray, cap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Race-select the segments ``[starts, starts + lengths)`` of the key
    images as one dense block: their picks, row after row, and the count
    per row."""
    n_rows, width, k = len(starts), int(lengths.max()), int(cap.max())
    cols = np.arange(width, dtype=np.int64)
    # Each row copies its keys out of a window view of the images; a row
    # that would run past their end is gathered with clipping instead.
    last = len(images) - width
    windows = np.ndarray((last + 1, width), np.int64, images, 0, images.strides * 2)
    block = windows[np.minimum(starts, last)]
    late = np.flatnonzero(starts > last)
    if len(late):
        block[late] = images.take(starts[late, None] + cols, mode="clip")
    # The low bits carry the column, so one sort orders each row by key
    # and hands back every pick's position.  Every key the race never
    # selects (+inf, NaN, padding) becomes the same value, which keeps
    # inf-heavy rows cheap to sort.
    bits = (width - 1).bit_length()
    low = (1 << bits) - 1
    block &= ~low
    block |= cols
    np.minimum(block, _INF_IMAGE, out=block)
    if lengths.min() < width:
        # Columns and lengths compared in their narrowest dtype: a third
        # of the int64 compare's time.
        narrow = np.min_scalar_type(width)
        pad = np.arange(width, dtype=narrow) >= lengths.astype(narrow)[:, None]
        block[pad] = _INF_IMAGE
    block.sort(axis=1)
    # Adjacent ranks up to the cut that agree above the column bits —
    # equal keys, or keys within 2**bits ulps — may be out of key order.
    high = block[:, : k + 1] >> bits
    near = high[:, 1:] == high[:, :-1]
    full = cap.min() == k and block[:, k - 1].max() < _INF_IMAGE
    if full:
        taken = cap
    else:
        # A row short of selectable keys takes all it has.
        taken = np.minimum(cap, np.count_nonzero(block[:, :k] < _INF_IMAGE, axis=1))
        near &= cols[: near.shape[1]] < taken[:, None]
    picks = block[:, :k] & low
    if near.any():
        # Those rows are sorted again from their untagged images, stably:
        # equal keys in position order.
        redo = np.flatnonzero(near.any(axis=1))
        exact = images.take(starts[redo, None] + cols, mode="clip")
        exact[cols >= lengths[redo, None]] = _INF_IMAGE
        picks[redo] = np.argsort(exact, axis=1, kind="stable")[:, :k]
    picks += starts[:, None]
    if full:
        return picks.ravel(), taken
    return picks[cols[:k] < taken[:, None]], taken
