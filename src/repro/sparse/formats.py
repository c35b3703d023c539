"""Sparse storage formats: COO, CSR, and CSC.

gSampler stores graphs and intermediate matrices in one of three sparse
layouts (Section 4.3): compressed sparse row (CSR, out-neighbors of each
node consecutive), compressed sparse column (CSC, in-neighbors
consecutive), and coordinate list (COO, a flat edge list).  Different
operators prefer different layouts — Table 5 of the paper quantifies this
for LADIES — and the layout-selection pass chooses among them.

A matrix entry ``A[u, v]`` is an edge ``u -> v``; the row of ``v`` holds
its out-going edges and the column of ``v`` its in-coming edges, matching
the paper's convention.  All formats carry:

* ``values`` — per-edge weights, or ``None`` for an unweighted graph
  (implicitly all ones),
* ``edge_ids`` — per-edge ids into the *original* graph's edge array, or
  ``None`` for the identity.  Conversions and slices permute these along
  with the values, so per-edge features stay addressable and the
  pre-processing pass can substitute pre-computed edge data.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import ClassVar

import numpy as np

from repro.errors import FormatError, ShapeError, check_ids

#: dtype used for all index arrays.
INDEX_DTYPE = np.int64
#: dtype used for all edge values.
VALUE_DTYPE = np.float32

#: Canonical layout names, in the order used by cost tables.
LAYOUTS = ("csc", "coo", "csr")

#: ``sorted_unique`` scatters into a flag array only while the id space is
#: at most this many times the input (DESIGN.md, "Host kernels", has the
#: measurements).
_UNIQUE_BOUND_RATIO = 8

#: Axis 0 and 1 as the index fields (COO has both; CSR/CSC the minor one)
#: and the kernel-name strings spell them.
_AXES = ("rows", "cols")


def as_index_array(data: object) -> np.ndarray:
    """Coerce ``data`` to a 1-D int64 index array (copying only if needed)."""
    arr = np.asarray(data, dtype=INDEX_DTYPE)
    if arr.ndim != 1:
        raise ShapeError(f"index array must be 1-D, got shape {arr.shape}")
    return arr


def as_value_array(data: object) -> np.ndarray:
    """Coerce ``data`` to a 1-D float32 value array."""
    arr = np.asarray(data, dtype=VALUE_DTYPE)
    if arr.ndim != 1:
        raise ShapeError(f"value array must be 1-D, got shape {arr.shape}")
    return arr


def _check_shape(shape: tuple[int, int]) -> tuple[int, int]:
    if len(shape) != 2 or shape[0] < 0 or shape[1] < 0:
        raise ShapeError(f"matrix shape must be two non-negative ints, got {shape}")
    return (int(shape[0]), int(shape[1]))


def _check_edge_payload(matrix: "SparseFormat") -> None:
    """Coerce and length-check the optional per-edge arrays."""
    if matrix.values is not None:
        matrix.values = as_value_array(matrix.values)
        if len(matrix.values) != matrix.nnz:
            raise ShapeError("values length must equal nnz")
    if matrix.edge_ids is not None:
        matrix.edge_ids = as_index_array(matrix.edge_ids)
        if len(matrix.edge_ids) != matrix.nnz:
            raise ShapeError("edge_ids length must equal nnz")


def _nbytes(*arrays: np.ndarray | None) -> int:
    return sum(a.nbytes for a in arrays if a is not None)


def _take(arr: np.ndarray | None, selection: np.ndarray) -> np.ndarray | None:
    """An optional per-edge array under an edge selection (order or mask)."""
    return None if arr is None else arr[selection]


def _indptr_from_counts(counts: np.ndarray) -> np.ndarray:
    """The pointer array whose segment ``i`` holds ``counts[i]`` edges."""
    indptr = np.zeros(len(counts) + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return indptr


@dataclasses.dataclass
class COO:
    """Coordinate-list storage: parallel ``rows``/``cols`` edge arrays."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray | None
    shape: tuple[int, int]
    edge_ids: np.ndarray | None = None

    layout: ClassVar[str] = "coo"
    #: No pointer array, so neither axis is compressed.
    axis: ClassVar[None] = None

    def __post_init__(self) -> None:
        self.rows = as_index_array(self.rows)
        self.cols = as_index_array(self.cols)
        self.shape = _check_shape(self.shape)
        if self.rows.shape != self.cols.shape:
            raise ShapeError("rows and cols must have equal length")
        _check_edge_payload(self)
        if len(self.rows) and (
            self.rows.max(initial=-1) >= self.shape[0]
            or self.cols.max(initial=-1) >= self.shape[1]
        ):
            raise ShapeError("edge endpoint out of bounds for shape")

    @property
    def nnz(self) -> int:
        return len(self.rows)

    def nbytes(self) -> int:
        """Bytes of device storage this container occupies."""
        return _nbytes(self.rows, self.cols, self.values, self.edge_ids)


class _Compressed:
    """What CSR and CSC share: a pointer array over one axis.

    ``indptr`` compresses axis ``axis`` (0: rows, CSR; 1: columns, CSC), so
    the edges of one row (column) are consecutive; ``minor`` — the ``cols``
    (``rows``) field — is each edge's index on the other axis.  Kernels are
    written once against this pair, the way scipy's ``_cs_matrix._swap``
    serves both of its compressed formats.
    """

    axis: ClassVar[int]

    def __post_init__(self) -> None:
        minor = _AXES[1 - self.axis]
        self.indptr = as_index_array(self.indptr)
        setattr(self, minor, as_index_array(getattr(self, minor)))
        self.shape = _check_shape(self.shape)
        extent = self.shape[self.axis]
        if len(self.indptr) != extent + 1:
            raise ShapeError(
                f"indptr length {len(self.indptr)} != "
                f"{_AXES[self.axis]} + 1 = {extent + 1}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.nnz:
            raise FormatError("indptr must start at 0 and end at nnz")
        if (self.indptr[1:] < self.indptr[:-1]).any():
            raise FormatError("indptr must be non-decreasing")
        _check_edge_payload(self)

    @property
    def minor(self) -> np.ndarray:
        """Per-edge index on the axis ``indptr`` does not compress."""
        return getattr(self, _AXES[1 - self.axis])

    @property
    def nnz(self) -> int:
        return len(self.minor)

    def _degrees(self) -> np.ndarray:
        """Edge count of every row (CSR) / column (CSC)."""
        return np.diff(self.indptr)

    def _expand(self) -> np.ndarray:
        """Per-edge index on the compressed axis (the pointer, decompressed)."""
        return np.repeat(
            np.arange(self.shape[self.axis], dtype=INDEX_DTYPE), self._degrees()
        )

    def _has_nonuniform_values(self) -> bool:
        """True when edge weights actually vary (samplers skip the biased
        path if not).  Scanned once per ``values`` array, not once per
        call: the base graph is asked for every sampled batch."""
        values = self.values
        if values is None:
            return False
        seen = getattr(self, "_nonuniform", None)
        if seen is None or seen[0] is not values:
            seen = (values, len(values) > 0 and bool(np.any(values != values[0])))
            self._nonuniform = seen
        return seen[1]

    def _endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge ``(rows, cols)`` index arrays."""
        pair = (self._expand(), self.minor)
        return pair if self.axis == 0 else pair[::-1]

    def nbytes(self) -> int:
        """Bytes of device storage this container occupies."""
        return _nbytes(self.indptr, self.minor, self.values, self.edge_ids)


@dataclasses.dataclass
class CSR(_Compressed):
    """Compressed sparse row: per-row slices of column indices."""

    indptr: np.ndarray
    cols: np.ndarray
    values: np.ndarray | None
    shape: tuple[int, int]
    edge_ids: np.ndarray | None = None

    layout: ClassVar[str] = "csr"
    axis: ClassVar[int] = 0

    #: Edge count of every row; per-edge row indices (the COO ``rows``).
    row_degrees = _Compressed._degrees
    expand_rows = _Compressed._expand


@dataclasses.dataclass
class CSC(_Compressed):
    """Compressed sparse column: per-column slices of row indices."""

    indptr: np.ndarray
    rows: np.ndarray
    values: np.ndarray | None
    shape: tuple[int, int]
    edge_ids: np.ndarray | None = None

    layout: ClassVar[str] = "csc"
    axis: ClassVar[int] = 1

    #: Edge count (in-degree) of every column; per-edge column indices.
    col_degrees = _Compressed._degrees
    expand_cols = _Compressed._expand


#: Union of the three storage containers.
SparseFormat = COO | CSR | CSC


def edge_values(matrix: SparseFormat) -> np.ndarray:
    """The per-edge value array, materializing implicit ones if needed."""
    if matrix.values is not None:
        return matrix.values
    return np.ones(matrix.nnz, dtype=VALUE_DTYPE)


def edge_ids_or_identity(matrix: SparseFormat) -> np.ndarray:
    """The per-edge id array, materializing the identity if needed."""
    if matrix.edge_ids is not None:
        return matrix.edge_ids
    return np.arange(matrix.nnz, dtype=INDEX_DTYPE)


def gather_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + l)`` for every (start, length) pair.

    This is the core gather primitive behind CSC/CSR slicing: given the
    start offset and length of each selected row/column, it produces the
    flat positions of their edges without a Python loop.
    """
    starts = as_index_array(starts)
    lengths = as_index_array(lengths)
    if starts.shape != lengths.shape:
        raise ShapeError("starts and lengths must have equal length")
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    # Standard vectorized "ragged arange": a global arange, shifted per
    # segment from where the segment sits in the output to where it
    # starts in the source.
    shift = starts - (np.cumsum(lengths) - lengths)
    return np.repeat(shift, lengths) + np.arange(total, dtype=INDEX_DTYPE)


class FrontierRanges:
    """The edge ranges of checked ``ids`` in one compressed topology.

    A hop that slices ``A[:, f]`` and extract-reduces ``(A ** 2)[:, f]``
    reads the same ranges of the same ``indptr`` / ``rows`` twice; handed
    one ``FrontierRanges``, the two kernels gather them once.  Each part
    is gathered on first use, inside the kernel that first needs it.
    """

    def __init__(self, matrix: "CSR | CSC", ids: np.ndarray) -> None:
        self.indptr = matrix.indptr
        self.minor = matrix.minor
        self.shape = matrix.shape
        self.ids = ids

    def of(self, matrix: "CSR | CSC") -> bool:
        """Whether these ranges were gathered from ``matrix``'s topology."""
        return (
            matrix.indptr is self.indptr
            and matrix.minor is self.minor
            and matrix.shape == self.shape
        )

    @functools.cached_property
    def starts(self) -> np.ndarray:
        return self.indptr[self.ids]

    @functools.cached_property
    def lengths(self) -> np.ndarray:
        return self.indptr[self.ids + 1] - self.starts

    @functools.cached_property
    def flat(self) -> np.ndarray:
        """Flat position of every edge in the ranges, range by range."""
        return gather_ranges(self.starts, self.lengths)

    @functools.cached_property
    def gathered(self) -> np.ndarray:
        """The minor index (a CSC's row) of every edge in the ranges."""
        return self.minor[self.flat]


def frontier_ranges(matrix: "CSR | CSC", frontiers: object) -> FrontierRanges:
    """``frontiers``' ranges in ``matrix``: ``frontiers`` itself when it is
    a ``FrontierRanges`` of this topology, else a fresh one of checked ids."""
    if isinstance(frontiers, FrontierRanges):
        if frontiers.of(matrix):
            return frontiers
        frontiers = frontiers.ids
    return FrontierRanges(
        matrix, check_ids("frontier", frontiers, matrix.shape[matrix.axis])
    )


def sorted_unique(ids: np.ndarray, bound: int | None = None) -> np.ndarray:
    """``np.unique`` for ids known to lie in ``[0, bound)``.

    Scatters a flag per id into a ``bound``-long array and reads the set
    flags back in order; the output equals ``np.unique(ids)`` exactly.
    ``bound`` defaults to ``ids.max() + 1``; an id outside ``[0, bound)``
    raises :class:`ShapeError`.  An id space more than
    ``_UNIQUE_BOUND_RATIO`` times larger than the input, where scanning
    the flags costs more than sorting the ids, is sorted instead and each
    run of equal ids kept once.  Non-integer ids are handed to
    ``np.unique``.
    """
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ShapeError(f"id array must be 1-D, got shape {ids.shape}")
    if ids.dtype.kind not in "iu" or len(ids) == 0:
        return np.unique(ids)
    low, high = int(ids.min()), int(ids.max())
    if bound is None:
        bound = high + 1
    if low < 0 or high >= bound:
        raise ShapeError(f"ids span [{low}, {high}], outside [0, {bound})")
    if bound > _UNIQUE_BOUND_RATIO * len(ids):
        ids = np.sort(ids)
        return ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
    flags = np.zeros(bound, dtype=bool)
    flags[ids] = True
    return np.flatnonzero(flags).astype(ids.dtype, copy=False)
