"""Conversions between COO, CSR, and CSC storage.

Format conversion is a first-class cost in gSampler's layout-selection
pass (Table 5 reports e.g. CSC→COO at 0.36 ms vs COO→CSR at 2.40 ms on
Ogbn-Products).  The asymmetry is real: decompressing an indptr into
per-edge indices is a single ``repeat`` (cheap), while building an indptr
requires a sort or histogram over all edges (expensive).  The kernels here
report workloads that reproduce that asymmetry through the simulator.

All conversions permute ``values`` and ``edge_ids`` together with the
topology so per-edge payloads survive round trips.
"""

from __future__ import annotations

import numpy as np

from repro.device import NULL_CONTEXT, ExecutionContext
from repro.errors import FormatError
from repro.sparse.formats import (
    COO,
    CSC,
    CSR,
    SparseFormat,
    _indptr_from_counts,
    _take,
)


def coo_to_csr(coo: COO, ctx: ExecutionContext = NULL_CONTEXT) -> CSR:
    """Sort the edge list by row and compress into CSR."""
    return _compress(coo, 0, ctx)


def coo_to_csc(coo: COO, ctx: ExecutionContext = NULL_CONTEXT) -> CSC:
    """Sort the edge list by column and compress into CSC."""
    return _compress(coo, 1, ctx)


def _compress(coo: COO, axis: int, ctx: ExecutionContext) -> CSR | CSC:
    """Sort the edge list by its ``axis`` index and build that pointer."""
    index = (coo.rows, coo.cols)
    order = np.argsort(index[axis], kind="stable")
    out = (CSR, CSC)[axis](
        _indptr_from_counts(np.bincount(index[axis], minlength=coo.shape[axis])),
        index[1 - axis][order],
        _take(coo.values, order),
        coo.shape,
        _take(coo.edge_ids, order),
    )
    # A sort-based compression touches every edge O(log E) times.
    log_e = max(1.0, np.log2(max(coo.nnz, 2)))
    ctx.record(
        f"convert_coo_to_{out.layout}",
        bytes_read=coo.nbytes() * log_e,
        bytes_written=out.nbytes(),
        flops=coo.nnz * log_e,
        tasks=coo.nnz,
    )
    return out


def csr_to_coo(csr: CSR, ctx: ExecutionContext = NULL_CONTEXT) -> COO:
    """Decompress the row pointer into per-edge row indices (cheap)."""
    return _decompress(csr, ctx)


def csc_to_coo(csc: CSC, ctx: ExecutionContext = NULL_CONTEXT) -> COO:
    """Decompress the column pointer into per-edge column indices (cheap)."""
    return _decompress(csc, ctx)


def _decompress(matrix: CSR | CSC, ctx: ExecutionContext) -> COO:
    """Expand the pointer into one index per edge; edge order is kept."""
    endpoints = matrix._endpoints()
    out = COO(*endpoints, matrix.values, matrix.shape, matrix.edge_ids)
    ctx.record(
        f"convert_{matrix.layout}_to_coo",
        bytes_read=matrix.indptr.nbytes,
        bytes_written=endpoints[matrix.axis].nbytes,
        flops=matrix.nnz,
        tasks=matrix.nnz,
    )
    return out


def csr_to_csc(csr: CSR, ctx: ExecutionContext = NULL_CONTEXT) -> CSC:
    """Transpose compression: decompress then re-sort by column."""
    return coo_to_csc(csr_to_coo(csr, ctx), ctx)


def csc_to_csr(csc: CSC, ctx: ExecutionContext = NULL_CONTEXT) -> CSR:
    """Transpose compression: decompress then re-sort by row."""
    return coo_to_csr(csc_to_coo(csc, ctx), ctx)


_CONVERTERS = {
    ("coo", "csr"): coo_to_csr,
    ("coo", "csc"): coo_to_csc,
    ("csr", "coo"): csr_to_coo,
    ("csc", "coo"): csc_to_coo,
    ("csr", "csc"): csr_to_csc,
    ("csc", "csr"): csc_to_csr,
}


def convert(
    matrix: SparseFormat, layout: str, ctx: ExecutionContext = NULL_CONTEXT
) -> SparseFormat:
    """Convert ``matrix`` to ``layout`` (no-op when already there)."""
    if matrix.layout == layout:
        return matrix
    try:
        fn = _CONVERTERS[(matrix.layout, layout)]
    except KeyError:
        raise FormatError(
            f"no conversion from {matrix.layout!r} to {layout!r}"
        ) from None
    return fn(matrix, ctx)


def to_csc(matrix: SparseFormat, ctx: ExecutionContext = NULL_CONTEXT) -> CSC:
    """Convenience wrapper returning a CSC view of any format."""
    result = convert(matrix, "csc", ctx)
    assert isinstance(result, CSC)
    return result
