"""Sparse-matrix substrate: storage formats, conversions, and kernels.

This package is the layer a CUDA library would occupy in the original
gSampler: COO/CSR/CSC containers, format conversions with realistic
asymmetric costs, slicing/broadcast/reduce/SpMM kernels, fused kernels for
the Edge-Map and Edge-MapReduce fusion rules, and graph compaction.
Everything above it (the matrix API, the IR, the algorithms) is built from
these primitives.
"""

from repro.sparse.compact import (
    CompactResult,
    compact_cols,
    compact_rows,
    occupied_cols,
    occupied_rows,
)
from repro.sparse.convert import convert, to_csc
from repro.sparse.formats import (
    COO,
    CSC,
    CSR,
    INDEX_DTYPE,
    LAYOUTS,
    VALUE_DTYPE,
    SparseFormat,
    as_index_array,
    as_value_array,
    edge_ids_or_identity,
    edge_values,
    gather_ranges,
    sorted_unique,
)
from repro.sparse.kernels import (
    edge_endpoints,
    fused_map_chain,
    fused_map_reduce,
    map_edges_broadcast,
    map_edges_combine,
    map_edges_scalar,
    map_edges_unary,
    reduce_cols,
    reduce_rows,
    scatter_add,
    sddmm_dot,
    slice_columns,
    slice_rows,
    spmm,
)

__all__ = [
    "COO",
    "CSC",
    "CSR",
    "INDEX_DTYPE",
    "LAYOUTS",
    "VALUE_DTYPE",
    "CompactResult",
    "SparseFormat",
    "as_index_array",
    "as_value_array",
    "compact_cols",
    "compact_rows",
    "convert",
    "edge_endpoints",
    "edge_ids_or_identity",
    "edge_values",
    "fused_map_chain",
    "fused_map_reduce",
    "gather_ranges",
    "map_edges_broadcast",
    "map_edges_combine",
    "map_edges_scalar",
    "map_edges_unary",
    "occupied_cols",
    "occupied_rows",
    "reduce_cols",
    "reduce_rows",
    "scatter_add",
    "sddmm_dot",
    "slice_columns",
    "slice_rows",
    "sorted_unique",
    "spmm",
    "to_csc",
]
