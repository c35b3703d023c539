"""Rows and columns are one axis story: golden launch records, axis duality.

Two guards for the sparse substrate's row/column symmetry:

* a golden table of the launch records every axis-dependent kernel emits
  on one fixed matrix (an empty row, an empty column, weights, edge ids),
  so a refactor of the kernels cannot move a simulated number;
* a hypothesis property that ``op_rows(M_L)`` is the transpose of
  ``op_cols(Mᵀ_{Lᵀ})`` — in arrays and in the recorded launches with
  ``rows <-> columns`` and ``csr <-> csc`` swapped.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    COO,
    CSC,
    CSR,
    LAYOUTS,
    CompactResult,
    compact_cols,
    compact_rows,
    convert,
    occupied_cols,
    occupied_rows,
    reduce_cols,
    reduce_rows,
    slice_columns,
    slice_rows,
)

REDUCE_OPS = ("sum", "mean", "max", "min")


class Recorder:
    """Stands in for an ExecutionContext; keeps what each launch reported."""

    def __init__(self) -> None:
        self.records: list[tuple] = []

    def record(
        self,
        name,
        *,
        bytes_read=0.0,
        bytes_written=0.0,
        flops=0.0,
        tasks=1,
        graph_bytes=0.0,
    ):
        self.records.append(
            (name, bytes_read, bytes_written, flops, tasks, graph_bytes)
        )


def fixed_matrix() -> COO:
    """5 x 4, seven weighted edges, row 2 and column 2 empty, unsorted."""
    return COO(
        rows=[3, 0, 1, 4, 0, 3, 1],
        cols=[1, 3, 0, 0, 1, 3, 3],
        values=[0.5, 1.5, 2.0, 0.25, 3.0, 1.0, 4.5],
        shape=(5, 4),
        edge_ids=[10, 11, 12, 13, 14, 15, 16],
    )


#: The slice ids of the golden table: a repeat and the empty row/column.
GOLDEN_IDS = {"rows": [3, 0, 3, 2], "cols": [1, 2, 1, 3]}


def golden_cases(matrix):
    """``case name -> callable(ctx)`` for every axis-dependent kernel."""
    cases = {
        "slice_rows": lambda ctx: slice_rows(
            matrix, GOLDEN_IDS["rows"], ctx, graph_read=True
        ),
        "slice_cols": lambda ctx: slice_columns(
            matrix, GOLDEN_IDS["cols"], ctx, graph_read=True
        ),
        "occupied_rows": lambda ctx: occupied_rows(matrix, ctx),
        "occupied_cols": lambda ctx: occupied_cols(matrix, ctx),
        "compact_rows": lambda ctx: compact_rows(matrix, ctx),
        "compact_cols": lambda ctx: compact_cols(matrix, ctx),
    }
    for op in REDUCE_OPS:
        cases[f"reduce_rows_{op}"] = lambda ctx, op=op: reduce_rows(matrix, op, ctx)
        cases[f"reduce_cols_{op}"] = lambda ctx, op=op: reduce_cols(matrix, op, ctx)
    for target in LAYOUTS:
        if target != matrix.layout:
            cases[f"convert_{target}"] = lambda ctx, t=target: convert(matrix, t, ctx)
    return cases


# (name, bytes_read, bytes_written, flops, tasks, graph_bytes) per launch,
# as emitted before the row and column kernels shared their bodies.
GOLDEN = {
    ("csc", "slice_rows"): [("slice_rows_csc", 537.3238859703688, 200, 19.651484454403228, 7, 537.3238859703688)],
    ("csc", "slice_cols"): [("slice_columns_csc", 148, 180, 7, 7, 148)],
    ("csc", "occupied_rows"): [
        ("expand_indptr", 40, 56, 7, 7, 0.0),
        ("occupied_rows", 56, 32, 19.651484454403228, 7, 0.0),
    ],
    ("csc", "occupied_cols"): [("occupied_cols", 40, 24, 4, 4, 0.0)],
    ("csc", "compact_rows"): [
        ("expand_indptr", 40, 56, 7, 7, 0.0),
        ("occupied_rows", 56, 32, 19.651484454403228, 7, 0.0),
        ("compact_rows", 212, 220, 12, 7, 0.0),
    ],
    ("csc", "compact_cols"): [
        ("occupied_cols", 40, 24, 4, 4, 0.0),
        ("slice_columns_csc", 132, 172, 7, 7, 0.0),
    ],
    ("csc", "reduce_rows_sum"): [
        ("expand_indptr", 40, 56, 7, 7, 0.0),
        ("edge_reduce_rows_sum", 168.0, 20, 14.0, 7, 0.0),
    ],
    ("csc", "reduce_cols_sum"): [("edge_reduce_cols_sum", 84.0, 16, 7.0, 7, 0.0)],
    ("csc", "reduce_rows_mean"): [
        ("expand_indptr", 40, 56, 7, 7, 0.0),
        ("edge_reduce_rows_mean", 168.0, 20, 14.0, 7, 0.0),
    ],
    ("csc", "reduce_cols_mean"): [("edge_reduce_cols_mean", 84.0, 16, 7.0, 7, 0.0)],
    ("csc", "reduce_rows_max"): [
        ("expand_indptr", 40, 56, 7, 7, 0.0),
        ("edge_reduce_rows_max", 168.0, 20, 14.0, 7, 0.0),
    ],
    ("csc", "reduce_cols_max"): [("edge_reduce_cols_max", 84.0, 16, 7.0, 7, 0.0)],
    ("csc", "reduce_rows_min"): [
        ("expand_indptr", 40, 56, 7, 7, 0.0),
        ("edge_reduce_rows_min", 168.0, 20, 14.0, 7, 0.0),
    ],
    ("csc", "reduce_cols_min"): [("edge_reduce_cols_min", 84.0, 16, 7.0, 7, 0.0)],
    ("csc", "convert_coo"): [("convert_csc_to_coo", 40, 56, 7, 7, 0.0)],
    ("csc", "convert_csr"): [
        ("convert_csc_to_coo", 40, 56, 7, 7, 0.0),
        ("convert_coo_to_csr", 550.2415647232904, 188, 19.651484454403228, 7, 0.0),
    ],
    ("coo", "slice_rows"): [("slice_rows_coo", 582.2415647232904, 208, 19.651484454403228, 7, 582.2415647232904)],
    ("coo", "slice_cols"): [("slice_columns_coo", 582.2415647232904, 228, 19.651484454403228, 7, 582.2415647232904)],
    ("coo", "occupied_rows"): [("occupied_rows", 56, 32, 19.651484454403228, 7, 0.0)],
    ("coo", "occupied_cols"): [("occupied_cols", 56, 24, 19.651484454403228, 7, 0.0)],
    ("coo", "compact_rows"): [
        ("occupied_rows", 56, 32, 19.651484454403228, 7, 0.0),
        ("compact_rows", 228, 236, 12, 7, 0.0),
    ],
    ("coo", "compact_cols"): [
        ("occupied_cols", 56, 24, 19.651484454403228, 7, 0.0),
        ("compact_cols", 220, 228, 11, 7, 0.0),
    ],
    ("coo", "reduce_rows_sum"): [("edge_reduce_rows_sum", 168.0, 20, 14.0, 7, 0.0)],
    ("coo", "reduce_cols_sum"): [("edge_reduce_cols_sum", 168.0, 16, 14.0, 7, 0.0)],
    ("coo", "reduce_rows_mean"): [("edge_reduce_rows_mean", 168.0, 20, 14.0, 7, 0.0)],
    ("coo", "reduce_cols_mean"): [("edge_reduce_cols_mean", 168.0, 16, 14.0, 7, 0.0)],
    ("coo", "reduce_rows_max"): [("edge_reduce_rows_max", 168.0, 20, 14.0, 7, 0.0)],
    ("coo", "reduce_cols_max"): [("edge_reduce_cols_max", 168.0, 16, 14.0, 7, 0.0)],
    ("coo", "reduce_rows_min"): [("edge_reduce_rows_min", 168.0, 20, 14.0, 7, 0.0)],
    ("coo", "reduce_cols_min"): [("edge_reduce_cols_min", 168.0, 16, 14.0, 7, 0.0)],
    ("coo", "convert_csc"): [("convert_coo_to_csc", 550.2415647232904, 180, 19.651484454403228, 7, 0.0)],
    ("coo", "convert_csr"): [("convert_coo_to_csr", 550.2415647232904, 188, 19.651484454403228, 7, 0.0)],
    ("csr", "slice_rows"): [("slice_rows_csr", 136, 160, 6, 6, 136)],
    ("csr", "slice_cols"): [("slice_columns_csr", 559.7827253468296, 220, 19.651484454403228, 7, 559.7827253468296)],
    ("csr", "occupied_rows"): [("occupied_rows", 48, 32, 5, 5, 0.0)],
    ("csr", "occupied_cols"): [
        ("expand_indptr", 48, 56, 7, 7, 0.0),
        ("occupied_cols", 56, 24, 19.651484454403228, 7, 0.0),
    ],
    ("csr", "compact_rows"): [
        ("occupied_rows", 48, 32, 5, 5, 0.0),
        ("slice_rows_csr", 148, 180, 7, 7, 0.0),
    ],
    ("csr", "compact_cols"): [
        ("expand_indptr", 48, 56, 7, 7, 0.0),
        ("occupied_cols", 56, 24, 19.651484454403228, 7, 0.0),
        ("compact_cols", 212, 220, 11, 7, 0.0),
    ],
    ("csr", "reduce_rows_sum"): [("edge_reduce_rows_sum", 84.0, 20, 7.0, 7, 0.0)],
    ("csr", "reduce_cols_sum"): [
        ("expand_indptr", 48, 56, 7, 7, 0.0),
        ("edge_reduce_cols_sum", 168.0, 16, 14.0, 7, 0.0),
    ],
    ("csr", "reduce_rows_mean"): [("edge_reduce_rows_mean", 84.0, 20, 7.0, 7, 0.0)],
    ("csr", "reduce_cols_mean"): [
        ("expand_indptr", 48, 56, 7, 7, 0.0),
        ("edge_reduce_cols_mean", 168.0, 16, 14.0, 7, 0.0),
    ],
    ("csr", "reduce_rows_max"): [("edge_reduce_rows_max", 84.0, 20, 7.0, 7, 0.0)],
    ("csr", "reduce_cols_max"): [
        ("expand_indptr", 48, 56, 7, 7, 0.0),
        ("edge_reduce_cols_max", 168.0, 16, 14.0, 7, 0.0),
    ],
    ("csr", "reduce_rows_min"): [("edge_reduce_rows_min", 84.0, 20, 7.0, 7, 0.0)],
    ("csr", "reduce_cols_min"): [
        ("expand_indptr", 48, 56, 7, 7, 0.0),
        ("edge_reduce_cols_min", 168.0, 16, 14.0, 7, 0.0),
    ],
    ("csr", "convert_csc"): [
        ("convert_csr_to_coo", 48, 56, 7, 7, 0.0),
        ("convert_coo_to_csc", 550.2415647232904, 180, 19.651484454403228, 7, 0.0),
    ],
    ("csr", "convert_coo"): [("convert_csr_to_coo", 48, 56, 7, 7, 0.0)],
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_golden_launch_records(layout):
    matrix = convert(fixed_matrix(), layout)
    cases = golden_cases(matrix)
    assert {case for lay, case in GOLDEN if lay == layout} == set(cases)
    for case, run in cases.items():
        ctx = Recorder()
        run(ctx)
        assert ctx.records == GOLDEN[(layout, case)], (layout, case)


# ----------------------------------------------------------------------
# Axis duality
# ----------------------------------------------------------------------
def transpose(matrix):
    """The same edges, in the same order, with rows and columns swapped."""
    shape = matrix.shape[::-1]
    if isinstance(matrix, COO):
        return COO(matrix.cols, matrix.rows, matrix.values, shape, matrix.edge_ids)
    if isinstance(matrix, CSR):
        return CSC(matrix.indptr, matrix.cols, matrix.values, shape, matrix.edge_ids)
    return CSR(matrix.indptr, matrix.rows, matrix.values, shape, matrix.edge_ids)


def transposed_layout(layout: str) -> str:
    return {"csr": "csc", "csc": "csr", "coo": "coo"}[layout]


def transposed_record(record: tuple) -> tuple:
    name = record[0]
    cols = "columns" if name.startswith("slice_") else "cols"
    swap = {"rows": cols, cols: "rows", "csr": "csc", "csc": "csr"}
    return ("_".join(swap.get(t, t) for t in name.split("_")), *record[1:])


def assert_same(actual, expected) -> None:
    """Equal results: containers field by field, vectors element-wise."""
    if dataclasses.is_dataclass(actual):
        assert type(actual) is type(expected)
        for field in dataclasses.fields(actual):
            assert_same(
                getattr(actual, field.name), getattr(expected, field.name)
            )
    elif isinstance(actual, np.ndarray):
        assert actual.dtype == expected.dtype
        np.testing.assert_array_equal(actual, expected)
    else:
        assert actual == expected


def transposed_result(result):
    if isinstance(result, CompactResult):
        return CompactResult(
            transpose(result.matrix), result.col_ids, result.row_ids
        )
    if isinstance(result, (COO, CSR, CSC)):
        return transpose(result)
    return result


@st.composite
def coo_matrices(draw):
    n_rows = draw(st.integers(1, 7))
    n_cols = draw(st.integers(1, 7))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
            max_size=24,
        )
    )
    nnz = len(edges)
    values = draw(
        st.none()
        | st.lists(
            st.floats(-4.0, 4.0, width=32), min_size=nnz, max_size=nnz
        )
    )
    edge_ids = draw(st.none() | st.permutations(range(nnz)))
    return COO(
        rows=[r for r, _ in edges],
        cols=[c for _, c in edges],
        values=values,
        shape=(n_rows, n_cols),
        edge_ids=edge_ids,
    )


def check_duality(row_op, col_op, coo, layout) -> None:
    """``row_op(M_L)`` must be the transpose of ``col_op(Mᵀ_{Lᵀ})``."""
    ours, theirs = Recorder(), Recorder()
    lhs = row_op(convert(coo, layout), ours)
    rhs = col_op(convert(transpose(coo), transposed_layout(layout)), theirs)
    assert_same(lhs, transposed_result(rhs))
    assert ours.records == [transposed_record(r) for r in theirs.records]


@given(coo_matrices(), st.sampled_from(LAYOUTS), st.data())
@settings(max_examples=120, deadline=None)
def test_axis_duality(coo, layout, data):
    ids = data.draw(st.lists(st.integers(0, coo.shape[0] - 1), max_size=8))
    check_duality(
        lambda m, ctx: slice_rows(m, ids, ctx, graph_read=True),
        lambda m, ctx: slice_columns(m, ids, ctx, graph_read=True),
        coo,
        layout,
    )
    for op in REDUCE_OPS:
        check_duality(
            lambda m, ctx: reduce_rows(m, op, ctx),
            lambda m, ctx: reduce_cols(m, op, ctx),
            coo,
            layout,
        )
    check_duality(occupied_rows, occupied_cols, coo, layout)
    check_duality(compact_rows, compact_cols, coo, layout)
    for target in LAYOUTS:
        check_duality(
            lambda m, ctx: convert(m, target, ctx),
            lambda m, ctx: convert(m, transposed_layout(target), ctx),
            coo,
            layout,
        )
