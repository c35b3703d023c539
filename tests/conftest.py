"""Shared fixtures: small random graphs and dense oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matrix import Matrix, from_edges
from repro.sparse import COO, SparseFormat, convert, edge_values


def to_dense(matrix: SparseFormat | Matrix) -> np.ndarray:
    """Dense oracle: accumulate duplicate edges additively."""
    if isinstance(matrix, Matrix):
        matrix = matrix.get("coo")
    coo = convert(matrix, "coo")
    dense = np.zeros(coo.shape, dtype=np.float64)
    np.add.at(dense, (coo.rows, coo.cols), edge_values(coo).astype(np.float64))
    return dense


def random_coo(
    rng: np.random.Generator,
    rows: int = 20,
    cols: int = 15,
    nnz: int = 60,
    *,
    weighted: bool = True,
    unique: bool = True,
) -> COO:
    """A random COO test matrix (unique edges by default)."""
    r = rng.integers(0, rows, nnz)
    c = rng.integers(0, cols, nnz)
    if unique:
        keys = np.unique(r * cols + c)
        r, c = keys // cols, keys % cols
    values = (rng.random(len(r)) + 0.1).astype(np.float32) if weighted else None
    return COO(rows=r, cols=c, values=values, shape=(rows, cols))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def _unique_edges(
    src: np.ndarray, dst: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    keys = np.unique(src * n + dst)
    return keys // n, keys % n


@pytest.fixture
def small_graph(rng: np.random.Generator) -> Matrix:
    """A 200-node weighted graph (unique edges, every node has in-edges)."""
    n = 200
    src = np.concatenate([rng.integers(0, n, n), rng.integers(0, n, 2800)])
    dst = np.concatenate([np.arange(n), rng.integers(0, n, 2800)])
    src, dst = _unique_edges(src, dst, n)
    weights = (rng.random(len(src)) + 0.05).astype(np.float32)
    return from_edges(src, dst, n, weights=weights)


@pytest.fixture
def unweighted_graph(rng: np.random.Generator) -> Matrix:
    n = 100
    src, dst = _unique_edges(
        rng.integers(0, n, 1500), rng.integers(0, n, 1500), n
    )
    return from_edges(src, dst, n)


@pytest.fixture(scope="session")
def verify_graph() -> Matrix:
    """The deterministic weighted graph the verification suite runs on."""
    from repro.verify import verification_graph

    return verification_graph()
