"""Aggregation is one scatter-add kernel: an unbuffered ``<ufunc>.at`` may
not come back to a hot path unnoticed (DESIGN "Host kernels")."""

from __future__ import annotations

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: Every ``<ufunc>.at(`` call under ``src/repro``, and why it is not
#: ``repro.sparse.kernels.scatter_add``.
ALLOWED = {
    # 1-D per-edge weight updates of the bandit rules; ``multiply`` has no
    # bincount form.
    "algorithms/bandit.py": ["np.add.at", "np.multiply.at"],
    # The DGL-style baseline keeps the formulation it is a baseline of.
    "baselines/message_passing.py": ["np.maximum.at"],
    # 1-D residual push.
    "core/ppr.py": ["np.add.at"],
    # Seeds may repeat and the sum runs in float32: ``scatter_add`` rounds
    # once from float64, which is not the same float.
    "learning/models.py": ["np.add.at"],
    # max / min reduce: no bincount form.
    "sparse/kernels.py": ["(np.maximum if op == 'max' else np.minimum).at"],
    # The eager oracle shares no kernel with what it checks.
    "verify/oracle.py": [
        "np.add.at", "np.add.at", "np.add.at", "np.add.at",
        "np.maximum.at", "np.minimum.at",
    ],
}


def test_ufunc_at_appears_only_at_the_allow_list():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        calls = sorted(
            ast.unparse(node.func)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "at"
        )
        if calls:
            found[path.relative_to(SRC).as_posix()] = calls
    assert found == ALLOWED
