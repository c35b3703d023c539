"""Every module-level import in a ``src/repro`` module is used there.

Package ``__init__`` modules are skipped: their imports are the package's
public names.  A name counts as used if the module reads it, lists it in
``__all__`` or mentions it in a string annotation.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import at module level."""
    names = {}
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.If, ast.Try)):
            todo.extend(node.body + node.orelse + getattr(node, "finalbody", []))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _used(ast.parse(part.value, mode="eval"))
    return used


def _unused(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                  if name not in used)


def test_no_unused_module_level_import():
    found = {
        path.relative_to(SRC).as_posix(): unused
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py" and (unused := _unused(path.read_text()))
    }
    assert found == {}


def test_the_check_sees_string_annotations_and_all():
    source = (
        "import math\nimport numpy as np\nfrom typing import Iterator\n"
        "from x import Used, Exported, Quoted\n"
        "__all__ = ['Exported']\n"
        "def f(a: 'Quoted') -> 'list[Used]':\n    return np\n"
    )
    assert _unused(source) == ["Iterator (line 3)", "math (line 1)"]
