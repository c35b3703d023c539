"""Which ``src/repro`` functions tier-1 runs, and which only tests reach.

    python tools/reach.py

Runs tier-1 (``pytest -x -q``) with ``tools/sitecustomize.py`` recording
call edges in every process, then parses ``src/repro`` and prints:

(a) every non-abstract function that never ran.  Abstract means
    ``@abstractmethod``, or a body that is only an optional docstring and
    ``raise NotImplementedError`` or ``...``;
(b) every function reached only from ``tests/``, ``perfbench/test_*`` or
    the root ``conftest.py``: walking its callers back meets no benchmark,
    example, perfbench workload, CLI function, pool thread or module body.

It exits 1 if list (a) is not empty, and with pytest's status if the suite
failed.  It is not part of tier-1: the hook makes the suite ~1.5x as slow.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRY = ("src/repro/cli.py:", "src/repro/__main__.py:")  # CLI code is a root


def definitions() -> dict[str, tuple[int, bool]]:
    """``relpath:first_line:name`` -> (source lines, abstract) per def."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in node.decorator_list] + [node.lineno])
                lines = node.end_lineno - first + 1
                found[f"{rel}:{first}:{node.name}"] = (lines, _abstract(node))
    return found


def _abstract(node: ast.FunctionDef) -> bool:
    names = [getattr(d, "attr", getattr(d, "id", None)) for d in node.decorator_list]
    if "abstractmethod" in names:
        return True
    body = node.body
    if len(body) == 2 and isinstance(body[0], ast.Expr) and isinstance(
        getattr(body[0].value, "value", None), str
    ):
        body = body[1:]  # the docstring
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Expr):
        return getattr(stmt.value, "value", None) is ...
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return getattr(exc, "id", None) == "NotImplementedError"
    return False


def _label(caller: str, defs: dict) -> str | None:
    """'test' or 'root' for an entry into ``src/repro``; None to keep walking."""
    if caller == "?":
        return "root"  # a pool thread's first frame: its submitter is lost
    if not caller.startswith("src/"):
        test = caller.startswith(("tests/", "perfbench/test_", "conftest.py:"))
        return "test" if test else "root"
    name = caller.rsplit(":", 1)[1]
    if caller.startswith(ENTRY) or name == "<module>":
        return "root"  # CLI code, or a module body: it runs on import
    if caller in defs or name.startswith("<"):
        return None  # a function, lambda or comprehension: walk its callers
    return "root"  # a class body: it runs on import


def reach(edges: set[tuple[str, str]], defs: dict) -> tuple[list, list]:
    callers = defaultdict(set)
    for caller, callee in edges:
        callers[callee].add(caller)
    never = [k for k, (_, abstract) in defs.items() if k not in callers and not abstract]
    only_tests = []
    for key in filter(callers.__contains__, defs):
        labels, seen, todo = set(), {key}, [key]
        while todo and "root" not in labels:
            for caller in callers[todo.pop()]:
                label = _label(caller, defs)
                if label is not None:
                    labels.add(label)
                elif caller not in seen:
                    seen.add(caller)
                    todo.append(caller)
        if labels == {"test"}:
            only_tests.append(key)
    return never, only_tests


def _report(title: str, keys: list, defs: dict) -> None:
    print(f"{title}: {len(keys)} functions, {sum(defs[k][0] for k in keys)} lines")
    for key in sorted(keys):
        path, line, name = key.split(":")
        print(f"  {path}:{line} {name} ({defs[key][0]} lines)")


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        path = [str(ROOT / "tools"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, REACH_DIR=out, PYTHONPATH=os.pathsep.join(filter(None, path)))
        command = [sys.executable, "-m", "pytest", "-x", "-q"]
        status = subprocess.run(command, cwd=ROOT, env=env).returncode
        edges = {tuple(e) for f in Path(out).glob("*.json") for e in json.loads(f.read_text())}
    defs = definitions()
    never, only_tests = reach(edges, defs)
    _report("(a) never ran", never, defs)
    _report("(b) reached only from tests", only_tests, defs)
    if status:
        print(f"pytest exited {status} under the hook: the lists are incomplete")
        return status
    return 1 if never else 0


if __name__ == "__main__":
    sys.exit(main())
