"""``tools/reach.py``'s analysis, on edges made up here.

The tool itself runs tier-1 under a profile hook, so it is not part of
tier-1; these tests check only how it reads source and edges.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib

from repro.cache.tiered import CacheStats
from repro.stats import SlidingWindow

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def _key(fn) -> str:
    code = fn.__code__
    path = pathlib.Path(code.co_filename).relative_to(ROOT).as_posix()
    return f"{path}:{code.co_firstlineno}:{code.co_name}"


def test_source_keys_match_code_objects():
    """A decorated function's code starts at its first decorator."""
    defs = reach.definitions()
    assert _key(CacheStats.hit_rate.fget) in defs
    assert _key(SlidingWindow.push) in defs


def test_abstract_bodies():
    def parse(source):
        return ast.parse(source).body[0]

    assert reach._abstract(parse("@abstractmethod\ndef f(self):\n    return 1"))
    assert reach._abstract(parse('def f():\n    """Doc."""\n    raise NotImplementedError'))
    assert reach._abstract(parse("def f():\n    raise NotImplementedError('no')"))
    assert reach._abstract(parse("def f():\n    ..."))
    assert not reach._abstract(parse('def f():\n    """Only a docstring."""'))
    assert not reach._abstract(parse("def f():\n    raise ValueError"))


def test_only_tests_is_callers_walked_back():
    lines = (3, False)
    defs = {f"src/repro/m.py:{i}:f{i}": lines for i in range(7)}
    edges = {
        ("tests/test_m.py:1:test", "src/repro/m.py:0:f0"),
        ("src/repro/m.py:0:f0", "src/repro/m.py:1:f1"),
        ("benchmarks/bench_m.py:1:test", "src/repro/m.py:2:f2"),
        ("src/repro/m.py:2:f2", "src/repro/m.py:1:f1"),
        ("tests/test_m.py:1:test", "src/repro/m.py:3:f3"),
        ("?", "src/repro/m.py:3:f3"),  # a pool thread: its submitter is lost
        # A module body is import-time code, whoever imported it first.
        ("tests/test_m.py:1:test", "src/repro/n.py:1:<module>"),
        ("src/repro/n.py:1:<module>", "src/repro/m.py:5:f5"),
        # A lambda is walked back to its caller.
        ("tests/test_m.py:1:test", "src/repro/n.py:9:<lambda>"),
        ("src/repro/n.py:9:<lambda>", "src/repro/m.py:6:f6"),
    }
    never, only_tests = reach.reach(edges, defs)
    assert never == ["src/repro/m.py:4:f4"]
    assert only_tests == ["src/repro/m.py:0:f0", "src/repro/m.py:6:f6"]
