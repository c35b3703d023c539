"""Spans recorded from the benchmark's side of each layer boundary.

The traced run wraps public functions of ``repro`` at their defining
module or class, rebinds every alias of a wrapped module-level function
that loaded ``repro.*`` modules hold (``from x import f`` copies and
dispatch-table values included), keeps ``(name, start, end, parent,
round)`` records in memory, and puts every original object back in
:meth:`Tracer.uninstall`.  Nothing under ``src/`` knows it is traced.

A span's *self time* is its duration minus the part its child spans
cover; self times of all spans plus the root span's own self time (the
``unattributed`` share) add up to the round's wall time exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from collections.abc import Callable

#: Name of the root span the benchmark opens around each traced round.
ROOT_SPAN = "bench.round"

Counter = Callable[["Tracer", tuple, dict, object], None]


@dataclasses.dataclass(frozen=True)
class Target:
    """One wrapped callable: where it lives and which span it opens.

    ``attr`` is a module-level name (``"convert"``), a method
    (``"Interpreter.run"``), or ``"*.route"`` for that method on every
    class the module itself defines.
    """

    span: str
    module: str
    attr: str
    count: Counter | None = None


class Tracer:
    """In-memory span recorder plus the patch/restore bookkeeping."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rounds: list[int] = []
        #: Exact per-round counts made at the same boundaries.
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: Targets that no longer exist in the program (their metrics
        #: read zero; the result file lists them).
        self.missing: list[str] = []
        self.round = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.rounds.append(self.round)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[self.round][key] += amount

    def wrap(self, span: str, fn: Callable, count: Counter | None) -> Callable:
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _set(self, owner: object, key: str, value: object) -> None:
        """Bind ``owner.key`` (or ``owner[key]``) and remember the original."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def _owners(self, target: Target) -> list[tuple[object, str]]:
        """``(module or class, attribute)`` pairs the target resolves to."""
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return []
        cls_name, _, name = target.attr.rpartition(".")
        if not cls_name:
            return [(module, name)] if callable(vars(module).get(name)) else []
        if cls_name == "*":
            classes = [
                obj
                for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module.__name__
            ]
        else:
            classes = [
                obj
                for obj in [vars(module).get(cls_name)]
                if isinstance(obj, type)
            ]
        return [
            (cls, name)
            for cls in classes
            if isinstance(vars(cls).get(name), types.FunctionType)
        ]

    def install(self, targets: list[Target]) -> None:
        """Wrap every target and rebind its aliases in ``repro.*``."""
        resolved = [(target, self._owners(target)) for target in targets]
        # Listed after resolving: resolving imports the targets' modules.
        program = [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
        ]
        for target, owners in resolved:
            if not owners:
                self.missing.append(f"{target.module}:{target.attr}")
            for owner, key in owners:
                original = vars(owner)[key]
                traced = self.wrap(target.span, original, target.count)
                self._set(owner, key, traced)
                if isinstance(owner, types.ModuleType):
                    self._rebind_aliases(program, original, traced)

    def _rebind_aliases(
        self, program: list, original: object, traced: object
    ) -> None:
        """Rebind copies of ``original`` held by the ``repro`` modules.

        Covers ``from x import f`` bindings and module-level dispatch
        tables whose values are the function (``_CONVERTERS``).
        """
        for module in program:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, traced)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dict_key, dict_value in list(value.items()):
                        if dict_value is original:
                            self._set(value, dict_key, traced)

    def uninstall(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the interval its children cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def rollup(self) -> dict[int, dict[str, dict[str, float]]]:
        """``round -> span name -> {"self_s", "calls"}``.

        ``calls`` counts outermost spans of a name only, so a wrapped
        entry point that dispatches to a wrapped helper of the same
        layer is one call.
        """
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"self_s": 0.0, "calls": 0.0})
        )
        own = self.self_times()
        for index, name in enumerate(self.names):
            cell = out[self.rounds[index]][name]
            cell["self_s"] += own[index]
            parent = self.parents[index]
            if parent < 0 or self.names[parent] != name:
                cell["calls"] += 1
        return out

    def records(self) -> list[list[object]]:
        """The raw ``[name, start, end, parent, round]`` records."""
        return [
            list(row)
            for row in zip(
                self.names, self.starts, self.ends, self.parents, self.rounds
            )
        ]
