"""Data-flow intermediate representation for sampling programs.

A user program written against the matrix-centric API is parsed into a
data-flow graph whose nodes are operators and whose edges are data
dependencies (Section 4.1).  The IR is deliberately small: a node has an
``op`` name, input node ids, and a dict of static attributes.  Insertion
order is a topological order (the tracer appends nodes as the program
executes), and passes must preserve that invariant.

The graph itself knows nothing about individual operators: what each
``op`` name consumes, produces and permits is declared once, in
:mod:`repro.ir.ops`.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterable

from repro.errors import PassError


@dataclasses.dataclass
class Node:
    """One IR operator."""

    node_id: int
    op: str
    inputs: tuple[int, ...]
    attrs: dict
    name: str = ""
    #: Output layout decided by the layout-selection pass (matrices only).
    layout: str | None = None
    #: Whether to compact isolated rows out of the output.
    compact_rows: bool = False


class DataFlowGraph:
    """An ordered DAG of :class:`Node` objects."""

    def __init__(self) -> None:
        self._nodes: dict[int, Node] = {}
        self._counter = itertools.count()
        self.outputs: list[int] = []
        self.input_ids: list[int] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        op: str,
        inputs: Iterable[int] = (),
        attrs: dict | None = None,
        name: str = "",
    ) -> Node:
        inputs = tuple(inputs)
        for dep in inputs:
            if dep not in self._nodes:
                raise PassError(f"node input {dep} does not exist")
        node = Node(
            node_id=next(self._counter),
            op=op,
            inputs=inputs,
            attrs=dict(attrs or {}),
            name=name or op,
        )
        self._nodes[node.node_id] = node
        if op.startswith("input"):
            self.input_ids.append(node.node_id)
        return node

    def insert_before(
        self,
        anchor: int,
        op: str,
        inputs: Iterable[int] = (),
        attrs: dict | None = None,
        name: str = "",
    ) -> Node:
        """Add a node ordered immediately before ``anchor``.

        Needed by passes that materialize helper nodes (e.g. hoisted
        pre-computation) whose results feed existing nodes.
        """
        node = self.add_node(op, inputs, attrs, name)
        # Re-order: rebuild the dict with the new node moved before anchor.
        items = [(k, v) for k, v in self._nodes.items() if k != node.node_id]
        rebuilt: dict[int, Node] = {}
        for key, value in items:
            if key == anchor:
                rebuilt[node.node_id] = node
            rebuilt[key] = value
        self._nodes = rebuilt
        return node

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    def nodes(self) -> list[Node]:
        """All nodes in topological (insertion) order."""
        return list(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def users(self, node_id: int) -> list[Node]:
        """Nodes that consume ``node_id`` (outputs count as one use each)."""
        return [n for n in self._nodes.values() if node_id in n.inputs]

    def use_count(self, node_id: int) -> int:
        uses = sum(n.inputs.count(node_id) for n in self._nodes.values())
        uses += self.outputs.count(node_id)
        return uses

    def positions(self) -> dict[int, int]:
        """Map node id -> topological position (insertion order index)."""
        return {node_id: i for i, node_id in enumerate(self._nodes)}

    # ------------------------------------------------------------------
    # Mutation (for passes)
    # ------------------------------------------------------------------
    def replace_all_uses(self, old: int, new: int) -> None:
        if old == new:
            return
        for node in self._nodes.values():
            if old in node.inputs:
                node.inputs = tuple(new if i == old else i for i in node.inputs)
        self.outputs = [new if i == old else i for i in self.outputs]

    def remove_node(self, node_id: int) -> None:
        if self.users(node_id):
            raise PassError(f"cannot remove node {node_id}: it still has users")
        if node_id in self.outputs:
            raise PassError(f"cannot remove node {node_id}: it is an output")
        self._nodes.pop(node_id)
        if node_id in self.input_ids:
            self.input_ids.remove(node_id)

    def validate(self) -> None:
        """Check topological ordering, key consistency, input existence."""
        seen: set[int] = set()
        for key, node in self._nodes.items():
            if key != node.node_id:
                raise PassError(
                    f"node table key {key} disagrees with node id "
                    f"{node.node_id} ({node.op})"
                )
            for dep in node.inputs:
                if dep not in seen:
                    raise PassError(
                        f"node {node.node_id} ({node.op}) uses {dep} "
                        "before definition"
                    )
            seen.add(node.node_id)
        for inp in self.input_ids:
            if inp not in self._nodes:
                raise PassError(f"registered input {inp} does not exist")
        for out in self.outputs:
            if out not in self._nodes:
                raise PassError(f"output {out} does not exist")

    # ------------------------------------------------------------------
    # Debugging
    # ------------------------------------------------------------------
    def pretty(self) -> str:
        """Readable multi-line rendering of the IR."""
        lines = []
        for node in self._nodes.values():
            attrs = ", ".join(
                f"{k}={v!r}"
                for k, v in node.attrs.items()
                if not k.startswith("_")
            )
            deps = ", ".join(f"%{i}" for i in node.inputs)
            layout = f" [{node.layout}{'+compact' if node.compact_rows else ''}]" \
                if node.layout else ""
            lines.append(
                f"%{node.node_id} = {node.op}({deps}"
                + (f"; {attrs}" if attrs else "")
                + f"){layout}"
            )
        lines.append("outputs: " + ", ".join(f"%{i}" for i in self.outputs))
        return "\n".join(lines)
