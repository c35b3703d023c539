"""Standard cleanup passes: dead code elimination and CSE.

These are the conventional compiler passes the paper lists under "other
computation passes" (Section 4.2): DCE removes operator nodes whose
results are never consumed, and CSE merges pure nodes that compute the
same value.  Sampling operators are random draws, so CSE never merges
them even when structurally identical.
"""

from __future__ import annotations

import numpy as np

from repro.ir.graph import DataFlowGraph
from repro.ir.ops import OPS
from repro.ir.passes.base import Pass


class DeadCodeElimination(Pass):
    """Remove nodes with no users that are not graph outputs."""

    name = "dce"

    def run(self, ir: DataFlowGraph) -> bool:
        changed = False
        while True:
            dead = [
                n.node_id
                for n in ir.nodes()
                if ir.use_count(n.node_id) == 0 and n.node_id not in ir.outputs
            ]
            # Keep declared inputs: removing them would change the calling
            # convention of the compiled sampler.
            dead = [d for d in dead if d not in ir.input_ids]
            if not dead:
                return changed
            for node_id in dead:
                ir.remove_node(node_id)
            changed = True


class CommonSubexpressionElimination(Pass):
    """Merge structurally identical pure nodes."""

    name = "cse"

    def run(self, ir: DataFlowGraph) -> bool:
        changed = False
        seen: dict[tuple, int] = {}
        for node in ir.nodes():
            if OPS[node.op].impure or node.op.startswith("input"):
                continue
            key = self._key(node)
            if key is None:
                continue
            if key in seen:
                ir.replace_all_uses(node.node_id, seen[key])
                changed = True
            else:
                seen[key] = node.node_id
        return changed

    def _key(self, node) -> tuple | None:
        parts: list[object] = [node.op, node.inputs]
        for name, value in sorted(node.attrs.items()):
            if name == "_meta":
                continue
            if isinstance(value, np.ndarray):
                parts.append((name, value.dtype.str, value.shape, value.tobytes()))
            elif isinstance(value, (str, int, float, bool, tuple, type(None))):
                parts.append((name, value))
            elif isinstance(value, list):
                try:
                    parts.append((name, _freeze_list(value)))
                except TypeError:
                    return None
            else:
                return None  # unhashable attribute: skip CSE for this node
        return tuple(parts)


def _freeze_list(items: list) -> tuple:
    out = []
    for item in items:
        if isinstance(item, dict):
            out.append(tuple(sorted((k, v) for k, v in item.items())))
        else:
            out.append(item)
    return tuple(out)
