"""GraphSAGE neighbor sampling (Hamilton et al., NeurIPS 2017).

Table 2 row: node-wise, uniform bias, fanout > 1 — "each frontier
independently and uniformly samples fanout neighbors".  This is the
canonical simple algorithm of the paper (Figure 3a): extract, skip
compute, individual-sample, finalize.  The experiments use 3 layers with
fanouts (5, 10, 15) and batch size 1024, matching the DGL/PyG examples.

gSampler's Extract-Select fusion collapses the two operators into a
single kernel that samples straight from the graph's CSC — the dominant
optimization in Figure 10's GraphSAGE columns.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.algorithms.base import (
    DEFAULT_SAGE_FANOUTS,
    Algorithm,
    AlgorithmInfo,
    per_fanout,
)


def graphsage_layer(A, frontiers, K):
    """Figure 3(a) of the paper, verbatim."""
    sub_A = A[:, frontiers]
    sample_A = sub_A.individual_sample(K)
    return sample_A, sample_A.row()


@dataclasses.dataclass
class GraphSAGE(Algorithm):
    """GraphSAGE: one compiled program per entry of ``fanouts``."""

    fanouts: Sequence[int] = DEFAULT_SAGE_FANOUTS

    info = AlgorithmInfo(
        "graphsage", "node-wise", "uniform", True,
        "Uniform per-frontier fanout sampling",
    )
    layer = staticmethod(graphsage_layer)
    programs = per_fanout
    superbatch = True
