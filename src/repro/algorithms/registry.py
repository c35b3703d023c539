"""Registry of the 16 algorithms: Table 2's 15 plus LABOR.

This tuple is the one list of algorithms; everything else (the verifier's
specs, gSampler's supported set, the CLI listing) derives from it.
"""

from __future__ import annotations

import dataclasses

from repro.algorithms.asgcn import ASGCN
from repro.algorithms.bandit import GCNBS, Thanos
from repro.algorithms.base import Algorithm
from repro.algorithms.deepwalk import DeepWalk
from repro.algorithms.fastgcn import FastGCN
from repro.algorithms.graphsage import GraphSAGE
from repro.algorithms.graphsaint import GraphSAINT
from repro.algorithms.hetgnn import HetGNN
from repro.algorithms.labor import Labor
from repro.algorithms.ladies import LADIES
from repro.algorithms.node2vec import Node2Vec
from repro.algorithms.pass_attention import PASS
from repro.algorithms.pinsage import PinSAGE
from repro.algorithms.seal import SEAL
from repro.algorithms.shadow import ShaDow
from repro.algorithms.vrgcn import VRGCN
from repro.errors import GSamplerError

_ALGORITHMS: dict[str, type[Algorithm]] = {
    cls.info.name: cls
    for cls in (
        DeepWalk,
        GraphSAINT,
        PinSAGE,
        HetGNN,
        GraphSAGE,
        Labor,
        VRGCN,
        SEAL,
        ShaDow,
        Node2Vec,
        GCNBS,
        Thanos,
        PASS,
        FastGCN,
        ASGCN,
        LADIES,
    )
}

#: The paper's simple/complex split (Figures 7 vs 8).
SIMPLE = ("deepwalk", "node2vec", "graphsage")
COMPLEX = ("ladies", "asgcn", "pass", "shadow")
#: The 7 representatives benchmarked in the paper's evaluation.
BENCHMARKED = SIMPLE + COMPLEX

#: The two trainable workloads of Table 8 at their deployment parameters:
#: what ``serve`` and the pipelined trainer build by name.
TABLE8_PARAMS: dict[str, dict] = {
    "graphsage": dict(fanouts=(5, 10)),
    "ladies": dict(layer_width=256, num_layers=2),
}


def available_algorithms() -> list[str]:
    """All registered algorithm names (Table 2's 15 plus LABOR)."""
    return sorted(_ALGORITHMS)


def make_algorithm(name: str, **kwargs: object) -> Algorithm:
    """Instantiate an algorithm by name with parameter overrides."""
    try:
        cls = _ALGORITHMS[name.lower()]
    except KeyError:
        raise GSamplerError(
            f"unknown algorithm {name!r}; available: {available_algorithms()}"
        ) from None
    accepted = [f.name for f in dataclasses.fields(cls) if f.init]
    if not set(kwargs) <= set(accepted):
        raise GSamplerError(
            f"{name} does not take {sorted(set(kwargs) - set(accepted))}; "
            f"accepted parameters: {accepted}"
        )
    return cls(**kwargs)
