"""The 16 graph-sampling algorithms: Table 2 of the paper plus LABOR."""

from repro.algorithms.asgcn import ASGCN, asgcn_layer
from repro.algorithms.bandit import BanditPipeline, GCNBS, Thanos
from repro.algorithms.base import (
    Algorithm,
    AlgorithmInfo,
    LayeredPipeline,
    Pipeline,
)
from repro.algorithms.deepwalk import DeepWalk, deepwalk_step
from repro.algorithms.fastgcn import FastGCN, fastgcn_layer
from repro.algorithms.graphsage import GraphSAGE, graphsage_layer
from repro.algorithms.graphsaint import GraphSAINT, SaintSample
from repro.algorithms.hetgnn import HetGNN
from repro.algorithms.ladies import LADIES, ladies_layer
from repro.algorithms.node2vec import Node2Vec
from repro.algorithms.pass_attention import PASS, pass_layer
from repro.algorithms.pinsage import PinSAGE
from repro.algorithms.registry import (
    BENCHMARKED,
    COMPLEX,
    SIMPLE,
    TABLE8_PARAMS,
    available_algorithms,
    make_algorithm,
)
from repro.algorithms.seal import SEAL, SealSample, drnl_labels
from repro.algorithms.shadow import ShaDow, ShadowSample
from repro.algorithms.vrgcn import VRGCN, vrgcn_layer
from repro.algorithms.walks import WalkResult, induce_subgraph, uniform_walk

__all__ = [
    "ASGCN",
    "BENCHMARKED",
    "COMPLEX",
    "SIMPLE",
    "TABLE8_PARAMS",
    "Algorithm",
    "AlgorithmInfo",
    "BanditPipeline",
    "DeepWalk",
    "FastGCN",
    "GCNBS",
    "GraphSAGE",
    "GraphSAINT",
    "HetGNN",
    "LADIES",
    "LayeredPipeline",
    "Node2Vec",
    "PASS",
    "PinSAGE",
    "Pipeline",
    "SEAL",
    "SaintSample",
    "SealSample",
    "ShaDow",
    "ShadowSample",
    "Thanos",
    "VRGCN",
    "WalkResult",
    "asgcn_layer",
    "available_algorithms",
    "deepwalk_step",
    "drnl_labels",
    "fastgcn_layer",
    "graphsage_layer",
    "induce_subgraph",
    "ladies_layer",
    "make_algorithm",
    "pass_layer",
    "uniform_walk",
    "vrgcn_layer",
]
