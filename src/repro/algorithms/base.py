"""Algorithm abstractions shared by all 15 sampling algorithms.

Every algorithm produces a *pipeline*: an object that samples one
mini-batch of seeds into a :class:`~repro.core.ecsf.GraphSample` (or a
walk matrix for random-walk algorithms).  Two standard pipeline shapes
cover most of Table 2:

* :class:`LayeredPipeline` — a compiled one-layer ECSF program stacked
  over per-layer fanouts (GraphSAGE, LADIES, FastGCN, ...), with optional
  super-batched execution;
* :class:`WalkPipeline` — a sequence of walk-step kernel launches
  (DeepWalk, Node2Vec, PinSAGE, ...), returning a ``(walk_length+1, B)``
  node matrix.

Model-driven algorithms (PASS, AS-GCN, GCN-BS, Thanos) carry trainable
state in ``tensors`` and are excluded from super-batching, as the paper
prescribes.
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Callable, Sequence

import numpy as np

from repro.core import GraphSample, SampledLayer, new_rng
from repro.core.matrix import Matrix
from repro.device import NULL_CONTEXT, ExecutionContext
from repro.sampler import CompiledSampler, OptimizationConfig


@dataclasses.dataclass
class AlgorithmInfo:
    """Static facts about an algorithm (the Table 2 row)."""

    name: str
    category: str  # "node-wise" | "layer-wise"
    bias: str  # "uniform" | "static" | "dynamic"
    fanout_gt_one: bool
    description: str


class Pipeline(abc.ABC):
    """A ready-to-run sampler for one algorithm on one graph."""

    supports_superbatch: bool = False

    @abc.abstractmethod
    def sample_batch(
        self,
        seeds: np.ndarray,
        *,
        ctx: ExecutionContext = NULL_CONTEXT,
        rng: np.random.Generator | None = None,
    ) -> object:
        """Sample one mini-batch of seeds."""

    def sample_superbatch(
        self,
        seed_batches: Sequence[np.ndarray],
        *,
        ctx: ExecutionContext = NULL_CONTEXT,
        rng: np.random.Generator | None = None,
    ) -> list[object]:
        """Sample several mini-batches in batched launches (if supported)."""
        raise NotImplementedError(f"{type(self).__name__} has no super-batch path")


class LayeredPipeline(Pipeline):
    """Multi-layer ECSF sampling driven by compiled one-layer programs.

    ``samplers`` holds one compiled program per layer (fanouts are baked
    into each program as trace-time constants, so layers with different
    fanouts are distinct programs — they share the trace and pass
    machinery but not the IR instance).
    """

    def __init__(
        self,
        samplers: Sequence[CompiledSampler],
        *,
        tensors_fn: Callable[[], dict[str, np.ndarray]] | None = None,
        supports_superbatch: bool = True,
        finalize: Callable[[GraphSample, ExecutionContext], GraphSample] | None = None,
    ) -> None:
        self.samplers = list(samplers)
        self.tensors_fn = tensors_fn
        self.supports_superbatch = supports_superbatch
        self.finalize = finalize

    def _tensors(self) -> dict[str, np.ndarray] | None:
        return self.tensors_fn() if self.tensors_fn is not None else None

    def sample_batch(
        self,
        seeds: np.ndarray,
        *,
        ctx: ExecutionContext = NULL_CONTEXT,
        rng: np.random.Generator | None = None,
    ) -> GraphSample:
        rng = rng if rng is not None else new_rng(None)
        frontiers = np.asarray(seeds)
        layers: list[SampledLayer] = []
        tensors = self._tensors()
        for sampler in self.samplers:
            if len(frontiers) == 0:
                break
            matrix, nxt = sampler.run(frontiers, tensors=tensors, ctx=ctx, rng=rng)
            layers.append(
                SampledLayer(
                    matrix=matrix, input_nodes=frontiers, output_nodes=nxt
                )
            )
            frontiers = nxt
        sample = GraphSample(seeds=np.asarray(seeds), layers=layers)
        if self.finalize is not None:
            sample = self.finalize(sample, ctx)
        return sample

    def sample_superbatch(
        self,
        seed_batches: Sequence[np.ndarray],
        *,
        ctx: ExecutionContext = NULL_CONTEXT,
        rng: np.random.Generator | None = None,
    ) -> list[GraphSample]:
        if not self.supports_superbatch:
            raise NotImplementedError("this algorithm excludes super-batching")
        rng = rng if rng is not None else new_rng(None)
        tensors = self._tensors()
        frontier_sets = [np.asarray(b) for b in seed_batches]
        per_batch_layers: list[list[SampledLayer]] = [[] for _ in seed_batches]
        for sampler in self.samplers:
            results = sampler.run_superbatch(
                frontier_sets, tensors=tensors, ctx=ctx, rng=rng
            )
            new_frontiers = []
            for i, (matrix, nxt) in enumerate(results):
                per_batch_layers[i].append(
                    SampledLayer(
                        matrix=matrix,
                        input_nodes=frontier_sets[i],
                        output_nodes=nxt,
                    )
                )
                new_frontiers.append(nxt)
            frontier_sets = new_frontiers
        samples = [
            GraphSample(seeds=np.asarray(seed_batches[i]), layers=layers)
            for i, layers in enumerate(per_batch_layers)
        ]
        if self.finalize is not None:
            samples = [self.finalize(s, ctx) for s in samples]
        return samples


#: Fanout list used when an algorithm follows the DGL/PyG GraphSAGE
#: example defaults, as the paper's experiments do.
DEFAULT_SAGE_FANOUTS = (5, 10, 15)
#: Layer width used by the layer-wise algorithms (LADIES/FastGCN/AS-GCN).
DEFAULT_LAYER_WIDTH = 512
#: Walk length for DeepWalk/Node2Vec in the paper's configs.
DEFAULT_WALK_LENGTH = 80


class Algorithm(abc.ABC):
    """Factory: binds an algorithm to a graph, producing a pipeline."""

    info: AlgorithmInfo

    @abc.abstractmethod
    def build(
        self,
        graph: Matrix,
        example_seeds: np.ndarray,
        *,
        features: np.ndarray | None = None,
        config: OptimizationConfig | None = None,
    ) -> Pipeline:
        """Compile the algorithm's pipeline for ``graph``."""
