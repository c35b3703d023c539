"""The one shape all 16 sampling algorithms share.

An :class:`Algorithm` is a dataclass: its fields are the algorithm's
parameters, and its class attributes are what every other module reads
instead of re-listing it — the Table-2 row (``info``) and *either* a
traced ECSF ``layer`` function with its per-layer constants rule
(``programs``), optional trainable ``tensors`` and ``superbatch``
eligibility, *or* a ``direct`` pipeline built from a per-hop or per-step
callable.  ``build`` binds it to a graph and returns a *pipeline*, an
object that samples one mini-batch of seeds.  Two pipeline shapes cover
Table 2:

* :class:`LayeredPipeline` — the hop loop (seeds → hop → next frontiers →
  :class:`~repro.core.ecsf.GraphSample`), run by compiled one-layer
  programs (GraphSAGE, LADIES, FastGCN, ...; super-batched where allowed)
  and by direct hops (restart walks, bandit weight tables) alike;
* :class:`~repro.algorithms.walks.WalkPipeline` — the walk driver
  (DeepWalk, Node2Vec, GraphSAINT), returning a ``(walk_length+1, B)``
  node matrix.

Model-driven algorithms (PASS, AS-GCN, GCN-BS, Thanos) carry trainable
state; PASS and the bandits are excluded from super-batching, as the
paper prescribes.
"""

from __future__ import annotations

import abc
import functools
from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from repro.core import GraphSample, SampledLayer, new_rng
from repro.core.matrix import Matrix
from repro.device import NULL_CONTEXT, ExecutionContext
from repro.errors import GSamplerError
from repro.sampler import CompiledSampler, OptimizationConfig, compile_sampler


class AlgorithmInfo(NamedTuple):
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


#: One hop: ``hop(frontiers, ctx, rng) -> (sampled matrix, next frontiers)``.
Hop = Callable[
    [np.ndarray, ExecutionContext, np.random.Generator], tuple[Matrix, np.ndarray]
]


class LayeredPipeline(Pipeline):
    """The hop loop: one hop per layer, frontiers threaded through.

    A compiled layer hops by running its program (fanouts are baked into
    each program as trace-time constants, so layers with different
    fanouts are distinct programs — they share the trace and pass
    machinery but not the IR instance); ``samplers`` lists those
    programs.  A direct layer is any :data:`Hop` callable.  ``finalize``
    post-processes every :class:`GraphSample` (ShaDow's induction).
    """

    def __init__(
        self,
        layers: Sequence[CompiledSampler | Hop],
        *,
        tensors_fn: Callable[[], dict[str, np.ndarray]] | None = None,
        supports_superbatch: bool = False,
        finalize: Callable[[GraphSample, ExecutionContext], object] | None = None,
    ) -> None:
        self.layers = list(layers)
        self.samplers = [
            layer for layer in self.layers if isinstance(layer, CompiledSampler)
        ]
        self.tensors_fn = tensors_fn
        self.supports_superbatch = supports_superbatch
        self.finalize = finalize

    def sample_batch(
        self,
        seeds: np.ndarray,
        *,
        ctx: ExecutionContext = NULL_CONTEXT,
        rng: np.random.Generator | None = None,
    ) -> object:
        return self.sample_superbatch([seeds], ctx=ctx, rng=rng)[0]

    def sample_superbatch(
        self,
        seed_batches: Sequence[np.ndarray],
        *,
        ctx: ExecutionContext = NULL_CONTEXT,
        rng: np.random.Generator | None = None,
    ) -> list:
        """Hop every batch through the layers until all frontiers are
        empty; a batch is a super-batch of one, which every pipeline
        samples."""
        if len(seed_batches) > 1 and not self.supports_superbatch:
            raise NotImplementedError("this algorithm excludes super-batching")
        rng = rng if rng is not None else new_rng(None)
        tensors = self.tensors_fn and self.tensors_fn()
        frontier_sets = [np.asarray(b) for b in seed_batches]
        layers: list[list[SampledLayer]] = [[] for _ in frontier_sets]
        for layer in self.layers:
            if not any(len(f) for f in frontier_sets):
                break
            if isinstance(layer, CompiledSampler):
                # Each piece stands in for its matrix until a reader needs it.
                pieces = layer.run_superbatch(
                    frontier_sets, tensors=tensors, ctx=ctx, rng=rng
                )
                results = [(piece, piece.next_frontiers) for piece in pieces]
            else:
                results = [layer(frontier_sets[0], ctx, rng)]
            for sampled, frontiers, (matrix, nxt) in zip(layers, frontier_sets, results):
                sampled.append(
                    SampledLayer(matrix=matrix, input_nodes=frontiers, output_nodes=nxt)
                )
            frontier_sets = [nxt for _, nxt in results]
        samples = [
            GraphSample(seeds=np.asarray(b), layers=sampled)
            for b, sampled in zip(seed_batches, layers)
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


def per_fanout(algo: "Algorithm") -> tuple[list[dict], int]:
    """Node-wise rule: one program per entry of ``fanouts``, run once."""
    return [{"K": k} for k in algo.fanouts], 1  # type: ignore[attr-defined]


def shared_width(algo: "Algorithm") -> tuple[list[dict], int]:
    """Layer-wise rule: one ``layer_width`` program, run ``num_layers`` times."""
    return [{"K": algo.layer_width}], algo.num_layers  # type: ignore[attr-defined]


class Algorithm:
    """One algorithm: subclass it as a dataclass and declare the facts.

    Parameters are dataclass fields (``make_algorithm`` accepts exactly
    the ``init`` ones); everything below is a class attribute.
    """

    #: The Table-2 row.
    info: AlgorithmInfo
    #: The traced ECSF layer ``layer(A, frontiers, K, *tensors)``, wrapped
    #: in ``staticmethod``; ``None`` for an algorithm with a ``direct``
    #: pipeline.
    layer: Callable | None = None
    #: Attribute names of the trainable tensors ``layer`` takes after
    #: ``features`` (model-driven algorithms; they need node features).
    tensors: tuple[str, ...] = ()
    #: Whether the compiled layers may run super-batched.
    superbatch: bool = False
    #: ``finalize(graph, sample, ctx)`` applied to every sample, or None.
    finalize: Callable | None = None

    def __post_init__(self) -> None:
        """Refuse a bad walk parameter when the algorithm is made, not
        when its first batch is drawn."""
        from repro.algorithms.walks import WALK_PARAMETERS, check_walk_parameters

        params = {n: getattr(self, n) for n in WALK_PARAMETERS if hasattr(self, n)}
        check_walk_parameters(**params)

    def programs(self) -> tuple[list[dict], int]:
        """The per-layer constants rule: the trace-time constants of each
        compiled program, and how many times that stack of programs runs
        (``per_fanout`` / ``shared_width`` are the two common rules)."""
        raise NotImplementedError

    def init_tensors(self, feature_dim: int) -> None:
        """(Re)initialise the trainable ``tensors`` for ``feature_dim``;
        every algorithm that declares ``tensors`` defines it."""
        raise NotImplementedError

    def bound_tensors(self, features: np.ndarray) -> dict[str, np.ndarray]:
        """What ``layer`` takes after ``K``; pipelines read it per batch,
        because a trainer updates the tensors between batches."""
        return {
            "features": features,
            **{name: getattr(self, name) for name in self.tensors},
        }

    def direct(self, graph: Matrix) -> Pipeline:
        """The pipeline of an algorithm that drives kernels directly."""
        raise NotImplementedError

    def build(
        self,
        graph: Matrix,
        example_seeds: np.ndarray,
        *,
        features: np.ndarray | None = None,
        config: OptimizationConfig | None = None,
    ) -> Pipeline:
        """Bind the algorithm to ``graph``: compile ``layer`` once per
        program of :meth:`programs`, or return the ``direct`` pipeline."""
        if self.layer is None:
            return self.direct(graph)
        tensors_fn = None
        if self.tensors:
            if features is None:
                raise GSamplerError(f"{self.info.name} requires node features")
            self.init_tensors(features.shape[1])
            tensors_fn = functools.partial(self.bound_tensors, features)
        constants, repeat = self.programs()
        samplers = [
            compile_sampler(
                self.layer,
                graph,
                example_seeds,
                constants=c,
                tensors=tensors_fn and tensors_fn(),
                config=config,
            )
            for c in constants
        ]
        return LayeredPipeline(
            samplers * repeat,
            tensors_fn=tensors_fn,
            supports_superbatch=self.superbatch,
            finalize=self.finalize and functools.partial(self.finalize, graph),
        )
