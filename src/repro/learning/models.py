"""Sampled GNN models: GraphSAGE (mean aggregator) and a LADIES-style GCN.

Both consume a :class:`~repro.core.ecsf.GraphSample` — the multi-layer
bipartite blocks a sampling pipeline produces — and run real forward and
backward passes over it in NumPy.  The message-flow bookkeeping follows
the standard "needed node set per depth" scheme: depth ``d``'s
representation is computed for the union of all shallower layers' nodes,
so self terms are always available.
"""

from __future__ import annotations

import numpy as np

from repro.core import GraphSample
from repro.errors import ShapeError
from repro.learning.nn import Linear, ReLU
from repro.sparse.formats import sorted_unique


def _positions(ids: np.ndarray, universe: np.ndarray) -> np.ndarray:
    """Positions of ``ids`` inside sorted-unique ``universe``."""
    pos = np.searchsorted(universe, ids)
    if np.any(pos >= len(universe)) or np.any(universe[pos] != ids):
        raise ShapeError("node set mismatch between sample layers")
    return pos


class _AggregationCache:
    """Per-layer cached arrays needed by the backward pass."""

    def __init__(self) -> None:
        self.src_pos: np.ndarray | None = None
        self.dst_pos: np.ndarray | None = None
        self.weights: np.ndarray | None = None
        self.norm: np.ndarray | None = None
        self.h_src: np.ndarray | None = None


def _weighted_mean_aggregate(
    rows: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray,
    h_src: np.ndarray,
    src_universe: np.ndarray,
    dst_universe: np.ndarray,
    cache: _AggregationCache,
) -> np.ndarray:
    """agg[dst] = sum_e w_e * h_src[src_e] / sum_e w_e, vectorized."""
    src_pos = _positions(rows, src_universe)
    dst_pos = _positions(cols, dst_universe)
    dim = h_src.shape[1]
    agg = np.zeros((len(dst_universe), dim), dtype=np.float64)
    np.add.at(agg, dst_pos, weights[:, None].astype(np.float64) * h_src[src_pos])
    norm = np.zeros(len(dst_universe), dtype=np.float64)
    np.add.at(norm, dst_pos, weights.astype(np.float64))
    norm = np.maximum(norm, 1e-12)
    agg = (agg / norm[:, None]).astype(np.float32)
    cache.src_pos, cache.dst_pos = src_pos, dst_pos
    cache.weights, cache.norm = weights.astype(np.float64), norm
    cache.h_src = h_src
    return agg


def _aggregate_backward(
    grad_agg: np.ndarray, cache: _AggregationCache, num_src: int
) -> np.ndarray:
    """Gradient of the weighted mean w.r.t. the source representations."""
    assert cache.src_pos is not None
    grad_scaled = grad_agg.astype(np.float64) / cache.norm[:, None]
    grad_src = np.zeros((num_src, grad_agg.shape[1]), dtype=np.float64)
    np.add.at(
        grad_src,
        cache.src_pos,
        cache.weights[:, None] * grad_scaled[cache.dst_pos],
    )
    return grad_src.astype(np.float32)


class SampledGNN:
    """Shared trunk of the two models.

    ``use_self`` toggles the GraphSAGE self path; the LADIES GCN relies
    solely on the (re-weighted) aggregation, which is how LADIES's
    debiased edge weights enter training.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int,
        *,
        use_self: bool,
        rng: np.random.Generator,
    ) -> None:
        self.num_layers = num_layers
        self.use_self = use_self
        # Layers are indexed by *depth*: depth num_layers-1 runs first and
        # consumes raw features; depth 0 runs last and emits class logits.
        def dims(depth: int) -> tuple[int, int]:
            d_in = in_dim if depth == num_layers - 1 else hidden_dim
            d_out = num_classes if depth == 0 else hidden_dim
            return d_in, d_out

        self.neigh_layers = [
            Linear(*dims(depth), rng=rng) for depth in range(num_layers)
        ]
        self.self_layers = (
            [Linear(*dims(depth), rng=rng) for depth in range(num_layers)]
            if use_self
            else []
        )
        self.activations = [ReLU() for _ in range(num_layers - 1)]
        # Forward caches for backward.
        self._need: list[np.ndarray] = []
        self._agg_caches: list[_AggregationCache] = []
        self._edge_arrays: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    # ------------------------------------------------------------------
    def forward(self, sample: GraphSample, features: np.ndarray) -> np.ndarray:
        """Logits for the sample's seed nodes."""
        layers = sample.layers
        if len(layers) != self.num_layers:
            raise ShapeError(
                f"model has {self.num_layers} layers but sample has {len(layers)}"
            )
        # needed[d]: sorted node ids whose depth-d representation we need.
        bound = len(features)
        need: list[np.ndarray] = [sorted_unique(sample.seeds, bound)]
        for layer in layers:
            need.append(
                sorted_unique(
                    np.concatenate([need[-1], layer.output_nodes]), bound
                )
            )
        self._need = need
        self._agg_caches = []
        self._edge_arrays = []
        h = features[need[self.num_layers]].astype(np.float32)
        for depth in reversed(range(self.num_layers)):
            layer = layers[depth]
            rows, cols, weights = layer.matrix.to_coo_arrays()
            self._edge_arrays.append((rows, cols, weights))
            cache = _AggregationCache()
            agg = _weighted_mean_aggregate(
                rows, cols, weights, h, need[depth + 1], need[depth], cache
            )
            self._agg_caches.append(cache)
            li = depth
            out = self.neigh_layers[li].forward(agg)
            if self.use_self:
                self_pos = _positions(need[depth], need[depth + 1])
                cache.self_pos = self_pos  # type: ignore[attr-defined]
                out = out + self.self_layers[li].forward(h[self_pos])
            if depth > 0:
                out = self.activations[depth - 1].forward(out)
            h = out
        seed_pos = _positions(np.asarray(sample.seeds), need[0])
        self._seed_pos = seed_pos
        self._h_final_rows = len(need[0])
        return h[seed_pos]

    # ------------------------------------------------------------------
    def backward(self, grad_logits: np.ndarray) -> None:
        """Accumulate parameter gradients from the seed-logit gradient."""
        need = self._need
        grad_h = np.zeros(
            (self._h_final_rows, grad_logits.shape[1]), dtype=np.float32
        )
        np.add.at(grad_h, self._seed_pos, grad_logits)
        for i, depth in enumerate(range(self.num_layers)):
            cache = self._agg_caches[self.num_layers - 1 - depth]
            if depth > 0:
                grad_h = self.activations[depth - 1].backward(grad_h)
            grad_agg = self.neigh_layers[depth].backward(grad_h)
            grad_src = _aggregate_backward(
                grad_agg, cache, num_src=len(need[depth + 1])
            )
            if self.use_self:
                grad_self = self.self_layers[depth].backward(grad_h)
                np.add.at(grad_src, cache.self_pos, grad_self)  # type: ignore[attr-defined]
            grad_h = grad_src
        # grad_h now holds d(loss)/d(features of deepest nodes); we do not
        # train input features, so it is dropped.

    # ------------------------------------------------------------------
    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        params = []
        for layer in self.neigh_layers + self.self_layers:
            params.extend(layer.parameters())
        return params

    def zero_grad(self) -> None:
        for layer in self.neigh_layers + self.self_layers:
            layer.zero_grad()

    def flops_per_sample(self, sample: GraphSample, dim_in: int) -> float:
        """Approximate forward+backward FLOPs for the device cost model."""
        total = 0.0
        for depth, layer in enumerate(sample.layers):
            nodes = len(layer.input_nodes)
            total += 3.0 * nodes * self.neigh_layers[depth].flops_per_row
            total += 4.0 * layer.num_edges * dim_in
        return total


class GraphSAGEModel(SampledGNN):
    """GraphSAGE with mean aggregation and a self path."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 3,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(
            in_dim, hidden_dim, num_classes, num_layers, use_self=True, rng=rng
        )


class LadiesGCN(SampledGNN):
    """GCN whose aggregation uses LADIES's debiased edge weights."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        num_layers: int = 3,
        *,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(
            in_dim, hidden_dim, num_classes, num_layers, use_self=True, rng=rng
        )
