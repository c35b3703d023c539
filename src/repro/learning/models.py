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
from repro.sparse.formats import edge_values, sorted_unique
from repro.sparse.kernels import scatter_add


def _positions(ids: np.ndarray, universe: np.ndarray) -> np.ndarray:
    """Positions of ``ids`` inside sorted-unique ``universe``."""
    pos = np.searchsorted(universe, ids)
    if np.any(pos >= len(universe)) or np.any(universe[pos] != ids):
        raise ShapeError("node set mismatch between sample layers")
    return pos


def _endpoint_positions(
    local: np.ndarray, ids: np.ndarray | None, universe: np.ndarray
) -> np.ndarray:
    """Position inside sorted-unique ``universe`` of every edge endpoint.

    ``local`` indexes the block's id table ``ids``.  The table is looked up
    once (one search per node, not per edge) and gathered through
    ``local``; only an id some edge touches has to be in ``universe``.  A
    block without a table carries original ids on that axis.
    """
    if ids is None:
        return _positions(local, universe)
    pos = np.searchsorted(universe, ids)
    found = pos < len(universe)
    found[found] = universe[pos[found]] == ids[found]
    if not found[local].all():
        raise ShapeError("node set mismatch between sample layers")
    return pos[local]


class _AggregationCache:
    """Per-layer cached arrays needed by the backward pass."""

    def __init__(self) -> None:
        self.src_pos: np.ndarray | None = None
        self.dst_pos: np.ndarray | None = None
        self.self_pos: np.ndarray | None = None
        self.weights: np.ndarray | None = None
        self.norm: np.ndarray | None = None
        self.h_src: np.ndarray | None = None


def _weighted_mean_aggregate(
    src_pos: np.ndarray,
    dst_pos: np.ndarray,
    weights: np.ndarray,
    h_src: np.ndarray,
    num_dst: int,
    cache: _AggregationCache,
) -> np.ndarray:
    """agg[dst] = sum_e w_e * h_src[src_e] / sum_e w_e, vectorized."""
    weights = weights.astype(np.float64)
    agg = scatter_add(dst_pos, weights[:, None] * h_src[src_pos], num_dst)
    norm = np.maximum(scatter_add(dst_pos, weights, num_dst), 1e-12)
    agg = (agg / norm[:, None]).astype(np.float32)
    cache.src_pos, cache.dst_pos = src_pos, dst_pos
    cache.weights, cache.norm = weights, norm
    cache.h_src = h_src
    return agg


def _aggregate_backward(
    grad_agg: np.ndarray, cache: _AggregationCache, num_src: int
) -> np.ndarray:
    """Gradient of the weighted mean w.r.t. the source representations."""
    assert cache.src_pos is not None
    grad_scaled = grad_agg.astype(np.float64) / cache.norm[:, None]
    return scatter_add(
        cache.src_pos, cache.weights[:, None] * grad_scaled[cache.dst_pos], num_src
    ).astype(np.float32)


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
        for depth, layer in enumerate(layers):
            weights = edge_values(layer.matrix.any_storage())
            if not np.isfinite(weights).all():
                raise ShapeError(
                    f"sample layer {depth} has non-finite edge weights"
                )
        self._need = need
        self._agg_caches = []
        h = features[need[self.num_layers]].astype(np.float32)
        for depth in reversed(range(self.num_layers)):
            matrix = layers[depth].matrix
            coo = matrix.get("coo")
            cache = _AggregationCache()
            agg = _weighted_mean_aggregate(
                _endpoint_positions(coo.rows, matrix.row_ids, need[depth + 1]),
                _endpoint_positions(coo.cols, matrix.col_ids, need[depth]),
                edge_values(coo),
                h,
                len(need[depth]),
                cache,
            )
            self._agg_caches.append(cache)
            out = self.neigh_layers[depth].forward(agg)
            if self.use_self:
                cache.self_pos = _positions(need[depth], need[depth + 1])
                out = out + self.self_layers[depth].forward(h[cache.self_pos])
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
        # Seeds may repeat and this sum runs in float32, so it stays the
        # unbuffered scatter: ``scatter_add`` would round once, from float64.
        np.add.at(grad_h, self._seed_pos, grad_logits)
        for depth in range(self.num_layers):
            cache = self._agg_caches[self.num_layers - 1 - depth]
            if depth > 0:
                grad_h = self.activations[depth - 1].backward(grad_h)
            grad_agg = self.neigh_layers[depth].backward(grad_h)
            grad_src = _aggregate_backward(
                grad_agg, cache, num_src=len(need[depth + 1])
            )
            if self.use_self:
                # ``self_pos`` are distinct positions: a plain indexed add.
                grad_src[cache.self_pos] += self.self_layers[depth].backward(
                    grad_h
                )
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
