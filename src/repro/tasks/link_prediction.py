"""Link prediction: positive edges + seeded negatives, compacted pairs.

The workload follows graphbolt's ``LinkPredictionBlock`` flow: a
mini-batch of *positive* edges is drawn from the live edge set, one
negative pair is forged per positive by corrupting the destination
(rejection-sampled so no negative is a live edge), the union of
endpoints is compacted via :func:`unique_and_compact_node_pairs`, the
sampler runs over the unique seed set, and a binary edge scorer (dot
product of seed embeddings, BCE loss) trains on the compacted pairs.

All randomness flows through the caller's generator, so a fixed seed
reproduces the exact positive/negative stream — the property the
serving fingerprints and the verify suite both lean on.
"""

from __future__ import annotations

import numpy as np

from repro.core.ecsf import GraphSample
from repro.datasets import Dataset
from repro.errors import GSamplerError, ServeError
from repro.sparse.kernels import scatter_add
from repro.tasks.base import Task, TaskBatch, unique_and_compact_node_pairs

__all__ = [
    "LinkPredictionTask",
    "edge_endpoints_of",
    "edge_keys",
    "negative_sample",
    "pair_auc",
]


def edge_endpoints_of(graph) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` int64 endpoint arrays of a graph Matrix.

    Convention: ``src`` is the column (the node whose neighborhood the
    sampler expands), ``dst`` the row (its in-neighbor).
    """
    csc = graph.get("csc")
    src = np.repeat(
        np.arange(csc.shape[1], dtype=np.int64), np.diff(csc.indptr)
    )
    dst = csc.rows.astype(np.int64)
    return src, dst


def edge_keys(src: np.ndarray, dst: np.ndarray, num_nodes: int) -> np.ndarray:
    """Collision-free int64 key per directed edge."""
    return src.astype(np.int64) * np.int64(num_nodes) + dst.astype(np.int64)


def negative_sample(
    src: np.ndarray,
    num_nodes: int,
    live_keys: np.ndarray,
    rng: np.random.Generator,
    *,
    max_rounds: int = 64,
) -> np.ndarray:
    """One corrupted destination per source, never a live edge.

    ``live_keys`` must be the **sorted** key array of the live edge set.
    Destinations are redrawn (vectorized) until every ``(src, dst)``
    pair is absent from it and free of self-loops; the draw sequence is
    fully determined by ``rng``, so a fixed seed reproduces the exact
    negatives.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = rng.integers(0, num_nodes, size=len(src), dtype=np.int64)
    for _ in range(max_rounds):
        keys = edge_keys(src, dst, num_nodes)
        pos = np.searchsorted(live_keys, keys)
        pos = np.minimum(pos, len(live_keys) - 1) if len(live_keys) else pos
        is_live = (
            live_keys[pos] == keys if len(live_keys) else np.zeros(len(keys), bool)
        )
        bad = is_live | (dst == src)
        if not bad.any():
            return dst
        dst = dst.copy()
        dst[bad] = rng.integers(0, num_nodes, size=int(bad.sum()), dtype=np.int64)
    raise GSamplerError(
        "negative sampling failed to converge; graph too dense for "
        f"rejection sampling over {num_nodes} nodes"
    )


def pair_auc(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Rank-based AUC of positive-vs-negative score separation."""
    if len(pos_scores) == 0 or len(neg_scores) == 0:
        return 0.5
    scores = np.concatenate([pos_scores, neg_scores])
    ranks = scores.argsort().argsort().astype(np.float64) + 1.0
    pos_ranks = ranks[: len(pos_scores)]
    u = pos_ranks.sum() - len(pos_scores) * (len(pos_scores) + 1) / 2.0
    return float(u / (len(pos_scores) * len(neg_scores)))


class LinkPredictionTask(Task):
    """Binary edge scoring over compacted positive/negative node pairs."""

    name = "linkpred"

    def __init__(self, *, embedding_dim: int = 16) -> None:
        self.embedding_dim = embedding_dim
        self._src: np.ndarray | None = None
        self._dst: np.ndarray | None = None
        self._live_keys: np.ndarray | None = None
        self._num_nodes = 0

    # ------------------------------------------------------------------
    def prepare(self, dataset: Dataset) -> None:
        self._bind(*edge_endpoints_of(dataset.graph), dataset.num_nodes)

    def _bind(self, src: np.ndarray, dst: np.ndarray, num_nodes: int) -> None:
        self._src, self._dst, self._num_nodes = src, dst, num_nodes
        self._live_keys = np.sort(edge_keys(src, dst, num_nodes))

    def _bound_edges(self) -> tuple[np.ndarray, np.ndarray]:
        if self._src is None or self._dst is None:
            raise GSamplerError(
                "LinkPredictionTask.prepare(dataset) must run first"
            )
        return self._src, self._dst

    def train_units(self, dataset: Dataset) -> np.ndarray:
        return np.arange(len(self._bound_edges()[0]), dtype=np.int64)

    def _pairs(
        self, edge_ids: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Global-id ``(P, 2)`` positive pairs of ``edge_ids`` and one
        forged negative (same source, corrupted destination) per positive."""
        src, dst = self._bound_edges()
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        pos_src = src[edge_ids]
        neg_dst = negative_sample(
            pos_src, self._num_nodes, self._live_keys, rng
        )
        return (
            np.stack([pos_src, dst[edge_ids]], axis=1),
            np.stack([pos_src, neg_dst], axis=1),
        )

    def materialize(
        self, units: np.ndarray, rng: np.random.Generator
    ) -> TaskBatch:
        nodes, cpos, cneg = unique_and_compact_node_pairs(
            *self._pairs(units, rng)
        )
        return TaskBatch(nodes=nodes, pos_pairs=cpos, neg_pairs=cneg)

    # -- serving: a payload is flattened pairs, positives then negatives -
    def request_edges(self, graph) -> tuple[np.ndarray, np.ndarray]:
        return edge_endpoints_of(graph)

    def request_units(self, num_nodes, hotness=None, edges=None) -> np.ndarray:
        if edges is None:
            raise ServeError(
                "a linkpred workload needs the graph's (src, dst) edge "
                "arrays to draw positive pairs from"
            )
        src = np.asarray(edges[0], dtype=np.int64)
        self._bind(src, np.asarray(edges[1], dtype=np.int64), num_nodes)
        # Edges inherit their source node's hotness, so skewed traffic
        # concentrates on the hot nodes' edges just as node requests do.
        edge_hotness = hotness[src] if hotness is not None else -src
        return np.argsort(-edge_hotness.astype(np.float64), kind="stable")

    def request_payload(
        self, units: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return np.concatenate(self._pairs(units, rng)).ravel()

    def request_seeds(self, payload: np.ndarray) -> tuple[np.ndarray, int]:
        """The graphbolt-style compaction step: however many pairs share
        an endpoint, the sampler and the feature fetch see it once."""
        pairs = payload.reshape(-1, 2)
        return unique_and_compact_node_pairs(pairs)[0], len(pairs)

    def output_dim(self, dataset: Dataset) -> int:
        return self.embedding_dim

    # ------------------------------------------------------------------
    def loss_and_metric(
        self,
        model,
        sample: GraphSample,
        features: np.ndarray,
        batch: TaskBatch,
        dataset: Dataset,
    ) -> tuple[float, np.ndarray, float]:
        """BCE over dot-product pair scores; metric is rank AUC.

        ``model.forward`` yields one embedding per seed (the compacted
        unique node set), so pair indices address its rows directly.
        """
        assert batch.pos_pairs is not None and batch.neg_pairs is not None
        emb = model.forward(sample, features)
        pairs = np.concatenate([batch.pos_pairs, batch.neg_pairs])
        labels = np.concatenate(
            [
                np.ones(len(batch.pos_pairs)),
                np.zeros(len(batch.neg_pairs)),
            ]
        )
        left, right = pairs[:, 0], pairs[:, 1]
        scores = np.einsum("ij,ij->i", emb[left], emb[right])
        # Numerically stable BCE-with-logits.
        loss = float(
            np.mean(
                np.maximum(scores, 0.0)
                - scores * labels
                + np.log1p(np.exp(-np.abs(scores)))
            )
        )
        sig = 1.0 / (1.0 + np.exp(-scores))
        dscore = ((sig - labels) / len(pairs)).astype(np.float32)
        grad_emb = (
            scatter_add(left, dscore[:, None] * emb[right], len(emb))
            + scatter_add(right, dscore[:, None] * emb[left], len(emb))
        ).astype(np.float32)
        auc = pair_auc(
            scores[: len(batch.pos_pairs)], scores[len(batch.pos_pairs):]
        )
        return loss, grad_emb, auc
