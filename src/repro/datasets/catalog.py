"""The dataset catalog: laptop-scale stand-ins for the paper's graphs.

Table 6 of the paper:

=============== ===== ====== ====== ==========
Dataset         Abbr.   |V|    |E|   Placement
=============== ===== ====== ====== ==========
LiveJournal      LJ      5M    69M   GPU memory
Ogbn-Products    PD    2.5M   126M   GPU memory
Ogbn-Papers100M  PP    111M   1.6B   CPU memory (UVA)
Friendster       FS     65M   1.8B   CPU memory (UVA)
=============== ===== ====== ====== ==========

Our stand-ins keep the *relative* characteristics that drive the paper's
results — PD has by far the largest average degree (~50 vs ~14), PP and
FS are the large host-resident graphs accessed over UVA, FS samples only
1% of its nodes as frontiers — at ~1/200 scale so every benchmark runs in
seconds.  A global ``scale`` knob grows them when more fidelity is wanted.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.core.matrix import Matrix, from_edges
from repro.datasets import synthetic
from repro.errors import ShapeError, check_count, check_real


@dataclasses.dataclass
class Dataset:
    """A loaded graph with features/labels and placement metadata."""

    name: str
    graph: Matrix
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    train_ids: np.ndarray
    #: False for the paper's PP/FS: graph stays in host memory, GPU
    #: kernels reach it via UVA.
    graph_on_device: bool

    @property
    def num_nodes(self) -> int:
        return self.graph.shape[0]

    @property
    def num_edges(self) -> int:
        return self.graph.nnz


@dataclasses.dataclass(frozen=True)
class _Spec:
    generator: str  # "rmat" | "sbm"
    scale_or_nodes: int
    edge_factor: int
    symmetric: bool
    on_device: bool
    frontier_fraction: float
    num_classes: int
    feature_dim: int


_SPECS: dict[str, _Spec] = {
    # LJ: directed social graph, moderate degree (~14).
    "lj": _Spec("rmat", 15, 13, False, True, 1.0, 16, 32),
    # PD: undirected co-purchase graph, the *highest* average degree
    # (~50) — the property behind gSampler's smaller speedups on PD.
    # SBM so node classification is learnable (Tables 1/8).
    "pd": _Spec("sbm", 12_000, 25, True, True, 1.0, 16, 32),
    # PP: the big host-resident citation graph (UVA access path).
    "pp": _Spec("rmat", 17, 7, False, False, 1.0, 16, 32),
    # FS: the biggest graph; the paper samples 1% of nodes as frontiers.
    "fs": _Spec("rmat", 16, 14, True, False, 0.01, 16, 32),
}


def available_datasets() -> list[str]:
    """Names accepted by :func:`load_dataset`."""
    return sorted(_SPECS)


def load_dataset(name: str, scale: float = 1.0, seed: int = 2023) -> Dataset:
    """Build (and cache) one of the stand-in datasets.

    ``scale`` multiplies PD's node count (``int(12_000 * scale)``) and
    grows the RMAT graphs (LJ, PP, FS) by whole powers of two only: they
    have ``2 ** (s + max(0, floor(log2(scale))))`` nodes, so every scale
    below 2 builds the full-size graph (LJ has 32 768 nodes at 0.05,
    0.25, 1.0 and 1.5; EXPERIMENTS.md deviation 9).  The scale, the
    seed and the name are checked before any generation or cache read
    (the cache's keys do not tell ``True`` from ``1.0``); a scale that
    leaves PD no node is refused, naming the smallest accepted one.
    Names are case-insensitive: ``"PD"`` and ``"pd"`` are one cache entry.
    """
    check_real("dataset scale", scale, "(0, inf)")
    check_count("dataset seed", seed, low=0)
    key = name.lower()
    try:
        spec = _SPECS[key]
    except KeyError:
        raise ShapeError(
            f"unknown dataset {name!r}; available: {available_datasets()}"
        ) from None
    if spec.generator == "sbm" and int(spec.scale_or_nodes * scale) == 0:
        raise ShapeError(
            f"dataset scale {scale!r} leaves {name!r} no node; the smallest "
            f"accepted scale is {1 / spec.scale_or_nodes!r}"
        )
    return _build_dataset(key, scale, seed)


@functools.lru_cache(maxsize=8)
def _build_dataset(key: str, scale: float, seed: int) -> Dataset:
    spec = _SPECS[key]
    rng = np.random.default_rng(seed)
    blocks = None
    if spec.generator == "rmat":
        rmat_scale = spec.scale_or_nodes + max(0, int(np.log2(max(scale, 1e-9))))
        num_nodes = 1 << rmat_scale
        src, dst = synthetic.rmat_edges(
            rmat_scale, spec.edge_factor, seed=seed
        )
    else:
        num_nodes = int(spec.scale_or_nodes * scale)
        src, dst, blocks = synthetic.sbm_edges(
            num_nodes, spec.num_classes, float(spec.edge_factor), seed=seed
        )
    if spec.symmetric:
        src, dst = synthetic.symmetrize(src, dst)
    src, dst = synthetic.dedupe_edges(src, dst, num_nodes)
    weights = synthetic.random_edge_weights(len(src), seed=seed + 1)
    graph = from_edges(src, dst, num_nodes, weights=weights)

    if blocks is not None:
        labels = blocks
        features = synthetic.block_features(
            blocks, spec.num_classes, spec.feature_dim, seed=seed + 2
        )
    else:
        # Structure-free labels: hash the node id into classes. Accuracy
        # on these is near-chance, which is fine — the RMAT datasets are
        # used for sampling-speed experiments, not accuracy.
        labels = (np.arange(num_nodes) % spec.num_classes).astype(np.int64)
        features = synthetic.random_features(
            num_nodes, spec.feature_dim, seed=seed + 2
        )
    n_train = max(1, int(num_nodes * spec.frontier_fraction))
    train_ids = rng.choice(num_nodes, size=n_train, replace=False).astype(np.int64)
    return Dataset(
        name=key,
        graph=graph,
        features=features,
        labels=labels,
        num_classes=spec.num_classes,
        train_ids=np.sort(train_ids),
        graph_on_device=spec.on_device,
    )
