"""The comparison set: one table, one row per system.

Capability sets mirror the N/A cells of Figures 7 and 8, and each
``Profile`` states how the system's execution model distorts a launch:

* **gSampler** itself runs every registered algorithm natively with all
  optimizations on (the reference row).
* **DGL** runs everything benchmarked (the paper's authors
  hand-implemented the missing complex algorithms) on GPU or CPU, with
  UVA, but has no native GPU Node2Vec.  It executes the plain (unfused,
  greedily-laid-out) operator sequence; each logical kernel splits into
  ~3 launches because eager execution materializes and re-reads
  intermediates, and its general-purpose kernels carry a modest
  efficiency penalty (the paper's "P beats DGL" observation).
* **PyG** samples on CPU except DeepWalk (its only GPU sampler) and has
  no UVA; it lacks LADIES/AS-GCN/PASS entirely and runs ShaDow on CPU.
  Its Python-level sampling loops are markedly less efficient than DGL's
  C++ samplers (Table 1: 96.2% sampling share).
* **SkyWalker** is a vertex-centric GPU walk/neighbor sampler with alias
  tables and UVA — the strongest baseline for simple algorithms — but
  cannot express layer-wise or tensor-compute algorithms.
  Frontier-parallel execution exposes one task per frontier (poor
  occupancy at small batches) and suffers warp divergence from skewed
  degrees: the two effects behind gSampler's larger speedups on small
  graphs.
* **GunRock** is general vertex-centric graph processing: GraphSAGE only,
  no UVA (Figure 7's PP/FS N/A cells).
* **cuGraph** supports walks and uniform neighborhoods through a bulk API
  and cannot load host-resident graphs (the paper's PP load never
  finished).  The paper finds it "much slower than the other systems on
  GPU because it is inefficient for the mini-batch sampling of graph
  learning" — modeled as a large fixed cost per launch.
"""

from __future__ import annotations

import dataclasses

from repro.algorithms import BENCHMARKED, SIMPLE
from repro.baselines.base import BaselineSystem, Profile
from repro.errors import GSamplerError
from repro.sampler import OptimizationConfig

#: What DGL runs: the benchmarked seven plus FastGCN.
_DGL = frozenset(BENCHMARKED) | {"fastgcn"}
_SIMPLE = frozenset(SIMPLE)
#: The eager, unoptimized configuration every baseline executes with.
_PLAIN = OptimizationConfig.plain()

#: (name, device_kind, supports_uva, supported, profile, config) per system.
SYSTEMS: dict[str, BaselineSystem] = {
    "gsampler": BaselineSystem(
        "gSampler", "gpu", True, None, None, OptimizationConfig()
    ),
    "dgl-gpu": BaselineSystem(
        "DGL-GPU", "gpu", True, _DGL - {"node2vec"},
        Profile(cost_scale=1.5, launch_multiplier=3), _PLAIN,
    ),
    "dgl-cpu": BaselineSystem(
        "DGL-CPU", "cpu", True, _DGL,
        Profile(cost_scale=1.5, launch_multiplier=3), _PLAIN,
    ),
    "pyg-gpu": BaselineSystem(
        "PyG-GPU", "gpu", False, frozenset({"deepwalk"}),
        Profile(cost_scale=2.5, launch_multiplier=2), _PLAIN,
    ),
    "pyg-cpu": BaselineSystem(
        "PyG-CPU", "cpu", False, _SIMPLE | {"shadow"},
        Profile(cost_scale=2.5, launch_multiplier=2), _PLAIN,
    ),
    "skywalker": BaselineSystem(
        "SkyWalker", "gpu", True, _SIMPLE,
        Profile(cost_scale=1.1, divergence=2.0, occupancy_divisor=8.0), _PLAIN,
    ),
    "gunrock": BaselineSystem(
        "GunRock", "gpu", False, frozenset({"graphsage"}),
        Profile(cost_scale=1.6, divergence=3.0, occupancy_divisor=24.0), _PLAIN,
    ),
    "cugraph": BaselineSystem(
        "cuGraph", "gpu", False, _SIMPLE,
        Profile(cost_scale=1.5, fixed_seconds_per_launch=120e-6), _PLAIN,
    ),
}


def make_system(name: str) -> BaselineSystem:
    """The system registered under ``name`` (case-insensitive)."""
    try:
        return SYSTEMS[name.lower()]
    except KeyError:
        raise GSamplerError(
            f"unknown system {name!r}; available: {sorted(SYSTEMS)}"
        ) from None


def GSamplerSystem(config: OptimizationConfig | None = None) -> BaselineSystem:
    """gSampler itself, optionally under another optimization config."""
    if config is None:
        return SYSTEMS["gsampler"]
    return dataclasses.replace(SYSTEMS["gsampler"], config=config)


def DGLLike(device_kind: str = "gpu") -> BaselineSystem:
    """DGL's eager message-passing execution on ``"gpu"`` or ``"cpu"``."""
    return make_system(f"dgl-{device_kind}")


#: Systems compared in Figure 7 (simple algorithms): all of them.
FIGURE7_SYSTEMS = tuple(SYSTEMS)

#: Systems compared in Figure 8 (complex algorithms).
FIGURE8_SYSTEMS = ("gsampler", "dgl-gpu", "dgl-cpu", "pyg-cpu")
