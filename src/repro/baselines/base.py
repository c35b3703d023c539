"""Baseline execution models (paper Table 3 and Section 5.1).

Every baseline runs the *same logical sampling work* as gSampler — the
samples it produces are real — but issues kernel launches the way its
execution model would:

* eager message-passing systems (DGL, PyG) run the unoptimized operator
  sequence, materializing every intermediate, with greedy per-operator
  format choices and no fusion or super-batching;
* vertex-centric systems (SkyWalker, GunRock, NextDoor-style) parallelize
  over frontiers instead of edges, paying warp divergence and load
  imbalance from skewed degrees;
* bulk-API libraries (cuGraph) add a fixed per-call setup cost that
  dwarfs small mini-batches.

A :class:`Profile` captures those differences as launch-record
transformations, so all systems are priced by the same device simulator
and differ only in the documented execution characteristics.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.algorithms import available_algorithms, make_algorithm
from repro.algorithms.base import Pipeline
from repro.core import new_rng
from repro.datasets import Dataset
from repro.device import ExecutionContext
from repro.errors import UnsupportedAlgorithmError
from repro.sampler import OptimizationConfig


@dataclasses.dataclass(frozen=True)
class Profile:
    """How a system's execution model distorts each kernel launch."""

    #: Kernel implementation efficiency relative to gSampler's (>= 1).
    cost_scale: float = 1.0
    #: Multiplier on warp divergence (vertex-centric thread divergence).
    divergence: float = 1.0
    #: Divisor on a launch's parallel task count (frontier-parallel
    #: systems expose far fewer tasks than edge-parallel ones).
    occupancy_divisor: float = 1.0
    #: Flat per-launch cost in seconds (bulk-API setup).
    fixed_seconds_per_launch: float = 0.0
    #: Extra launches per logical launch (eager systems materialize and
    #: re-load intermediates that fused execution keeps in registers).
    launch_multiplier: int = 1


class ProfiledPipeline(Pipeline):
    """Runs an inner pipeline, replaying its launches under a profile."""

    def __init__(self, inner: Pipeline, profile: Profile) -> None:
        self.inner = inner
        self.profile = profile
        self.supports_superbatch = False  # baselines don't super-batch

    def sample_batch(
        self,
        seeds: np.ndarray,
        *,
        ctx: ExecutionContext = None,  # type: ignore[assignment]
        rng: np.random.Generator | None = None,
    ) -> object:
        rng = rng if rng is not None else new_rng(None)
        inner_ctx = ExecutionContext(
            ctx.device,
            graph_on_device=ctx.graph_on_device,
            memory=ctx.memory,
            cost_scale=1.0,
        )
        result = self.inner.sample_batch(seeds, ctx=inner_ctx, rng=rng)
        p = self.profile
        for launch in inner_ctx.launches:
            for _ in range(p.launch_multiplier):
                ctx.record(
                    launch.name,
                    bytes_read=launch.bytes_read * p.cost_scale / p.launch_multiplier,
                    bytes_written=launch.bytes_written
                    * p.cost_scale
                    / p.launch_multiplier,
                    flops=launch.flops * p.cost_scale / p.launch_multiplier,
                    tasks=max(1, int(launch.tasks / p.occupancy_divisor)),
                    divergence=launch.divergence * p.divergence,
                    graph_bytes=launch.uva_bytes,
                    fixed_seconds=p.fixed_seconds_per_launch,
                )
        return result


@dataclasses.dataclass(frozen=True)
class BaselineSystem:
    """One row of the comparison: a named system on a fixed device kind."""

    #: Display name used by benchmarks ("DGL-GPU", "SkyWalker", ...).
    name: str
    #: "gpu" or "cpu".
    device_kind: str
    #: Whether the system can reach host-resident graphs from the GPU.
    supports_uva: bool
    #: Algorithm names this system can run at all; ``None`` = every
    #: registered algorithm (gSampler itself).
    supported: frozenset[str] | None
    #: The execution model's launch distortion; ``None`` = run natively.
    profile: Profile | None
    #: The optimization configuration the system's programs compile under.
    config: OptimizationConfig

    def supported_algorithms(self) -> frozenset[str]:
        """Names this system can run at all."""
        if self.supported is None:
            return frozenset(available_algorithms())
        return self.supported

    def check_support(self, algorithm: str, dataset: Dataset) -> None:
        """Raise :class:`UnsupportedAlgorithmError` for N/A cells."""
        if algorithm not in self.supported_algorithms():
            raise UnsupportedAlgorithmError(
                self.name, algorithm, "algorithm not implemented by this system"
            )
        if (
            self.device_kind == "gpu"
            and not dataset.graph_on_device
            and not self.supports_uva
        ):
            raise UnsupportedAlgorithmError(
                self.name,
                algorithm,
                f"graph {dataset.name} exceeds GPU memory and the system "
                "has no UVA support",
            )

    def build_pipeline(
        self,
        algorithm: str,
        dataset: Dataset,
        example_seeds: np.ndarray,
    ) -> Pipeline:
        """Construct this system's pipeline for ``algorithm``.

        Features are always offered; only model-driven algorithms read
        them.
        """
        pipeline = make_algorithm(algorithm).build(
            dataset.graph,
            example_seeds,
            features=dataset.features,
            config=self.config,
        )
        if self.profile is None:
            return pipeline
        return ProfiledPipeline(pipeline, self.profile)
