"""Baseline GPU/CPU sampling systems reproduced as execution models."""

from repro.baselines.base import (
    BaselineSystem,
    Profile,
    ProfiledPipeline,
)
from repro.baselines.message_passing import (
    MessagePassingGraph,
    copy_e,
    copy_u,
    dgl_normalize,
    matrix_normalize,
    reduce_max,
    reduce_mean,
    reduce_sum,
    u_mul_e,
)
from repro.baselines.systems import (
    FIGURE7_SYSTEMS,
    FIGURE8_SYSTEMS,
    SYSTEMS,
    DGLLike,
    GSamplerSystem,
    make_system,
)

__all__ = [
    "FIGURE7_SYSTEMS",
    "FIGURE8_SYSTEMS",
    "SYSTEMS",
    "BaselineSystem",
    "DGLLike",
    "GSamplerSystem",
    "MessagePassingGraph",
    "Profile",
    "ProfiledPipeline",
    "copy_e",
    "copy_u",
    "dgl_normalize",
    "make_system",
    "matrix_normalize",
    "reduce_max",
    "reduce_mean",
    "reduce_sum",
    "u_mul_e",
]
