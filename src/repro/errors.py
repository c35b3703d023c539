"""Exception hierarchy for the gSampler reproduction.

Every error raised by this package derives from :class:`GSamplerError` so
that callers can catch framework errors without masking programming
mistakes (``TypeError`` etc. propagate unchanged).

It also says, once, what a count, a real-valued knob and an id array
are at a public boundary: :func:`check_count`, :func:`check_real` and
:func:`check_ids`.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class GSamplerError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GSamplerError):
    """An operation received operands with incompatible shapes."""


class FormatError(GSamplerError):
    """A sparse matrix was asked for an unsupported or unknown layout."""


class TraceError(GSamplerError):
    """The symbolic tracer could not record a user program."""


class PassError(GSamplerError):
    """An IR optimization pass found the graph in an inconsistent state."""


class InvariantError(PassError):
    """The IR invariant checker rejected a graph between pass transitions.

    Raised by :func:`repro.verify.invariants.check_invariants` — either
    directly in tests, or by :class:`~repro.ir.passes.base.PassManager`
    when constructed with ``debug=True``.  The message names the pass
    stage after which the violation was observed.
    """


class UnsupportedAlgorithmError(GSamplerError):
    """A baseline system was asked to run an algorithm it does not support.

    This mirrors the N/A entries in Figures 7 and 8 of the paper: e.g.
    GunRock only implements GraphSAGE, PyG has no GPU path for complex
    algorithms, and vertex-centric systems cannot express layer-wise
    sampling at all.
    """

    def __init__(self, system: str, algorithm: str, reason: str) -> None:
        self.system = system
        self.algorithm = algorithm
        self.reason = reason
        super().__init__(f"{system} cannot run {algorithm}: {reason}")


class MemoryBudgetError(GSamplerError):
    """A super-batch configuration exceeded the user memory budget."""


class DeviceError(GSamplerError):
    """The device simulator was used inconsistently."""


class ServeError(GSamplerError):
    """The online serving simulator was configured inconsistently.

    Raised by :mod:`repro.serve` for invalid workload specs (non-positive
    arrival rates, unknown arrival processes), batching policies that can
    never fire (zero max batch), and SLO targets that cannot be expressed
    on the simulated clock.
    """


def check_count(
    name: str, value: object, *, low: int = 1,
    error: type[GSamplerError] = ShapeError,
) -> int:
    """``value`` as an ``int``, refused unless it is a Python or NumPy
    integer (bool is not one) that is ``>= low``.

    ``error`` is the type raised; serving knobs raise ``ServeError``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def check_real(
    name: str, value: object, interval: str, *,
    error: type[GSamplerError] = ShapeError,
) -> float:
    """``value``, refused unless it is a finite real number (bool is not
    one) inside ``interval``, written ``"[0, 1]"``, ``"(0, inf)"``, ...:
    a bracket is a closed end, a parenthesis an open one.

    ``error`` is the type raised, as for :func:`check_count`.
    """
    low, high = (float(end) for end in interval[1:-1].split(","))
    inside = (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and (isinstance(value, numbers.Integral) or math.isfinite(value))
        and (low < value if interval[0] == "(" else low <= value)
        and (value < high if interval[-1] == ")" else value <= high)
    )
    if not inside:
        raise error(f"{name} must be in {interval}, got {value!r}")
    return value


def check_ids(name: str, values: object, extent: int, *, low: int = 0) -> np.ndarray:
    """``values`` as an int64 id array, refused with a ``ShapeError``
    unless it is 1-D, integer (bool is not) and every id lies in
    ``[low, extent)``.

    An empty array of any dtype is empty ids.  A passing check costs one
    ``min`` and one ``max``; the first offending id is found only to name
    it.
    """
    ids = np.asarray(values)
    if ids.ndim != 1:
        raise ShapeError(f"{name} ids must be 1-D, got shape {ids.shape}")
    if ids.size:
        if ids.dtype.kind not in "iu":
            raise ShapeError(f"{name} ids must be integers, got dtype {ids.dtype}")
        if int(ids.min()) < low or int(ids.max()) >= extent:
            bad = ids[(ids < low) | (ids >= extent)][0]
            raise ShapeError(f"{name} {int(bad)} is outside [{low}, {extent})")
    return ids.astype(np.int64, copy=False)
