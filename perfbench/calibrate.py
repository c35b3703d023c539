"""A fixed reference kernel that reads the machine's speed of the moment.

The benchmark runs on a small shared box.  For seconds to minutes at a
time everything on it runs 15-35 % slower, CPU time as much as wall time
(a neighbour on the sibling thread or the memory bus, not preemption), so
more rounds do not average it out: whole runs land in a slow stretch.
This kernel does a fixed amount of work of the kinds the program does
(segmented sort, unique, prefix sums, random draws, a small matrix
product, many tiny NumPy calls from a Python loop).  The child times it
before and after every round; a round's *host seconds* are its wall
seconds divided by how much slower than :data:`NOMINAL_S` the kernel ran
around it.  Every ``host_*`` metric and ``setup_s`` is in those seconds:
seconds of this box when it is quiet.

Imported only inside the child process (it imports NumPy).
"""

from __future__ import annotations

import time

import numpy as np

#: Wall seconds one :meth:`Reference.sample` takes on the box the
#: baseline was measured on (2-core 2.1 GHz Xeon guest) when it is quiet.
NOMINAL_S = 0.100


class Reference:
    """Fixed inputs, fixed work; only the time it takes varies."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.segments = np.sort(rng.integers(0, 12_000, 240_000))
        self.keys = rng.random(240_000)
        self.small = rng.random(48)
        self.square = rng.random((256, 256))
        self.rng = rng

    def sample(self) -> float:
        """Seconds the kernel took just now."""
        start = time.perf_counter()
        order = np.lexsort((self.keys, self.segments))
        picked = self.segments[order]
        for _ in range(2):
            np.unique(picked)
        for _ in range(6):
            np.cumsum(self.keys[order])
            self.rng.exponential(size=len(picked)) / (picked + 1.0)
            self.square @ self.square
        small = self.small
        for _ in range(36_000):
            small.cumsum()
        return time.perf_counter() - start


def speed(before_s: float, after_s: float) -> float:
    """How much slower than nominal the box ran between two samples."""
    return (before_s + after_s) / (2.0 * NOMINAL_S)
