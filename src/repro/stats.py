"""Shared latency-statistics helpers: percentiles and sliding windows.

One home for the percentile math that used to be re-implemented in
``repro.serve.metrics`` (report aggregation), the serving simulator's
SLO monitor (windowed p99), and the benchmark scripts (table columns).
Everything is a thin, deterministic wrapper over :func:`numpy.percentile`
so every consumer computes bit-identical numbers from the same samples —
the property the serving determinism guard and the cluster's per-replica
aggregation both rely on.
"""

from __future__ import annotations

from collections import deque

import numpy as np

#: Percentiles reported by the serving report and the bench tables.
LATENCY_PERCENTILES = (50.0, 95.0, 99.0)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values``; 0.0 on an empty sample."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, q))


def percentile_ms(latencies, q: float) -> float:
    """The ``q``-th percentile of ``latencies`` (seconds), in ms."""
    return percentile(latencies, q) * 1e3


class SlidingWindow:
    """A bounded FIFO of float samples with percentile queries.

    The serving degradation ladder watches the p99 of the last ``size``
    completed-request latencies; per-replica SLO monitors each own one.
    Pushing beyond ``size`` drops the oldest sample, exactly like the
    ``del window[0]`` list idiom this replaces.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"window size must be positive, got {size}")
        self._samples: deque[float] = deque(maxlen=size)

    def push(self, value: float) -> None:
        self._samples.append(float(value))

    def __len__(self) -> int:
        return len(self._samples)

    def values(self) -> np.ndarray:
        """The window's samples, oldest first."""
        return np.asarray(self._samples, dtype=np.float64)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the windowed samples (0.0 if empty)."""
        return percentile(self.values(), q)

    def clear(self) -> None:
        self._samples.clear()
