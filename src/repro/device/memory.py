"""GPU memory pool with peak tracking.

gSampler leverages a caching memory pool (the paper reuses PyTorch's) to
avoid repeated allocator round-trips, and Table 9 reports the *extra* GPU
memory each system consumes during sampling.  This module provides a small
pool that mimics that behaviour: frees return blocks to a size-bucketed
free list, allocations prefer recycling, and the pool tracks live and peak
bytes so the benchmarks can report memory the way Table 9 does.
"""

from __future__ import annotations

import dataclasses

from repro.errors import DeviceError, MemoryBudgetError


@dataclasses.dataclass
class Allocation:
    """A live allocation handle returned by :meth:`MemoryPool.alloc`."""

    alloc_id: int
    nbytes: int
    tag: str
    freed: bool = False


class MemoryPool:
    """A caching allocator model with live/peak accounting.

    The pool does not hold real buffers (NumPy owns the actual memory); it
    models the *device* allocator so that simulated memory consumption can
    be measured and budgets enforced, independent of host-side GC timing.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 0:
            raise DeviceError(f"pool capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._next_id = 0
        self._live: dict[int, Allocation] = {}
        # Size-bucketed cache of freed block sizes, mimicking a caching
        # allocator: cached bytes still count against capacity until
        # trimmed, but re-allocating a cached size is free.
        self._cached: dict[int, int] = {}
        self.live_bytes = 0
        self.cached_bytes = 0
        self.peak_bytes = 0
        self.alloc_count = 0
        self.recycle_count = 0

    def _round(self, nbytes: int) -> int:
        """Round a request up to the pool's 512-byte allocation granule."""
        if nbytes <= 0:
            return 512
        return ((nbytes + 511) // 512) * 512

    def alloc(self, nbytes: int, tag: str = "") -> Allocation:
        """Allocate ``nbytes`` (rounded to the granule) under ``tag``."""
        size = self._round(nbytes)
        recycled = self._cached.get(size, 0) > 0
        # The capacity check runs before any counter mutation so that a
        # MemoryBudgetError leaves the pool exactly as it was.  Recycled
        # blocks are exempt: they swap cached bytes for live bytes, a
        # net-zero move against capacity, so they can neither exceed the
        # budget nor justify a trim.
        if self.capacity is not None and not recycled:
            if self.live_bytes + self.cached_bytes + size > self.capacity:
                self.trim()
                if self.live_bytes + size > self.capacity:
                    raise MemoryBudgetError(
                        f"allocation of {size} bytes for {tag!r} exceeds "
                        f"capacity {self.capacity} (live {self.live_bytes})"
                    )
        if recycled:
            remaining = self._cached[size] - 1
            if remaining:
                self._cached[size] = remaining
            else:
                # Drop empty buckets so long super-batch runs cannot grow
                # the cache dict without bound.
                del self._cached[size]
            self.cached_bytes -= size
            self.recycle_count += 1
        handle = Allocation(alloc_id=self._next_id, nbytes=size, tag=tag)
        self._next_id += 1
        self._live[handle.alloc_id] = handle
        self.live_bytes += size
        self.alloc_count += 1
        self.peak_bytes = max(self.peak_bytes, self.live_bytes + self.cached_bytes)
        return handle

    def free(self, handle: Allocation) -> None:
        """Return an allocation to the cache."""
        if handle.freed:
            raise DeviceError(f"double free of allocation {handle.alloc_id}")
        if handle.alloc_id not in self._live:
            raise DeviceError(f"unknown allocation {handle.alloc_id}")
        handle.freed = True
        del self._live[handle.alloc_id]
        self.live_bytes -= handle.nbytes
        self._cached[handle.nbytes] = self._cached.get(handle.nbytes, 0) + 1
        self.cached_bytes += handle.nbytes

    def trim(self) -> None:
        """Release all cached blocks back to the device."""
        self._cached.clear()
        self.cached_bytes = 0

    def reset_peak(self) -> None:
        """Restart peak tracking from the current live footprint."""
        self.peak_bytes = self.live_bytes + self.cached_bytes

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    def stats(self) -> dict[str, int]:
        """A snapshot of the pool counters, for reports and tests."""
        return {
            "live_bytes": self.live_bytes,
            "cached_bytes": self.cached_bytes,
            "peak_bytes": self.peak_bytes,
            "alloc_count": self.alloc_count,
            "recycle_count": self.recycle_count,
            "live_allocations": self.live_allocations,
        }
