"""Deterministic request workloads for the online serving simulator.

An online sampling service sees a stream of *requests*: each carries a
small payload of task-defined seed units — seed **nodes** for node-level
tasks (one user's ego plus recent interactions, in the recommendation
setting the paper's motivation cites), or candidate **node pairs** for
link prediction; what a payload holds and means is the
:class:`~repro.tasks.Task`'s business (its ``request_*`` hooks), not
this module's.  Each request arrives
at a simulated timestamp drawn from an arrival process.  This module
generates such streams reproducibly from a single seed:

* **poisson** — memoryless arrivals at a constant rate, the M/. baseline
  every queueing analysis starts from;
* **bursty** — an on/off modulated Poisson process (rate ``x burst_factor``
  during the on phase, ``/ burst_factor`` during the off phase), the shape
  that stresses admission control;
* **diurnal** — a sinusoidally modulated rate (the day/night traffic
  curve), generated by thinning, so long runs sweep through both the
  batching knee and the idle regime.

Seed-node choice is skewed: nodes are ranked by a hotness score (degree,
by default — the same ranking the feature cache pins by)
and sampled with probability proportional to ``rank^-skew``, so popular
nodes recur across requests and exercise the cache exactly as skewed real
traffic would.

Everything is driven by one :class:`numpy.random.Generator` seeded from
the spec, so two workloads built from equal specs are bit-identical —
the property the serving determinism guard asserts end to end.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math

import numpy as np

from repro.core import new_rng
from repro.errors import ServeError, check_count, check_real
from repro.tasks import Task

#: Arrival process names understood by :func:`generate_workload`.
ARRIVAL_PROCESSES = ("poisson", "bursty", "diurnal")

#: Seed payloads are always int64 — the dtype every sampler kernel,
#: cache lookup, and fingerprint assumes.  Enforced at generation.
SEED_DTYPE = np.int64


def as_seed_units(seeds: np.ndarray) -> np.ndarray:
    """Validate one request's seed payload: 1-D, non-empty, int64."""
    seeds = np.asarray(seeds)
    if seeds.ndim != 1 or seeds.size == 0:
        raise ServeError(
            f"request seeds must be a non-empty 1-D array, got shape "
            f"{seeds.shape}"
        )
    if seeds.dtype != SEED_DTYPE:
        raise ServeError(
            f"request seeds must be {SEED_DTYPE.__name__}, got {seeds.dtype}"
        )
    return seeds


@dataclasses.dataclass(frozen=True)
class Request:
    """One inference-sampling request.

    ``arrival`` is in simulated seconds on the same clock the device
    queues run on; ``seeds`` is the request's task-defined payload of
    int64 seed units.  For node tasks, each unit is a node id whose
    neighborhood the service must sample.  For link prediction, the
    payload is row-major flattened ``(pairs, 2)`` endpoint pairs — the
    first half positive edges, the second half negative-sampled pairs —
    which the task compacts to a unique seed-node set before sampling
    (:meth:`~repro.tasks.Task.request_seeds`).
    """

    rid: int
    arrival: float
    seeds: np.ndarray


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to regenerate a request stream bit-for-bit."""

    num_requests: int = 512
    #: Mean arrival rate in requests per simulated second.  For the
    #: modulated processes this is the baseline the modulation swings
    #: around, not the instantaneous rate.
    arrival_rate: float = 2000.0
    process: str = "poisson"
    #: Seeds per request: one user's ego node plus a handful of recent
    #: interactions.  Small on purpose — a single request underfills the
    #: device, which is exactly why dynamic batching pays.
    seeds_per_request: int = 8
    #: When set, request sizes are heterogeneous: each request draws its
    #: seed count uniformly from ``[seeds_per_request, max_seeds_per_request]``
    #: (long interaction histories next to fresh users).  Variable
    #: request cost is what separates load-aware routing from blind
    #: rotation, so the cluster benchmark turns this on.  ``None`` (the
    #: default) keeps every request at ``seeds_per_request`` and the RNG
    #: stream bit-identical to the pre-cluster workloads.
    max_seeds_per_request: int | None = None
    #: Zipf-style exponent over hotness ranks; 0 is uniform, larger
    #: values concentrate requests on the hottest (cached) nodes.
    skew: float = 1.1
    #: Peak-to-baseline rate multiplier for the ``bursty`` process.
    burst_factor: float = 4.0
    #: Length of one on/off cycle (bursty) or one "day" (diurnal), in
    #: simulated seconds.  Serving epochs are milliseconds long, so the
    #: default puts several cycles inside a typical run.
    burst_period: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("num requests", self.num_requests, error=ServeError)
        check_real("arrival rate", self.arrival_rate, "(0, inf)", error=ServeError)
        if self.process not in ARRIVAL_PROCESSES:
            raise ServeError(
                f"unknown arrival process {self.process!r}; "
                f"available: {list(ARRIVAL_PROCESSES)}"
            )
        check_count("seeds per request", self.seeds_per_request, error=ServeError)
        if self.max_seeds_per_request is not None:
            check_count(
                "max seeds per request", self.max_seeds_per_request,
                low=self.seeds_per_request, error=ServeError,
            )
        check_real("skew", self.skew, "[0, inf)", error=ServeError)
        check_real("burst factor", self.burst_factor, "[1, inf)", error=ServeError)
        check_real("burst period", self.burst_period, "(0, inf)", error=ServeError)
        check_count("seed", self.seed, low=0, error=ServeError)


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
def _rate_at(spec: WorkloadSpec, t: float) -> float:
    """Instantaneous arrival rate of the spec's process at time ``t``."""
    if spec.process == "poisson":
        return spec.arrival_rate
    phase = (t / spec.burst_period) % 1.0
    if spec.process == "bursty":
        if phase < 0.5:
            return spec.arrival_rate * spec.burst_factor
        return spec.arrival_rate / spec.burst_factor
    # diurnal: sinusoid between 0.2x and 1.8x the baseline rate.
    return spec.arrival_rate * (1.0 + 0.8 * math.sin(2.0 * math.pi * phase))


def _peak_rate(spec: WorkloadSpec) -> float:
    if spec.process == "poisson":
        return spec.arrival_rate
    if spec.process == "bursty":
        return spec.arrival_rate * spec.burst_factor
    return spec.arrival_rate * 1.8


def arrival_times(spec: WorkloadSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw ``num_requests`` arrival timestamps for the spec's process.

    Non-homogeneous processes use Lewis–Shedler thinning: candidates are
    drawn from a homogeneous process at the peak rate and kept with
    probability ``rate(t) / peak`` — exact, and deterministic under the
    generator's stream.
    """
    peak = _peak_rate(spec)
    times = np.empty(spec.num_requests, dtype=np.float64)
    kept = 0
    t = 0.0
    while kept < spec.num_requests:
        t += rng.exponential(1.0 / peak)
        if spec.process != "poisson" and rng.random() * peak > _rate_at(spec, t):
            continue
        times[kept] = t
        kept += 1
    return times


# ----------------------------------------------------------------------
# Seed-set generation
# ----------------------------------------------------------------------
def rank_probabilities(num_nodes: int, skew: float) -> np.ndarray:
    """Normalized ``rank^-skew`` weights over ``num_nodes`` hotness ranks."""
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    weights = ranks**-skew
    return weights / weights.sum()


#: Unit roundoff of float64, the relative error of one rounded operation.
_U = 2.0**-53


class _RankSampler:
    """Skewed draws over ``num_ranks`` hotness ranks, ``rank^-skew``.

    ``Generator.choice`` with a probability vector validates it, copies
    it and rebuilds its CDF on every call; for a fixed vector all of
    that is the same every time.  This does it once and then replays
    ``choice`` draw for draw, so the ranks *and* the generator state
    after them equal what ``choice`` would have left — the request
    streams, and with them every pinned session, do not move.

    ``largest`` is the most ranks one draw will ask for; a skew that
    underflows to fewer non-zero probabilities than that is refused
    here, before any draw.
    """

    def __init__(self, num_ranks: int, skew: float, largest: int = 1) -> None:
        probs = rank_probabilities(num_ranks, skew)
        positive = int(np.count_nonzero(probs > 0))
        if positive < largest:
            raise ServeError(
                f"skew {skew} leaves {positive} of {num_ranks} ranks with a "
                f"non-zero probability; cannot draw {largest} distinct ones"
            )
        self._probs = probs
        csum = np.cumsum(probs)
        self._cdf = csum / csum[-1]
        # NumPy's unnormalised first-round sum, read one float at a time
        # by the collision search: no Python object per rank.
        self._csum = memoryview(csum)

    def draw_one(self, rng: np.random.Generator) -> int:
        """One rank; replays ``rng.choice(num_ranks)`` under the rank
        probabilities."""
        return int(self._cdf.searchsorted(rng.random(), side="right"))

    def draw(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """``size`` distinct ranks, in the order drawn; replays
        ``rng.choice(num_ranks, size, replace=False)`` under the rank
        probabilities."""
        found = _first_occurrences(
            self._cdf.searchsorted(rng.random(size), side="right")
        )
        if len(found) == size:
            return found
        # Ranks collided.  choice() now zeroes the found ranks, rebuilds
        # the CDF and draws the shortfall, until it has ``size``; each
        # round draws exactly what it draws there.
        found = found.tolist()
        while len(found) < size:
            found += self._collision_round(found, rng.random(size - len(found)))
        return np.array(found, dtype=np.intp)

    def _collision_round(self, found: list[int], x: np.ndarray) -> list[int]:
        """One collision round of ``choice``, in O(|F| + |x| · log n)
        whenever every answer is certified.

        NumPy computes ``cdf' = cumsum(p')`` with the found ranks ``F``
        zeroed and answers ``searchsorted(cdf' / cdf'[-1], x, "right")``.
        Rank ``i``'s entry is estimated as ``e[i] = csum[i] - M(i)``,
        where ``csum`` is the first-round ``cumsum(p)`` and ``M(i)`` the
        found mass up to ``i`` summed in rank order; the total as
        ``T = csum[-1] - M_all``.  A found rank sits on a plateau of
        ``cdf'`` and is never the answer, so each ``x`` is bisected on
        ``csum`` for ``x·T + M`` inside the gap between found ranks
        that holds it.

        The bound.  Let ``c = csum[-1]``, ``n`` ranks, ``u = 2^-53``.  A
        sum of non-negative terms in any order is off by at most
        ``(terms - 1)·u`` times their exact sum, and every partial sum
        of either cumsum is at most ``c·(1 + n·u)`` (rounding is
        monotone and ``p' <= p``).  So ``csum[i]`` and ``cdf'[i]`` are
        each within ``n·u·c`` of the exact zeroed sum (up to ``O(n²u²)``),
        ``M(i)`` within ``|F|·u·c``, and the subtraction adds ``u·c``:
        ``|e[i] - cdf'[i]|`` and ``|T - cdf'[-1]|`` are at most
        ``E = (2n + |F| + 8)·u·c``, the ``+8`` covering the ``O(n²u²)``
        terms (for ``n < 2^25``) and the rounding of ``E`` itself.

        The certificate.  ``j`` is NumPy's answer iff its normalised
        ``cdf'[j] > x`` and ``cdf'[j-1] <= x``.  NumPy's normalised
        entry is at least ``(e[j] - E)/(T + E)·(1 - u)`` and ``cdf'[j-1]``
        at most ``(e[j-1] + E)/(T - E)·(1 + u)``; ``1 ∓ 8u`` in place of
        ``1 ∓ u`` also absorbs the four roundings of evaluating each
        bound.  Any ``x`` that fails either side — a draw within about
        ``E/T`` of an entry — or ``T - E <= 0`` sends the whole round to
        :meth:`_replay_round`.
        """
        csum = self._csum
        n = len(csum)
        order = sorted(found)
        masses = list(itertools.accumulate(self._probs[order].tolist()))
        top = csum[-1]
        total = top - masses[-1]
        err = (2 * n + len(order) + 8) * _U * top
        if total - err <= 0.0:
            return self._replay_round(found, x)
        # Estimated cdf' at the end of each gap, i.e. on the found rank
        # that closes it.
        ends = [csum[rank] - mass for rank, mass in zip(order, masses)]
        shrink, grow = 1.0 - 8 * _U, 1.0 + 8 * _U
        fresh = []
        for xi in x.tolist():
            k = bisect.bisect_right(ends, xi * total)
            lo = order[k - 1] + 1 if k else 0
            hi = order[k] if k < len(order) else n
            below = masses[k - 1] if k else 0.0
            j = bisect.bisect_right(csum, xi * total + below, lo, hi)
            if j == hi:
                return self._replay_round(found, x)
            # NumPy's normalised cdf'[j - 1] is at most ``before``, its
            # cdf'[j] at least ``at``.
            before = (csum[j - 1] - below + err) / (total - err) * grow if j else 0.0
            at = (csum[j] - below - err) / (total + err) * shrink
            if not before <= xi < at:
                return self._replay_round(found, x)
            fresh.append(j)
        return list(dict.fromkeys(fresh))

    def _replay_round(self, found: list[int], x: np.ndarray) -> list[int]:
        """One collision round as NumPy runs it: zero the found ranks,
        ``cumsum``, normalise, draw ``x``."""
        probs = self._probs.copy()
        probs[found] = 0.0
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        return _first_occurrences(cdf.searchsorted(x, side="right")).tolist()


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """``values`` without its repeats, each kept where it first appears."""
    firsts = dict.fromkeys(values.tolist())
    if len(firsts) == len(values):
        return values
    return np.fromiter(firsts, dtype=values.dtype, count=len(firsts))


def generate_workload(
    spec: WorkloadSpec,
    *,
    task: Task,
    num_nodes: int,
    hotness: np.ndarray | None = None,
    edges: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[Request]:
    """Generate the full request stream for ``spec``.

    ``hotness`` scores (degree, typically) define which concrete node id
    each popularity rank maps to; ties break toward lower ids, matching
    the feature cache's ordering so rank-0 requests hit its hottest
    pinned row.  When omitted, rank equals node id.

    What a rank names and what a request ships is ``task``'s call (the
    session's :class:`~repro.tasks.Task`): node requests ship
    ``seeds_per_request`` drawn nodes, sorted; pair tasks need
    ``edges`` — the graph's ``(src, dst)`` endpoint arrays — rank those
    by their source's hotness, and ship each drawn positive edge plus a
    forged negative as flattened endpoint pairs (see :class:`Request`),
    all on the spec's single RNG stream.
    """
    largest = (
        spec.max_seeds_per_request
        if spec.max_seeds_per_request is not None
        else spec.seeds_per_request
    )
    if num_nodes < largest:
        raise ServeError(
            f"cannot draw {largest} distinct seeds from {num_nodes} nodes"
        )
    if hotness is not None:
        hotness = np.asarray(hotness)
        if hotness.shape != (num_nodes,):
            raise ServeError(
                f"hotness shape {hotness.shape} != nodes ({num_nodes},)"
            )
    units = task.request_units(num_nodes, hotness, edges)
    if len(units) < largest:
        raise ServeError(
            f"cannot draw {largest} distinct {task.name} units from "
            f"{len(units)}"
        )
    ranks = _RankSampler(len(units), spec.skew, largest)
    rng = new_rng(spec.seed)
    times = arrival_times(spec, rng)
    requests = []
    for rid in range(spec.num_requests):
        # The size draw happens only for heterogeneous workloads, so the
        # homogeneous (default) generator stream stays bit-identical to
        # the pre-cluster subsystem's.
        size = spec.seeds_per_request
        if spec.max_seeds_per_request is not None:
            size = int(
                rng.integers(
                    spec.seeds_per_request, spec.max_seeds_per_request + 1
                )
            )
        seeds = task.request_payload(units[ranks.draw(size, rng)], rng)
        requests.append(
            Request(
                rid=rid,
                arrival=float(times[rid]),
                seeds=as_seed_units(seeds),
            )
        )
    return requests
