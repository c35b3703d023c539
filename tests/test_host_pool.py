"""The host thread pool under the Select: pooled runs equal inline runs
bit for bit, workers only ever run the two untraced helpers, draws stay
on the calling thread, and the pool follows the affinity mask and
survives ``fork``."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import random as rnd
from repro.core import sampling
from repro.core.random import exponential_race_keys, segmented_race_select
from repro.sparse import CSC
from repro.sparse.formats import _indptr_from_counts, gather_ranges

#: A block limit small enough that the inputs below are many blocks and
#: fill the two-block rule, so they take the pool.
_SMALL_BLOCK = 32


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool yet; shut down whatever pool the test builds."""
    monkeypatch.setattr(rnd, "_POOL", None)
    monkeypatch.setattr(rnd, "_POOL_PID", -1)
    monkeypatch.setattr(rnd, "_RACE_BLOCK_ELEMS", _SMALL_BLOCK)
    yield
    if rnd._POOL is not None:
        rnd._POOL.shutdown()


def _select_input(seed=0, segments=300):
    rng = np.random.default_rng(seed)
    indptr = _indptr_from_counts(rng.integers(0, 40, size=segments))
    return rng.random(int(indptr[-1])), indptr


def _weighted_graph(seed=0, cols=300):
    """A CSC with float32 weights, some of them zero or negative."""
    rng = np.random.default_rng(seed)
    indptr = _indptr_from_counts(rng.integers(0, 40, size=cols))
    nnz = int(indptr[-1])
    values = (rng.random(nnz) - 0.1).astype(np.float32)
    csc = CSC(
        indptr=indptr,
        rows=rng.integers(0, cols, size=nnz),
        values=values,
        shape=(cols, cols),
    )
    return csc, rng.permutation(cols)[: cols // 2]


def _sample(csc, frontiers, seed):
    rng = np.random.default_rng(seed)
    out = sampling.fused_extract_individual_sample(csc, frontiers, 5, rng=rng)
    return out, rng.bit_generator.state


class _RecordingExecutor(Executor):
    """Runs each submitted call inline and remembers the function."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, /, *args, **kwargs):
        self.submitted.append(fn)
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


class TestPooledEqualsInline:
    def test_only_the_two_private_helpers_are_submitted(
        self, fresh_pool, monkeypatch
    ):
        """Traced entry points (the select, the fused sample, the key
        draw, ``ctx.record``) stay on the calling thread, where the
        benchmark's span stack lives."""
        stub = _RecordingExecutor()
        monkeypatch.setattr(rnd, "_POOL", stub)
        monkeypatch.setattr(rnd, "_POOL_PID", os.getpid())
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 2)
        segmented_race_select(*_select_input(), 5)
        _sample(*_weighted_graph(), seed=1)
        assert set(stub.submitted) == {
            rnd._race_select_block,
            sampling._gather_race_keys,
        }

    def test_fused_weighted_sample_pooled_equals_inline(
        self, fresh_pool, monkeypatch
    ):
        csc, frontiers = _weighted_graph(3)
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 1)
        inline, inline_state = _sample(csc, frontiers, seed=9)
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 2)
        pooled, pooled_state = _sample(csc, frontiers, seed=9)
        assert rnd._POOL is not None
        for field in ("indptr", "rows", "values", "edge_ids"):
            a, b = getattr(inline, field), getattr(pooled, field)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert inline_state == pooled_state

    def test_chunked_keys_equal_one_pass_keys_under_contention(
        self, fresh_pool, monkeypatch
    ):
        """Eight workers on however few CPUs, the interpreter switching
        threads every microsecond: a chunk writing outside its slice, or
        a draw taken off the calling thread, would move a key."""
        csc, frontiers = _weighted_graph(5)
        starts = csc.indptr[frontiers]
        flat = gather_ranges(starts, csc.indptr[frontiers + 1] - starts)
        pool = ThreadPoolExecutor(8)
        monkeypatch.setattr(rnd, "_POOL", pool)
        monkeypatch.setattr(rnd, "_POOL_PID", os.getpid())
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 2)
        seen = []
        select = rnd._race_select_counts

        def spy(keys, indptr, k):
            seen.append(keys.copy())
            return select(keys, indptr, k)

        monkeypatch.setattr(rnd, "_race_select_counts", spy)
        failures = []

        def body():
            try:
                for seed in range(20):
                    _sample(csc, frontiers, seed)
                    expected = exponential_race_keys(
                        csc.values[flat], np.random.default_rng(seed)
                    )
                    if not np.array_equal(
                        seen[-1].view(np.uint64), expected.view(np.uint64)
                    ):
                        failures.append(seed)
            except Exception as exc:  # reported below, on the test thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=body, daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=False)
        assert not worker.is_alive(), "pooled key chunks did not finish"
        assert failures == []
        assert len(seen) == 20


class TestPoolLifetime:
    def test_one_cpu_builds_no_pool(self, fresh_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert rnd._host_cpus() == 1
        segmented_race_select(*_select_input(), 5)
        _sample(*_weighted_graph(), seed=1)
        assert rnd._POOL is None

    def test_pool_size_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert rnd._host_cpus() == 3

    def test_importing_repro_starts_no_thread(self):
        code = (
            "import sys, threading, repro, repro.sampler, repro.cli; "
            "print(threading.active_count(), "
            "any(m.startswith('concurrent') for m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert out.stdout.split() == ["1", "False"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_pool_survives_fork(self, fresh_pool, monkeypatch):
        """A pool used before ``fork`` never runs a task the child submits:
        the child's first pooled select builds its own pool."""
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 2)
        keys, indptr = _select_input(7)
        expected = segmented_race_select(keys, indptr, 5)
        parent_pool = rnd._POOL
        assert parent_pool is not None
        pid = os.fork()
        if pid == 0:  # the child never returns into pytest
            code = 1
            try:
                picks = segmented_race_select(keys, indptr, 5)
                code = int(
                    not np.array_equal(picks, expected)
                    or rnd._POOL is parent_pool
                )
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the pooled select hung in the forked child")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
