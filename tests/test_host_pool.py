"""The host thread pool under the Select: the weighted race of both
node-wise samplers streams through it, pooled runs equal inline runs bit
for bit, workers only ever run the one untraced chunk helper and never
submit, draws stay on the calling thread, and the pool follows the
affinity mask and survives ``fork``."""

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
from repro.core.random import segmented_race_select
from repro.sparse import CSC
from repro.sparse.formats import _indptr_from_counts

#: A block limit small enough that the inputs below are many blocks and
#: chunks and fill the two-chunk rule, so weighted races stream.
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


def _sample(csc, frontiers, seed, k=5):
    rng = np.random.default_rng(seed)
    out = sampling.fused_extract_individual_sample(csc, frontiers, k, rng=rng)
    return out, rng.bit_generator.state


def _unfused(csc, probs, seed, k=5):
    rng = np.random.default_rng(seed)
    out = sampling.individual_sample(csc, k, probs, rng=rng)
    return out, rng.bit_generator.state


def _assert_same_sample(a, b):
    (a, a_state), (b, b_state) = a, b
    for field in ("indptr", "rows", "values", "edge_ids"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    assert a_state == b_state


def _graph_of(lengths, values):
    indptr = _indptr_from_counts(np.asarray(lengths))
    nnz = int(indptr[-1])
    return CSC(
        indptr=indptr,
        rows=np.arange(nnz) % len(lengths),
        values=np.asarray(values, dtype=np.float32),
        shape=(len(lengths), len(lengths)),
    )


def _run_with_timeout(body, timeout=120):
    """Run ``body`` on a daemon thread; fail instead of hanging."""
    failures = []

    def guarded():
        try:
            body()
        except Exception as exc:  # reported below, on the test thread
            failures.append(exc)

    worker = threading.Thread(target=guarded, daemon=True)
    worker.start()
    worker.join(timeout=timeout)
    assert not worker.is_alive(), "the pooled sample did not finish"
    assert failures == []


class _RecordingExecutor(Executor):
    """Runs each submitted call inline and remembers the function."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, /, *args, **kwargs):
        self.submitted.append(fn)
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


class _NoNestingPool(ThreadPoolExecutor):
    """A pool whose workers may not submit: a nested submit raises
    instead of waiting for a worker that may never be free."""

    def __init__(self, workers):
        super().__init__(workers, thread_name_prefix="no-nesting")

    def submit(self, fn, /, *args, **kwargs):
        if threading.current_thread().name.startswith("no-nesting"):
            raise RuntimeError("a pool worker submitted work")
        return super().submit(fn, *args, **kwargs)


class TestPooledEqualsInline:
    def test_only_the_chunk_helper_is_submitted(self, fresh_pool, monkeypatch):
        """Traced entry points (the select, both samplers, the key draw,
        ``ctx.record``) stay on the calling thread, where the benchmark's
        span stack lives; a select of many blocks runs them there too."""
        stub = _RecordingExecutor()
        monkeypatch.setattr(rnd, "_POOL", stub)
        monkeypatch.setattr(rnd, "_POOL_PID", os.getpid())
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 2)
        segmented_race_select(*_select_input(), 5)
        assert stub.submitted == []
        csc, frontiers = _weighted_graph()
        _sample(csc, frontiers, seed=1)
        _unfused(csc, None, seed=1)
        assert set(stub.submitted) == {sampling._race_chunk}

    @pytest.mark.parametrize("dtype", ["float32", "bool", "int32", "matrix"])
    def test_unfused_weighted_sample_pooled_equals_inline(
        self, fresh_pool, monkeypatch, dtype
    ):
        """``individual_sample`` streams the same race as the fused kernel,
        over its columns' ranges, with ``probs`` in their own dtype."""
        csc, _ = _weighted_graph(4)
        raw = np.random.default_rng(8).random(csc.nnz) * 4 - 0.5
        if dtype == "matrix":
            probs = CSC(
                indptr=csc.indptr, rows=csc.rows,
                values=raw.astype(np.float32), shape=csc.shape,
            )
        elif dtype == "bool":
            probs = raw > 1.0
        else:
            probs = raw.astype(dtype)
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 1)
        inline = _unfused(csc, probs, seed=6)
        assert rnd._POOL is None
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 2)
        pooled = _unfused(csc, probs, seed=6)
        assert rnd._POOL is not None
        _assert_same_sample(inline, pooled)

    def test_fused_weighted_sample_pooled_equals_inline(
        self, fresh_pool, monkeypatch
    ):
        csc, frontiers = _weighted_graph(3)
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 1)
        inline = _sample(csc, frontiers, seed=9)
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 2)
        pooled = _sample(csc, frontiers, seed=9)
        assert rnd._POOL is not None
        _assert_same_sample(inline, pooled)

    def test_streamed_draws_and_picks_equal_the_inline_one_draw_path(
        self, fresh_pool, monkeypatch
    ):
        """Eight workers on however few CPUs, the interpreter switching
        threads every microsecond: a chunk drawn out of order or off the
        calling thread, or a worker writing outside its own chunk, would
        move a pick or the generator's end state."""
        csc, frontiers = _weighted_graph(5)
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 1)
        expected = [_sample(csc, frontiers, seed) for seed in range(20)]
        pool = ThreadPoolExecutor(8)
        monkeypatch.setattr(rnd, "_POOL", pool)
        monkeypatch.setattr(rnd, "_POOL_PID", os.getpid())
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 2)

        def body():
            for seed in range(20):
                _assert_same_sample(expected[seed], _sample(csc, frontiers, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_with_timeout(body)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=False)

    def test_a_hub_inside_one_chunk_never_submits_from_a_worker(
        self, fresh_pool, monkeypatch
    ):
        """Every chunk is a one-edge column then a hub wider than two
        blocks: its select is two binned blocks, enough to pool.  Were a
        worker to submit them, both workers of a 2-worker pool could wait
        on futures no worker is free to run; this pool refuses the
        submit instead."""
        lengths = [1, 4 * _SMALL_BLOCK] * 8
        csc = _graph_of(lengths, np.linspace(0.1, 1.0, sum(lengths)))
        frontiers = np.arange(len(lengths))
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 1)
        expected = _sample(csc, frontiers, seed=4)
        pool = _NoNestingPool(2)
        monkeypatch.setattr(rnd, "_POOL", pool)
        monkeypatch.setattr(rnd, "_POOL_PID", os.getpid())
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 2)
        try:
            _run_with_timeout(
                lambda: _assert_same_sample(expected, _sample(csc, frontiers, 4)),
                timeout=60,
            )
        finally:
            pool.shutdown(wait=False)

    @pytest.mark.parametrize("k", [1, 3, 40])
    def test_pooled_equals_inline_with_bad_weights_and_empty_frontiers_on_chunk_edges(
        self, fresh_pool, monkeypatch, k
    ):
        """Zero, negative and NaN weights, and empty frontiers first and
        last in the call and at every chunk bound, one chunk with no
        candidates at all."""
        half = _SMALL_BLOCK // 2
        lengths = [0] + [half, half, 0] * 6 + [3 * _SMALL_BLOCK, 0, 0]
        values = np.random.default_rng(k).random(sum(lengths)) - 0.2
        values[::7] = 0.0
        values[::11] = np.nan
        csc = _graph_of(lengths, values)
        frontiers = np.arange(len(lengths))
        # The first frontier at or past every block multiple is empty.
        bounds = np.searchsorted(
            csc.indptr, np.arange(0, csc.nnz, _SMALL_BLOCK)
        )
        assert not np.diff(csc.indptr)[bounds].any()
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 1)
        inline = _sample(csc, frontiers, seed=k, k=k)
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 2)
        pooled = _sample(csc, frontiers, seed=k, k=k)
        assert rnd._POOL is not None
        _assert_same_sample(inline, pooled)


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
        the child's first streamed sample builds its own pool."""
        monkeypatch.setattr(rnd, "_host_cpus", lambda: 2)
        csc, frontiers = _weighted_graph(7)
        expected, _ = _sample(csc, frontiers, seed=2)
        parent_pool = rnd._POOL
        assert parent_pool is not None
        pid = os.fork()
        if pid == 0:  # the child never returns into pytest
            code = 1
            try:
                picks, _ = _sample(csc, frontiers, seed=2)
                code = int(
                    not np.array_equal(picks.edge_ids, expected.edge_ids)
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
                pytest.fail("the streamed sample hung in the forked child")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
