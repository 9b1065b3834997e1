"""The sharded multi-threaded evaluation engine (``repro.parallel``).

Covers the four guarantees the subsystem makes:

* **Bit-exact parity** — ``BatchEvaluator(workers=N)`` results are ``==``
  to the in-process ``BatchEvaluator`` at any worker count (no
  tolerances).
* **Contained shard errors** — a raising shard propagates only after
  every shard has been harvested, and the pool stays usable.
* **In-process fallback** — ``workers <= 1`` never creates a pool, and
  fewer than two cold genotypes run inline.
* **Micro-batch coalescing** — concurrent submitters are served from one
  batched evaluator call per tick, and an all-warm request that finds the
  evaluator idle is served on its own thread under the same lock.

CI runs this module both inside the tier-1 suite and as a dedicated
job, so the threaded path is exercised on every push.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.accel.config import enumerate_configs, random_config
from repro.nas.encoding import CoDesignPoint, decode, encode
from repro.nas.space import DnnSpace
from repro.obs.registry import get_registry
from repro.parallel import scheduler as scheduler_module
from repro.parallel import (
    MicroBatchScheduler,
    WorkerPool,
    create_evaluator,
    merge_shards,
    shard_bounds,
    shard_sequence,
)
from repro.search.evaluator import BatchEvaluator


def _population(n: int, seed: int = 123) -> list[CoDesignPoint]:
    """n distinct on-grid co-design points (deterministic)."""
    rng = np.random.default_rng(seed)
    space = DnnSpace()
    return [
        CoDesignPoint(space.sample(rng, name=f"pop{seed}_{i}"), random_config(rng))
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Sharder
# ---------------------------------------------------------------------------


class TestSharder:
    def test_bounds_cover_and_balance(self):
        bounds = shard_bounds(10, 4)
        assert bounds == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_bounds_fewer_items_than_shards(self):
        assert shard_bounds(2, 8) == [(0, 1), (1, 2)]

    def test_bounds_empty(self):
        assert shard_bounds(0, 4) == []

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            shard_bounds(-1, 2)
        with pytest.raises(ValueError):
            shard_bounds(4, 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 16, 33])
    @pytest.mark.parametrize("shards", [1, 2, 3, 5, 16, 64])
    def test_merge_roundtrip_any_worker_count(self, n, shards):
        items = list(range(n))
        chunks = shard_sequence(items, shards)
        assert all(chunks), "no empty shards are emitted"
        assert len(chunks) == min(shards, n)
        assert merge_shards(chunks) == items

    def test_hardware_sweep_roundtrip(self):
        """The same helpers chunk flat accelerator-configuration sweeps."""
        configs = list(enumerate_configs())
        for shards in (1, 3, 8):
            assert merge_shards(shard_sequence(configs, shards)) == configs

    def test_deterministic(self):
        assert shard_sequence(list(range(11)), 3) == shard_sequence(
            list(range(11)), 3
        )


# ---------------------------------------------------------------------------
# BatchEvaluator sharding cold genotypes across threads (workers > 1)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pool_evaluator(smoke_context):
    """A shared 2-worker evaluator."""
    evaluator = BatchEvaluator(smoke_context.fast_evaluator, workers=2)
    yield evaluator
    evaluator.close()


class TestParallelEvaluator:
    """``BatchEvaluator`` sharding cold genotypes over ``workers`` threads."""

    def test_workers1_is_in_process(self, smoke_context):
        points = _population(5, seed=11)
        reference = BatchEvaluator(smoke_context.fast_evaluator).evaluate_many(points)
        evaluator = BatchEvaluator(smoke_context.fast_evaluator, workers=1)
        assert evaluator.evaluate_many(points) == reference
        assert evaluator.pool is None, "workers=1 must never spawn a pool"

    def test_create_evaluator_factory(self, smoke_context):
        fast = smoke_context.fast_evaluator
        serial = create_evaluator(fast, workers=1, cache_size=8)
        assert type(serial) is BatchEvaluator
        assert (serial.workers, serial.cache_size) == (1, 8)
        parallel = create_evaluator(fast, workers=2)
        assert type(parallel) is BatchEvaluator and parallel.workers == 2
        parallel.close()

    def test_small_batch_below_min_dispatch_stays_local(self, smoke_context):
        evaluator = BatchEvaluator(smoke_context.fast_evaluator, workers=2)
        points = _population(2, seed=17)
        # One genotype under two hardware configurations: one cold genotype.
        points = [points[0], CoDesignPoint(points[0].genotype, points[1].config)]
        reference = BatchEvaluator(smoke_context.fast_evaluator).evaluate_many(points)
        assert evaluator.evaluate_many(points) == reference
        assert evaluator.pool is None, (
            "fewer than two unique cold genotypes must run inline, not "
            "through the pool"
        )

    def test_bit_identical_to_batch_evaluator(self, smoke_context, pool_evaluator):
        points = _population(8, seed=23)
        points.append(points[0])  # intra-batch duplicate
        reference = BatchEvaluator(smoke_context.fast_evaluator).evaluate_many(points)
        assert pool_evaluator.evaluate_many(points) == reference

    def test_warm_cache_skips_dispatch(self, smoke_context, pool_evaluator):
        points = _population(6, seed=29)
        first = pool_evaluator.evaluate_many(points)
        assert pool_evaluator.pool is not None
        batches_before = pool_evaluator.pool.batches
        assert pool_evaluator.evaluate_many(points) == first
        assert pool_evaluator.pool.batches == batches_before, (
            "cache hits must never be dispatched to the pool"
        )

    def test_tokens_entry_point(self, smoke_context, pool_evaluator):
        points = _population(5, seed=31)
        decoded = [decode(encode(p)) for p in points]
        reference = BatchEvaluator(smoke_context.fast_evaluator).evaluate_many(points)
        assert pool_evaluator.evaluate_many(decoded) == reference

    @pytest.mark.slow
    def test_three_workers_same_bits(self, smoke_context):
        points = _population(7, seed=37)
        reference = BatchEvaluator(smoke_context.fast_evaluator).evaluate_many(points)
        with BatchEvaluator(smoke_context.fast_evaluator, workers=3) as evaluator:
            assert evaluator.evaluate_many(points) == reference

    def test_close_is_idempotent_and_reusable(self, smoke_context, pool_evaluator):
        points = _population(3, seed=53)
        reference = BatchEvaluator(smoke_context.fast_evaluator).evaluate_many(points)
        pool_evaluator.close()
        pool_evaluator.close()
        # A closed evaluator restarts its threads on the next cold batch.
        assert pool_evaluator.evaluate_many(points) == reference


# ---------------------------------------------------------------------------
# Micro-batch scheduler
# ---------------------------------------------------------------------------


class _CountingEvaluator:
    """Evaluator stub: records calls, optionally failing."""

    def __init__(self, inner, fail: bool = False):
        self.inner = inner
        self.fail = fail
        self.calls: list[int] = []

    def evaluate_many(self, points):
        self.calls.append(len(points))
        if self.fail:
            raise RuntimeError("boom")
        return self.inner.evaluate_many(points)


class TestMicroBatchScheduler:
    def test_concurrent_submitters_coalesce_into_one_tick(self, smoke_context):
        inner = _CountingEvaluator(BatchEvaluator(smoke_context.fast_evaluator))
        scheduler = MicroBatchScheduler(inner, auto_start=False)
        points = _population(8, seed=59)
        reference = BatchEvaluator(smoke_context.fast_evaluator).evaluate_many(points)
        chunks = [points[:3], points[3:5], points[5:8]]
        futures: list = [None] * len(chunks)

        def submit(i: int) -> None:
            futures[i] = scheduler.submit(chunks[i])

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(len(chunks))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        served = scheduler.flush()
        assert served == 3
        assert scheduler.ticks == 1, "all pending requests coalesce into ONE batch"
        assert inner.calls == [8], "the evaluator saw one merged batch"
        assert futures[0].result() == reference[:3]
        assert futures[1].result() == reference[3:5]
        assert futures[2].result() == reference[5:8]

    def test_auto_mode_is_a_drop_in_evaluator(self, smoke_context):
        evaluator = BatchEvaluator(smoke_context.fast_evaluator)
        points = _population(6, seed=61)
        reference = evaluator.evaluate_many(points)
        with MicroBatchScheduler(evaluator, tick_s=0.005) as scheduler:
            assert scheduler.evaluate_many(points) == reference
            assert scheduler.evaluate(points[0]) == reference[0]
            futures = [scheduler.submit([p]) for p in points]
            assert [f.result()[0] for f in futures] == reference
        assert scheduler.ticks >= 1
        assert scheduler.requests == 2 + len(points)

    def test_exception_propagates_to_every_coalesced_caller(self, smoke_context):
        inner = _CountingEvaluator(
            BatchEvaluator(smoke_context.fast_evaluator), fail=True
        )
        scheduler = MicroBatchScheduler(inner, auto_start=False)
        points = _population(2, seed=71)
        futures = [scheduler.submit([p]) for p in points]
        scheduler.flush()
        for future in futures:
            assert isinstance(future.exception(), RuntimeError)
        # The scheduler itself survives and keeps serving.
        inner.fail = False
        assert scheduler.evaluate_many(points) == BatchEvaluator(
            smoke_context.fast_evaluator
        ).evaluate_many(points)

    def test_closed_scheduler_rejects_submissions(self, smoke_context):
        scheduler = MicroBatchScheduler(
            BatchEvaluator(smoke_context.fast_evaluator), auto_start=False
        )
        scheduler.close()
        with pytest.raises(RuntimeError):
            scheduler.submit(_population(1, seed=73))

    def test_validation(self, smoke_context):
        evaluator = BatchEvaluator(smoke_context.fast_evaluator)
        with pytest.raises(ValueError):
            MicroBatchScheduler(evaluator, tick_s=-1.0)


@pytest.fixture
def waits(monkeypatch) -> list[float]:
    """The scheduler thread's coalescing waits, in order (each still
    sleeps, so the window keeps its meaning)."""
    recorded: list[float] = []

    def sleep(seconds: float) -> None:
        recorded.append(seconds)
        time.sleep(seconds)

    monkeypatch.setattr(
        scheduler_module,
        "time",
        SimpleNamespace(perf_counter=time.perf_counter, sleep=sleep),
    )
    return recorded


class _NoPeekEvaluator:
    """Evaluator stub whose warmth check must never be consulted."""

    def __init__(self, inner):
        self.inner = inner

    def all_warm(self, points):
        raise AssertionError("all_warm consulted")

    def evaluate_many(self, points):
        return self.inner.evaluate_many(points)


class TestWarmWindow:
    """The coalescing window is waited only when the HyperNet would run."""

    def test_warm_batch_skips_the_window_cold_batch_waits(
        self, smoke_context, waits
    ):
        evaluator = BatchEvaluator(smoke_context.fast_evaluator)
        points = _population(4, seed=97)
        # Warm by result key (points[:3]) and by genotype alone (a warmed
        # architecture re-paired with a configuration never scored).
        rehomed = CoDesignPoint(
            points[0].genotype, random_config(np.random.default_rng(5))
        )
        evaluator.evaluate_many(points[:3])
        warm = points[:3] + [rehomed]
        reference = BatchEvaluator(smoke_context.fast_evaluator).evaluate_many(
            points + [rehomed]
        )
        with MicroBatchScheduler(evaluator, tick_s=0.01) as scheduler:
            assert scheduler.evaluate_many(warm) == reference[:3] + reference[4:]
            assert waits == [], "an all-warm batch is dispatched with no window"
            # One cold point among warm ones: the whole batch waits.
            assert scheduler.evaluate_many(points) == reference[:4]
            assert waits == [0.01]

    def test_peek_is_read_only(self, smoke_context):
        evaluator = BatchEvaluator(smoke_context.fast_evaluator)
        points = _population(4, seed=99)
        evaluator.evaluate_many(points[:3])
        registry = get_registry()

        def state():
            return (
                evaluator.hits,
                evaluator.misses,
                list(evaluator._lru),
                list(evaluator._geno_lru),
                registry.snapshot()["counters"],
            )

        before = state()
        # Reversed, so a peek that refreshed recency would reorder the LRUs.
        assert evaluator.all_warm(points[2::-1])
        assert state() == before
        assert not evaluator.all_warm(points)
        assert state() == before
        assert not evaluator.all_warm([object()]), "unkeyable counts as cold"
        assert evaluator.all_warm([])
        assert state() == before

    def test_malformed_point_fails_its_own_future(self, smoke_context, waits):
        evaluator = BatchEvaluator(smoke_context.fast_evaluator)
        points = _population(2, seed=101)
        reference = evaluator.evaluate_many(points)
        with pytest.raises(Exception) as direct:
            BatchEvaluator(smoke_context.fast_evaluator).evaluate_many([object()])
        with MicroBatchScheduler(evaluator, tick_s=0.005) as scheduler:
            error = scheduler.submit([object()]).exception(timeout=30.0)
            assert type(error) is direct.type
            assert str(error) == str(direct.value)
            assert scheduler._thread.is_alive()
            assert scheduler.evaluate_many(points) == reference
        assert waits == [0.005], "the unkeyable request waited as cold work"

    def test_flush_and_zero_tick_never_peek(self, smoke_context, waits):
        inner = BatchEvaluator(smoke_context.fast_evaluator)
        points = _population(2, seed=103)
        reference = inner.evaluate_many(points)
        synchronous = MicroBatchScheduler(
            _NoPeekEvaluator(inner), tick_s=0.01, auto_start=False
        )
        assert synchronous.evaluate_many(points) == reference
        with MicroBatchScheduler(_NoPeekEvaluator(inner), tick_s=0.0) as eager:
            assert eager.evaluate_many(points) == reference
        assert waits == []

    def test_windowed_thread_requires_the_peek(self, smoke_context):
        class _EvaluateOnly:
            def evaluate_many(self, points):
                return [None] * len(points)

        with pytest.raises(TypeError, match="all_warm"):
            MicroBatchScheduler(_EvaluateOnly(), tick_s=0.002)
        MicroBatchScheduler(_EvaluateOnly(), tick_s=0.0).close()
        MicroBatchScheduler(_EvaluateOnly(), auto_start=False).close()


class _ThreadRecorder:
    """Evaluator wrapper that records the thread of every
    ``evaluate_many`` and counts evaluator accesses (``all_warm``
    included) that overlap another one.  ``gated`` batches block inside
    ``evaluate_many`` until :attr:`release` is set."""

    def __init__(self, inner, gated: bool = False):
        self.inner = inner
        self.threads: list[int] = []
        self.overlaps = 0
        self.entered = threading.Event()
        self.release = threading.Event()
        if not gated:
            self.release.set()
        self._active = 0
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def _access(self):
        with self._lock:
            self._active += 1
            self.overlaps += self._active > 1
        try:
            yield
        finally:
            with self._lock:
                self._active -= 1

    def all_warm(self, points):
        with self._access():
            return self.inner.all_warm(points)

    def evaluate_many(self, points):
        with self._access():
            self.threads.append(threading.get_ident())
            self.entered.set()
            assert self.release.wait(30.0), "gate was never released"
            return self.inner.evaluate_many(points)


class TestInlineWarm:
    """An all-warm request that finds the evaluator idle is served on the
    submitting thread; everything else queues for the scheduler thread."""

    def test_all_warm_submit_is_served_on_the_submitting_thread(
        self, smoke_context, waits
    ):
        points = _population(4, seed=151)
        reference = BatchEvaluator(smoke_context.fast_evaluator).evaluate_many(points)
        inner = BatchEvaluator(smoke_context.fast_evaluator)
        inner.evaluate_many(points[:3])
        evaluator = _ThreadRecorder(inner)
        queue_waits = get_registry().histogram("scheduler.queue_wait_s")
        with MicroBatchScheduler(evaluator, tick_s=0.01) as scheduler:
            waits_before = queue_waits.count
            future = scheduler.submit(points[:3])
            assert future.done(), "an inline request returns resolved"
            assert future.result() == reference[:3]
            assert evaluator.threads == [threading.get_ident()]
            assert (scheduler.ticks, scheduler.inline) == (1, 1)
            assert scheduler.queue_depth == 0
            assert queue_waits.count == waits_before, "it never queued"
            # One cold point: the request queues, waits the window and is
            # served by the scheduler thread.
            assert scheduler.submit(points).result(30.0) == reference
            assert evaluator.threads[1] == scheduler._thread.ident
            assert (scheduler.ticks, scheduler.inline) == (2, 1)
            assert scheduler.requests == 2
        assert waits == [0.01]
        assert evaluator.overlaps == 0

    def test_submit_during_a_running_batch_queues_without_blocking(
        self, smoke_context, waits
    ):
        points = _population(4, seed=153)
        reference = BatchEvaluator(smoke_context.fast_evaluator).evaluate_many(points)
        inner = BatchEvaluator(smoke_context.fast_evaluator)
        inner.evaluate_many(points[:2])
        evaluator = _ThreadRecorder(inner, gated=True)
        with MicroBatchScheduler(evaluator, tick_s=0.01) as scheduler:
            cold = scheduler.submit(points[2:])
            assert evaluator.entered.wait(30.0), "the cold batch never started"
            submitted: list = []
            submitter = threading.Thread(
                target=lambda: submitted.append(scheduler.submit(points[:2])),
                daemon=True,
            )
            submitter.start()
            submitter.join(10.0)
            assert not submitter.is_alive(), "submit blocked on a running batch"
            (warm,) = submitted
            assert not warm.done() and scheduler.queue_depth == 1
            evaluator.release.set()
            assert cold.result(30.0) == reference[2:]
            assert warm.result(30.0) == reference[:2]
            assert evaluator.threads == [scheduler._thread.ident] * 2
            assert (scheduler.ticks, scheduler.inline) == (2, 0)
        assert waits == [0.01], "the queued warm request waited no window"
        assert evaluator.overlaps == 0

    def test_a_running_inline_batch_holds_off_the_scheduler_thread(
        self, smoke_context
    ):
        points = _population(4, seed=155)
        reference = BatchEvaluator(smoke_context.fast_evaluator).evaluate_many(points)
        inner = BatchEvaluator(smoke_context.fast_evaluator)
        inner.evaluate_many(points[:2])
        evaluator = _ThreadRecorder(inner, gated=True)
        with MicroBatchScheduler(evaluator, tick_s=0.005) as scheduler:
            submitted: list = []
            submitter = threading.Thread(
                target=lambda: submitted.append(scheduler.submit(points[:2])),
                daemon=True,
            )
            submitter.start()
            assert evaluator.entered.wait(30.0), "the inline batch never started"
            # The scheduler thread wakes for this cold request; its warmth
            # peek must wait for the inline batch to finish.
            cold = scheduler.submit(points[2:])
            time.sleep(0.05)
            assert not cold.done()
            evaluator.release.set()
            submitter.join(30.0)
            assert submitted[0].result() == reference[:2]
            assert cold.result(30.0) == reference[2:]
            assert scheduler.inline == 1
        assert evaluator.overlaps == 0

    @pytest.mark.parametrize("warm", [True, False], ids=["inline", "queued"])
    def test_faults_and_retries_act_on_inline_batches_too(
        self, smoke_context, warm
    ):
        from repro.resilience import FaultPlan, InjectedFault, RetryPolicy, faults

        points = _population(3, seed=157)
        failing = _population(2, seed=158)
        reference = BatchEvaluator(smoke_context.fast_evaluator).evaluate_many(points)
        inner = BatchEvaluator(smoke_context.fast_evaluator)
        if warm:
            inner.evaluate_many(points + failing)
        evaluator = _ThreadRecorder(inner)
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.001, seed=7)
        with MicroBatchScheduler(evaluator, tick_s=0.005, retry=retry) as scheduler:
            submitter = threading.get_ident() if warm else scheduler._thread.ident
            plan = FaultPlan(seed=3).add("scheduler.tick", "error", count=1)
            with faults.installed(plan):
                future = scheduler.submit(points)
                assert future.done() is warm
                assert future.result(30.0) == reference
            assert plan.injected == {"scheduler.tick": 1}
            assert (scheduler.retried_batches, scheduler.errors) == (1, 0)
            # Without a policy the fault fails the request, and the failed
            # batch still counts as a tick.
            scheduler.retry = None
            with faults.installed(
                FaultPlan(seed=3).add("scheduler.tick", "error", count=1)
            ):
                error = scheduler.submit(failing).exception(30.0)
            assert isinstance(error, InjectedFault)
            assert (scheduler.ticks, scheduler.errors) == (2, 1)
            assert scheduler.inline == (2 if warm else 0)
        assert evaluator.threads == [submitter]

    def test_close_drains_every_request_admitted_by_racing_submitters(
        self, smoke_context
    ):
        warm_points = _population(3, seed=159)
        cold_points = _population(6, seed=161)
        fast = smoke_context.fast_evaluator
        reference = BatchEvaluator(fast).evaluate_many(warm_points + cold_points)
        inner = BatchEvaluator(fast)
        inner.evaluate_many(warm_points)
        evaluator = _ThreadRecorder(inner)
        scheduler = MicroBatchScheduler(evaluator, tick_s=0.002)
        admitted: list = []
        lock = threading.Lock()
        started = threading.Barrier(4)

        def submitter(j: int) -> None:
            started.wait(30.0)
            for i in itertools.count():
                # Mostly warm requests, with a cold one now and then to
                # keep the scheduler thread busy too.
                index = 3 + (j + i) % 6 if i % 5 == 4 else i % 3
                try:
                    future = scheduler.submit(
                        [(warm_points + cold_points)[index]]
                    )
                except RuntimeError:
                    return
                with lock:
                    admitted.append((index, future))

        threads = [
            threading.Thread(target=submitter, args=(j,), daemon=True)
            for j in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            started.wait(30.0)
            _wait_for(lambda: len(admitted) >= 40)
            scheduler.close()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(future.done() for _, future in admitted), (
            "close() returned with an admitted request still pending"
        )
        assert [future.result() for _, future in admitted] == [
            [reference[index]] for index, _ in admitted
        ]
        assert scheduler.requests == len(admitted)
        assert scheduler.inline > 0
        assert evaluator.overlaps == 0
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit(warm_points)

    def test_close_from_inside_an_inline_batch_does_not_deadlock(
        self, smoke_context
    ):
        class _ClosingEvaluator(_ThreadRecorder):
            scheduler = None

            def evaluate_many(self, points):
                self.scheduler.close()  # runs on the inline submitter
                return super().evaluate_many(points)

        points = _population(2, seed=163)
        inner = BatchEvaluator(smoke_context.fast_evaluator)
        reference = inner.evaluate_many(points)
        evaluator = _ClosingEvaluator(inner)
        scheduler = MicroBatchScheduler(evaluator, tick_s=0.005)
        evaluator.scheduler = scheduler
        submitted: list = []
        submitter = threading.Thread(
            target=lambda: submitted.append(scheduler.submit(points)),
            daemon=True,
        )
        submitter.start()
        submitter.join(20.0)
        assert not submitter.is_alive(), "an inline close() deadlocked"
        assert submitted[0].result() == reference
        assert scheduler.inline == 1
        scheduler.close()  # the real closer joins the thread
        assert scheduler._thread is None


def _wait_for(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


# ---------------------------------------------------------------------------
# Stack integration
# ---------------------------------------------------------------------------


class TestStackIntegration:
    def test_get_context_workers_knob(self, smoke_context):
        from repro.experiments import get_context

        context = get_context("smoke", seed=0, workers=2)
        try:
            assert context is not smoke_context, "workers is part of the cache key"
            assert context.workers == 2
            assert context.batch_evaluator.workers == 2
            assert context.fast_evaluator is smoke_context.fast_evaluator, (
                "the expensive Step-1 artefacts are shared across worker "
                "counts — only the evaluator wrapper differs"
            )
            assert get_context("smoke", seed=0, workers=2) is context
            points = _population(5, seed=79)
            assert (
                context.batch_evaluator.evaluate_many(points)
                == smoke_context.batch_evaluator.evaluate_many(points)
            )
        finally:
            context.batch_evaluator.close()

    @pytest.mark.slow
    def test_quick_codesign_workers_bit_identical_pipeline(self):
        """The whole 3-step pipeline is worker-count invariant."""
        from repro import quick_codesign

        serial = quick_codesign("smoke", seed=9, workers=1)
        sharded = quick_codesign("smoke", seed=9, workers=2)
        assert sharded.best.sample.tokens == serial.best.sample.tokens
        assert sharded.best.accurate == serial.best.accurate
        assert [c.sample.tokens for c in sharded.rescored] == [
            c.sample.tokens for c in serial.rescored
        ]
        assert sharded.history.rewards().tolist() == serial.history.rewards().tolist()


# ---------------------------------------------------------------------------
# Scheduler / pool lifecycle (regression pins for the service hardening)
# ---------------------------------------------------------------------------


class _GateEvaluator:
    """Evaluator stub that blocks inside ``evaluate_many`` until released."""

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def evaluate_many(self, points):
        self.entered.set()
        assert self.release.wait(30.0), "gate was never released"
        return self.inner.evaluate_many(points)


class TestSchedulerLifecycle:
    def test_concurrent_close_waits_for_drain(self, smoke_context):
        """Regression: a second closer used to take close()'s idempotency
        early-return while the first closer was still draining, so its
        close() returned with requests still un-served."""
        inner = _GateEvaluator(BatchEvaluator(smoke_context.fast_evaluator))
        scheduler = MicroBatchScheduler(inner, auto_start=False)
        future = scheduler.submit(_population(2, seed=81))
        first = threading.Thread(target=scheduler.close)
        first.start()
        assert inner.entered.wait(10.0), "first closer never began draining"
        observed = {}

        def second_close():
            scheduler.close()
            observed["drained"] = future.done()

        second = threading.Thread(target=second_close)
        second.start()
        second.join(0.5)
        assert second.is_alive(), (
            "the second closer must block until the drain completes"
        )
        inner.release.set()
        second.join(20.0)
        first.join(20.0)
        assert not first.is_alive() and not second.is_alive()
        assert observed["drained"], (
            "close() returning must mean the queue has been drained"
        )
        assert len(future.result()) == 2

    def test_concurrent_close_storm_auto_mode(self, smoke_context):
        """Eight simultaneous closers on a running scheduler: no
        exceptions, every closer returns, the request is served."""
        evaluator = BatchEvaluator(smoke_context.fast_evaluator)
        scheduler = MicroBatchScheduler(evaluator, tick_s=0.001)
        future = scheduler.submit(_population(2, seed=83))
        errors: list = []

        def close():
            try:
                scheduler.close()
            except BaseException as exc:  # pragma: no cover - the bug
                errors.append(exc)

        threads = [threading.Thread(target=close) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert future.done() and len(future.result()) == 2
        scheduler.close()  # still idempotent afterwards

    def test_reentrant_close_from_draining_thread(self, smoke_context):
        """close() re-entered on the closing thread itself (a signal
        handler firing mid-close) returns instead of deadlocking on its
        own drain."""

        class _ReentrantClose:
            def __init__(self, inner):
                self.inner = inner
                self.scheduler = None

            def evaluate_many(self, points):
                self.scheduler.close()  # reentrant: we ARE the drain
                return self.inner.evaluate_many(points)

        inner = _ReentrantClose(BatchEvaluator(smoke_context.fast_evaluator))
        scheduler = MicroBatchScheduler(inner, auto_start=False)
        inner.scheduler = scheduler
        future = scheduler.submit(_population(1, seed=87))
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        closer.join(20.0)
        assert not closer.is_alive(), "reentrant close must not deadlock"
        assert future.done()

    def test_close_from_scheduler_thread_mid_batch(self, smoke_context):
        """An evaluator closing the scheduler from inside a running batch
        (auto mode: that call runs ON the scheduler thread) flags the
        shutdown and returns — it must not deadlock itself or the real
        closer joining the thread."""

        class _ClosingEvaluator:
            def __init__(self, inner):
                self.inner = inner
                self.scheduler = None

            def evaluate_many(self, points):
                self.scheduler.close()  # executes on the scheduler thread
                return self.inner.evaluate_many(points)

        inner = _ClosingEvaluator(BatchEvaluator(smoke_context.fast_evaluator))
        scheduler = MicroBatchScheduler(inner, tick_s=0.0)
        inner.scheduler = scheduler
        future = scheduler.submit(_population(1, seed=95))
        closer = threading.Thread(target=scheduler.close)
        closer.start()
        closer.join(20.0)
        assert not closer.is_alive(), "closer must not deadlock"
        assert future.done() and len(future.result()) == 1

    def test_failed_batches_count_ticks_and_errors(self, smoke_context):
        """Regression: _run_batch only bumped ticks/largest_batch on
        success, so the stats under-reported traffic under evaluator
        errors (and exposed no error count at all)."""
        inner = _CountingEvaluator(
            BatchEvaluator(smoke_context.fast_evaluator), fail=True
        )
        scheduler = MicroBatchScheduler(inner, auto_start=False)
        points = _population(3, seed=89)
        future = scheduler.submit(points)
        scheduler.flush()
        assert isinstance(future.exception(), RuntimeError)
        assert scheduler.ticks == 1, "a failed batch is still a tick"
        assert scheduler.errors == 1
        assert scheduler.largest_batch == 3
        inner.fail = False
        scheduler.evaluate_many(points)
        assert (scheduler.ticks, scheduler.errors) == (2, 1)

    def test_cancelled_queued_request_is_skipped(self, smoke_context):
        """A future cancelled while queued is dropped at dispatch, so
        ``set_result`` can never race a cancellation."""
        inner = _CountingEvaluator(BatchEvaluator(smoke_context.fast_evaluator))
        scheduler = MicroBatchScheduler(inner, auto_start=False)
        keep = scheduler.submit(_population(2, seed=91))
        dropped = scheduler.submit(_population(2, seed=93))
        assert dropped.cancel()
        scheduler.flush()
        assert keep.done() and not keep.cancelled()
        assert inner.calls == [2], (
            "a cancelled request's points must not be evaluated"
        )


def _lifecycle_task(shard):
    """Task fn: sleep, then fail or write a marker file."""
    kind, delay, path = shard[0]
    time.sleep(delay)
    if kind == "fail":
        raise ValueError("task failure")
    if path:
        with open(path, "w") as handle:
            handle.write("done")
    return kind


class TestWorkerPoolTaskErrors:
    def test_task_error_harvests_all_futures(self, tmp_path):
        """Regression: run_tasks used to propagate the first genuine task
        error immediately, abandoning later shards' futures while their
        work was still running inside the executor."""
        pool = WorkerPool(workers=2)
        try:
            marker = tmp_path / "slow_done.txt"
            shards = [
                [("fail", 0.0, "")],
                [("ok", 1.0, str(marker))],
            ]
            with pytest.raises(ValueError, match="task failure"):
                pool.run_tasks(_lifecycle_task, shards)
            assert marker.exists(), (
                "every in-flight future must be harvested before a task "
                "error propagates — no abandoned work may still be "
                "running in the executor"
            )
            # The pool is immediately reusable after a task error.
            ok = tmp_path / "reuse.txt"
            assert pool.run_tasks(
                _lifecycle_task, [[("ok", 0.0, str(ok))]]
            ) == ["ok"]
            assert ok.exists()
        finally:
            pool.close()


class TestWorkerPoolTracing:
    def test_shard_span_nests_under_dispatch(self):
        """Each shard runs under a copy of the dispatching context, so a
        ``pool.shard`` span from a worker thread joins the caller's trace
        under ``pool.dispatch``."""
        from repro.obs.tracing import configure_tracing, get_tracer

        tracer = get_tracer()
        configure_tracing(enabled=True)
        pool = WorkerPool(workers=2)
        try:
            tracer.clear()
            with tracer.span("caller") as caller:
                threads = pool.run_tasks(
                    lambda shard: threading.get_ident(), [[1], [2], [3]]
                )
            spans = tracer.spans()
        finally:
            configure_tracing(enabled=False)
            tracer.clear()
            pool.close()
        assert threading.get_ident() not in threads, "shards ran on pool threads"
        (dispatch,) = [s for s in spans if s["name"] == "pool.dispatch"]
        shards = [s for s in spans if s["name"] == "pool.shard"]
        assert len(shards) == 3
        assert dispatch["trace"] == caller.trace_id
        assert dispatch["parent"] == caller.span_id
        for shard in shards:
            assert shard["trace"] == caller.trace_id
            assert shard["parent"] == dispatch["span"]
