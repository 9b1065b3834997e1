"""Micro-batching request scheduler on the service's event loop.

Service clients call :meth:`MicroBatchScheduler.evaluate` concurrently
on one asyncio loop; the scheduler coalesces all requests pending at
each tick into ONE batched call on the underlying evaluator and slices
the results back per request.  Under heavy concurrent traffic N small
requests collapse into one sharded batch — one grouped HyperNet forward,
one GP prediction, one pool dispatch — instead of N serialized
round-trips.

Correctness: ``evaluate_many`` is order-preserving, and every result is
a function of its own point alone (the HyperNet logits and the GP
prediction are both row-independent), so coalescing requests — identical
or not — is bit-exact against the standalone calls.

Operation:

* Warm requests never queue.  :meth:`~MicroBatchScheduler.read` serves a
  request the evaluator's caches hold whole through its atomic warm read
  (``read_warm``), synchronously on the loop, whether or not a batch is
  running: the read takes the evaluator's short cache lock, which a
  running batch holds only to look its keys up and to insert results.
* Every other request is queued by :meth:`~MicroBatchScheduler.evaluate`.
  The first one starts a batch task on the loop, which waits ``tick_s``
  (the coalescing window), takes every pending request and runs them as
  one ``evaluate_many`` call on a single worker thread, and repeats
  while requests are pending.  Only cold work queues, so only cold work
  waits, and merging is what saves HyperNet forwards.

Every queue and counter is touched on the loop only, so the scheduler
takes no lock.  One task runs the batches, so they never overlap, and
the loop keeps serving warm reads while a batch computes.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Sequence

from ..obs.registry import COUNT_BUCKETS, get_registry
from ..obs.tracing import NULL_SPAN, current_context, get_tracer, new_span_id
from ..resilience import faults

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nas.encoding import CoDesignPoint
    from ..resilience.policy import RetryPolicy
    from ..search.evaluator import Evaluation

__all__ = ["MicroBatchScheduler"]

# Module-level registry handles: fetched once so the warm path pays no
# name lookups (the metric-handles lint rule keeps them off instances).
_REGISTRY = get_registry()
_M_TICKS = _REGISTRY.counter("scheduler.ticks")
_M_REQUESTS = _REGISTRY.counter("scheduler.requests")
_M_POINTS_IN = _REGISTRY.counter("scheduler.points_in")
_M_ERRORS = _REGISTRY.counter("scheduler.errors")
_M_INLINE = _REGISTRY.counter("scheduler.inline")
_M_QUEUE_WAIT_S = _REGISTRY.histogram("scheduler.queue_wait_s")
_M_BATCH_POINTS = _REGISTRY.histogram("scheduler.batch_points", COUNT_BUCKETS)


def _tick_boundary() -> None:
    """The ``scheduler.tick`` fault point (a no-op without a fault plan)."""
    faults.hit("scheduler.tick")


class _Request:
    __slots__ = ("points", "future", "trace", "queued_at")

    def __init__(self, points: list, future: asyncio.Future, trace) -> None:
        self.points = points
        self.future = future
        #: (trace_id, parent_span_id) of the requesting span, if traced.
        self.trace = trace
        #: perf_counter when queued — the queue-wait measurement anchor.
        self.queued_at = time.perf_counter()


class MicroBatchScheduler:
    """Coalesce concurrent evaluate requests into one batch per tick.

    ``evaluator`` is a :class:`~repro.search.evaluator.BatchEvaluator` in
    production.  Its contract is a list-in/list-out ``evaluate_many`` and,
    optionally, the atomic warm read ``read_warm(keys, trace, before) ->
    list | None`` (``before`` is called once the read is known to
    succeed, before it changes anything); an evaluator without it has
    every request queued.  ``tick_s`` is the coalescing window the batch
    task waits before taking the queue (``0`` still yields once to the
    loop, so requests gathered on it coalesce).  A batch takes every
    request pending when it is taken: a service admits at most its
    ``PointsBudget`` of points, and the grouped HyperNet forward bounds
    its own memory by chunking genotypes.

    ``retry`` (optional :class:`~repro.resilience.policy.RetryPolicy`)
    re-runs a batch whose evaluator raised a *retryable* error (transient
    wire/store faults) — safe because evaluation is deterministic, so a
    re-run yields identical results.  Terminal errors (``ValueError``
    from a bad point, and anything else outside the policy's retryable
    classes) still propagate to every coalesced caller exactly as with
    the ``None`` default.

    Every method runs on one event loop; only ``evaluate_many`` (with the
    tick fault point and the retries around it) runs on the worker
    thread.
    """

    def __init__(
        self,
        evaluator,
        tick_s: float = 0.002,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        if tick_s < 0:
            raise ValueError("tick_s must be >= 0")
        self.evaluator = evaluator
        self.tick_s = tick_s
        self.retry = retry
        self._read_warm = getattr(evaluator, "read_warm", None)
        self._pending: list[_Request] = []
        self._task: asyncio.Task | None = None
        # The one thread evaluate_many runs on (started by its first batch).
        self._worker = ThreadPoolExecutor(1, thread_name_prefix="microbatch")
        self._closed = False
        self.ticks = 0
        self.requests = 0
        self.points_in = 0
        self.largest_batch = 0
        self.errors = 0
        #: Requests served by :meth:`read` (they never queued).
        self.inline = 0
        #: Batches re-run after a retryable evaluator failure (requires a
        #: ``retry`` policy; each re-run also counts in resilience.retries).
        self.retried_batches = 0

    # -- client API ------------------------------------------------------
    def read(
        self,
        keys: Sequence[tuple],
        trace: tuple[str, str | None] | None = None,
    ) -> list["Evaluation"] | None:
        """Serve one request from the evaluator's caches, on the loop.

        ``keys`` are the evaluator's cache keys of the request's points
        (the service builds them straight from the wire tokens).  Returns
        one Evaluation per key when the evaluator's atomic warm read holds
        them all.  Returns ``None``, having counted nothing, when any key
        is cold, for an evaluator without the read, or once the scheduler
        is closed; the caller then queues the request with
        :meth:`evaluate`.

        A served read counts as a request, an inline request and a tick.
        It passes the ``scheduler.tick`` fault point under the retry
        policy, as a batch does: inside the read, once every key is known
        to be warm and before the evaluator changes anything, so a fault
        leaves the caches and counters as they were and a miss never
        reaches the fault point.  A fault that is not retried is raised.
        When traced it records a ``scheduler.batch`` span over the
        evaluator's span.  It blocks the loop only for the read itself.
        """
        read_warm = self._read_warm
        if read_warm is None or self._closed:
            return None
        tracer = get_tracer()
        parent = batch = None
        if tracer.enabled:
            parent = trace if trace is not None else current_context()
            if parent is not None:
                batch = (parent[0], new_span_id())
        t0 = time.perf_counter()
        retries: list = []
        error = None
        try:
            results = self._retrying(retries, read_warm, keys, batch, _tick_boundary)
        except Exception as exc:  # raised at the tick, before any change
            error = exc
        else:
            if results is None:
                return None
        finally:
            self.retried_batches += len(retries)
        n = len(keys)
        self.requests += 1
        self.points_in += n
        self.inline += 1
        self.ticks += 1
        self.largest_batch = max(self.largest_batch, n)
        _M_REQUESTS.inc()
        _M_POINTS_IN.inc(n)
        _M_INLINE.inc()
        _M_TICKS.inc()
        _M_BATCH_POINTS.observe(n)
        if parent is not None:
            attrs = {"error": type(error).__name__} if error is not None else {}
            tracer.record_ago(
                "scheduler.batch",
                parent[0],
                parent[1],
                time.perf_counter() - t0,
                span_id=batch[1],
                requests=1,
                points=n,
                **attrs,
            )
        if error is not None:
            self.errors += 1
            _M_ERRORS.inc()
            raise error
        return results

    async def evaluate(
        self,
        points: Sequence["CoDesignPoint"],
        trace: tuple[str, str | None] | None = None,
    ) -> list["Evaluation"]:
        """Queue a request for the next batch and return its results, one
        Evaluation per point, in input order.

        ``trace`` is an optional ``(trace_id, parent_span_id)`` pair from
        the caller's request (the service passes the wire trace here);
        the batch that serves this request links its spans under it.  A
        caller cancelled while its request is queued is skipped by the
        batch.  Raises ``RuntimeError`` once the scheduler is closed.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        loop = asyncio.get_running_loop()
        request = _Request(list(points), loop.create_future(), trace)
        n = len(request.points)
        self.requests += 1
        self.points_in += n
        _M_REQUESTS.inc()
        _M_POINTS_IN.inc(n)
        self._pending.append(request)
        if self._task is None:
            self._task = loop.create_task(self._run())
        return await request.future

    # -- live queue state -------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting in the coalescing window."""
        return len(self._pending)

    @property
    def queued_points(self) -> int:
        """Points currently waiting in the coalescing window."""
        return sum(len(r.points) for r in self._pending)

    # -- batching core ---------------------------------------------------
    async def _run(self) -> None:
        """The batch task: wait the window, run every pending request as
        one batch, and repeat until nothing is pending."""
        try:
            while self._pending:
                await asyncio.sleep(self.tick_s)
                batch = self._take_batch()
                if batch:
                    await self._run_batch(batch)
        finally:
            self._task = None

    def _take_batch(self) -> list[_Request]:
        """Pop every pending request whose caller still waits for it."""
        batch = [r for r in self._pending if not r.future.done()]
        self._pending.clear()
        taken = time.perf_counter()
        tracer = get_tracer()
        for request in batch:
            wait_s = taken - request.queued_at
            _M_QUEUE_WAIT_S.observe(wait_s)
            if request.trace is not None:
                # The wait already happened; emit it as a pre-measured
                # span ending now (obs supplies the wall anchor).
                tracer.record_ago(
                    "scheduler.queue_wait",
                    request.trace[0],
                    request.trace[1],
                    wait_s,
                    points=len(request.points),
                )
        return batch

    async def _run_batch(self, batch: list[_Request]) -> None:
        points = [p for request in batch for p in request.points]
        # The batch span parents under the first traced request (one
        # coalesced batch can serve many traces; the span's request count
        # says so).
        ctx = next((r.trace for r in batch if r.trace is not None), None)
        span = NULL_SPAN
        if ctx is not None:
            span = get_tracer().span(
                "scheduler.batch",
                trace_id=ctx[0],
                parent_id=ctx[1],
                requests=len(batch),
                points=len(points),
            )
        _M_BATCH_POINTS.observe(len(points))
        retries: list = []
        error = None
        try:
            results = await asyncio.get_running_loop().run_in_executor(
                self._worker, self._compute, span, retries, points
            )
        except BaseException as exc:  # propagate to every coalesced caller
            error = exc
        # A failed batch is still a tick the evaluator ran — the stats
        # must not under-report traffic (or hide errors) under faults.
        self.ticks += 1
        self.largest_batch = max(self.largest_batch, len(points))
        self.retried_batches += len(retries)
        _M_TICKS.inc()
        if error is not None:
            self.errors += 1
            _M_ERRORS.inc()
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(error)
            if not isinstance(error, Exception):
                raise error
            return
        offset = 0
        for request in batch:
            if not request.future.done():  # its caller may have gone
                request.future.set_result(
                    results[offset : offset + len(request.points)]
                )
            offset += len(request.points)

    def _compute(self, span, retries: list, points: list) -> list:
        """One batch on the worker thread, inside its span, so the
        evaluator's spans nest under it."""
        with span:
            return self._retrying(retries, self._evaluate_batch, points)

    def _evaluate_batch(self, points: list) -> list:
        _tick_boundary()
        return self.evaluator.evaluate_many(points)

    def _retrying(self, retries: list, call, *args):
        """``call(*args)``, which passes the tick boundary, optionally
        under the retry policy; appends one entry to ``retries`` per
        re-run (the caller counts them on the loop).

        With a policy, a retryable failure re-runs ``call`` — deterministic
        evaluation makes the re-run's results identical, so coalesced
        callers cannot observe the retry.
        """
        if self.retry is None:
            return call(*args)
        return self.retry.run(
            lambda n: call(*args), on_retry=lambda exc, n, delay: retries.append(n)
        )

    # -- lifecycle -------------------------------------------------------
    async def aclose(self) -> None:
        """Stop accepting requests, let the batch task serve what is
        queued, and join the worker thread.  Idempotent."""
        self._closed = True
        if self._task is not None:
            await asyncio.wait([self._task])
        self._worker.shutdown()
