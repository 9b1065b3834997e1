"""Micro-batching request scheduler for concurrent evaluation traffic.

Search threads (or service clients) call :meth:`MicroBatchScheduler.
submit` / :meth:`evaluate_many` concurrently; the scheduler coalesces all
requests pending at each tick into ONE batched call on the underlying
evaluator and slices the results back per request.  Under heavy
concurrent traffic N small requests collapse into one sharded batch —
one grouped HyperNet forward, one GP prediction, one pool dispatch —
instead of N serialized round-trips.

Correctness: ``evaluate_many`` is order-preserving, and every result is
a function of its own point alone (the HyperNet logits and the GP
prediction are both row-independent), so coalescing requests — identical
or not — is bit-exact against the standalone calls.

Operation:

* Warm requests never queue.  With the scheduler thread running,
  :meth:`~MicroBatchScheduler.submit` first tries the evaluator's atomic
  warm read (``read_warm``), which returns every result of the request
  from the caches or nothing.  A hit is served on the submitting thread
  whether or not a batch is running: the read takes the evaluator's
  short cache lock, never the scheduler's dispatch lock, and the
  returned future is already resolved.  (The service calls
  :meth:`~MicroBatchScheduler.read` itself, with keys built straight
  from the wire tokens, on its event loop.)
* ``auto_start=True`` (default) runs a daemon scheduler thread for every
  other request: it sleeps while the queue is empty, and on traffic
  waits ``tick_s`` (the coalescing window) before draining the queue
  into one batch.  Only cold work queues, so only cold work waits, and
  merging is what saves HyperNet forwards.
* ``auto_start=False`` is the synchronous mode — callers enqueue with
  :meth:`submit` and drive batches explicitly with :meth:`flush` (the
  deterministic mode the coalescing tests use).  It never reads.

The scheduler is itself evaluator-shaped (``evaluate`` /
``evaluate_many``), so a search loop can be pointed at it unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
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
    __slots__ = ("points", "future", "trace", "enqueued")

    def __init__(
        self, points: list, trace: tuple[str, str | None] | None
    ) -> None:
        self.points = points
        self.future: Future = Future()
        #: (trace_id, parent_span_id) of the submitting span, if traced.
        self.trace = trace
        #: perf_counter at enqueue — the queue-wait measurement anchor.
        self.enqueued = time.perf_counter()


class MicroBatchScheduler:
    """Coalesce concurrent evaluate requests into one batch per tick.

    ``evaluator`` is a :class:`~repro.search.evaluator.BatchEvaluator` in
    production.  Its contract is a list-in/list-out ``evaluate_many`` and,
    optionally, ``key_of(point)`` with the atomic warm read
    ``read_warm(keys, trace, before) -> list | None`` (``before`` is
    called once the read is known to succeed, before it changes
    anything); an evaluator without them has every request queued.
    ``tick_s`` is the coalescing window the scheduler thread waits after
    a request queues (:meth:`flush` and ``tick_s == 0`` never wait).  A
    batch takes every request pending when it is taken: a service admits
    at most its ``PointsBudget`` of points, and the grouped HyperNet
    forward bounds its own memory by chunking genotypes.

    ``retry`` (optional :class:`~repro.resilience.policy.RetryPolicy`)
    re-runs a batch whose evaluator raised a *retryable* error (transient
    wire/store faults) — safe because evaluation is deterministic, so a
    re-run yields identical results.  Terminal errors (``ValueError``
    from a bad point, and anything else outside the policy's retryable
    classes) still propagate to every coalesced caller exactly as with
    the ``None`` default.
    """

    def __init__(
        self,
        evaluator,
        tick_s: float = 0.002,
        auto_start: bool = True,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        if tick_s < 0:
            raise ValueError("tick_s must be >= 0")
        self.evaluator = evaluator
        self.tick_s = tick_s
        self.retry = retry
        self._pending: deque[_Request] = deque()
        self._cond = threading.Condition()
        # Serialises batches: evaluate_many calls never overlap, and in
        # synchronous mode several submitter threads may flush() at once.
        # Warm reads never take it.
        self._dispatch = threading.Lock()
        if hasattr(evaluator, "read_warm") and hasattr(evaluator, "key_of"):
            self._read_warm = evaluator.read_warm
            self._key_of = evaluator.key_of
        else:
            self._read_warm = self._key_of = None
        self._closed = False
        # Shutdown coordination: exactly one caller performs the close
        # (join + drain); everyone else waits on _close_done, so close()
        # returning always means the queue has been fully drained.
        self._close_started = False
        self._closer_ident: int | None = None
        self._close_done = threading.Event()
        self._thread: threading.Thread | None = None
        # -- stats (guarded by _cond) --
        self.ticks = 0
        self.requests = 0
        self.points_in = 0
        self.largest_batch = 0
        self.errors = 0
        #: Requests served on the submitting thread (they never queued).
        self.inline = 0
        #: Batches re-run after a retryable evaluator failure (requires a
        #: ``retry`` policy; each re-run also counts in resilience.retries).
        self.retried_batches = 0
        if auto_start:
            self.start()

    # -- client API ------------------------------------------------------
    def submit(
        self,
        points: Sequence["CoDesignPoint"],
        trace: tuple[str, str | None] | None = None,
    ) -> Future:
        """Submit a request; the future resolves to one Evaluation per
        point, in input order.  Thread-safe.

        ``trace`` is an optional ``(trace_id, parent_span_id)`` pair from
        the submitting request (the service passes the wire trace here);
        the batch that serves this request links its spans under it.
        Cross-thread handoff has to be explicit — the scheduler thread
        that runs the batch cannot see the submitter's contextvars.

        With the scheduler thread running, a request that the evaluator's
        caches hold whole is served right here by :meth:`read`, and the
        returned future is already done; any other request is queued by
        :meth:`enqueue`.
        """
        points = list(points)
        keys = None
        if self._key_of is not None and self._thread is not None:
            try:
                keys = [self._key_of(point) for point in points]
            except Exception:  # unkeyable: queued, evaluate_many says why
                keys = None
        if keys is not None:
            future: Future = Future()
            try:
                results = self.read(keys, trace)
            except Exception as exc:  # a fault at the tick boundary
                future.set_exception(exc)
                return future
            if results is not None:
                future.set_result(results)
                return future
        return self.enqueue(points, trace)

    def enqueue(
        self,
        points: Sequence["CoDesignPoint"],
        trace: tuple[str, str | None] | None = None,
    ) -> Future:
        """Queue a request for the next batch without trying :meth:`read`
        (for a caller whose read just missed); otherwise as :meth:`submit`.
        """
        points = list(points)
        request = _Request(points, trace)
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self.requests += 1
            self.points_in += len(points)
            self._pending.append(request)
            self._cond.notify_all()
        _M_REQUESTS.inc()
        _M_POINTS_IN.inc(len(points))
        return request.future

    def read(
        self,
        keys: Sequence[tuple],
        trace: tuple[str, str | None] | None = None,
    ) -> list["Evaluation"] | None:
        """Serve one request from the evaluator's caches, on this thread.

        ``keys`` are the evaluator's cache keys of the request's points
        (``key_of``; the service builds them from the wire tokens with
        ``key_of_tokens``).  Returns one Evaluation per key when the
        evaluator's atomic warm read holds them all.  Returns ``None``,
        having counted nothing, when any key is cold, in synchronous mode,
        for an evaluator without the read, or once the scheduler is
        closed; the caller then queues the request with :meth:`enqueue`.

        A served read counts as a request, an inline request and a tick.
        It passes the ``scheduler.tick`` fault point under the retry
        policy, as a batch does: inside the read, once every key is known
        to be warm and before the evaluator changes anything, so a fault
        leaves the caches and counters as they were and a miss never
        reaches the fault point.  A fault that is not retried is raised.
        When traced it records a ``scheduler.batch`` span over
        the evaluator's span.  No scheduler lock is held while reading,
        so a running batch never delays it.  A read that began before
        :meth:`close` may finish after it; it never queues, so the drain
        has nothing to wait for.
        """
        read_warm = self._read_warm
        if read_warm is None or self._thread is None or self._closed:
            return None
        tracer = get_tracer()
        parent = batch = None
        if tracer.enabled:
            parent = trace if trace is not None else current_context()
            if parent is not None:
                batch = (parent[0], new_span_id())
        t0 = time.perf_counter()
        error = None
        try:
            results = self._retrying(read_warm, keys, batch, _tick_boundary)
        except Exception as exc:  # raised at the tick, before any change
            error = exc
        else:
            if results is None:
                return None
        n = len(keys)
        with self._cond:
            self.requests += 1
            self.points_in += n
            self.inline += 1
            self.ticks += 1
            self.largest_batch = max(self.largest_batch, n)
            if error is not None:
                self.errors += 1
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
            _M_ERRORS.inc()
            raise error
        return results

    def evaluate_many(
        self, points: Sequence["CoDesignPoint"]
    ) -> list["Evaluation"]:
        """Blocking drop-in for ``BatchEvaluator.evaluate_many``."""
        # Hand the caller's ambient span (if any) across the thread gap.
        trace = current_context() if get_tracer().enabled else None
        future = self.submit(points, trace=trace)
        with self._cond:
            synchronous = self._thread is None
        if synchronous:
            # Synchronous mode: the caller drives the batch itself.
            self.flush()
        return future.result()

    def evaluate(self, point: "CoDesignPoint") -> "Evaluation":
        """Blocking drop-in for ``BatchEvaluator.evaluate``."""
        return self.evaluate_many([point])[0]

    # -- live queue state -------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting in the coalescing window."""
        with self._cond:
            return len(self._pending)

    @property
    def queued_points(self) -> int:
        """Points currently waiting in the coalescing window."""
        with self._cond:
            return sum(len(r.points) for r in self._pending)

    # -- batching core ---------------------------------------------------
    def _take_batch(self) -> list[_Request]:
        """Pop every pending request.

        Each popped request's future is flipped to RUNNING; a request whose
        caller cancelled the future while it was queued is dropped here, so
        ``_run_batch`` never races a cancellation with ``set_result``.
        """
        with self._cond:
            batch = [
                request
                for request in self._pending
                if request.future.set_running_or_notify_cancel()
            ]
            self._pending.clear()
        taken = time.perf_counter()
        tracer = get_tracer()
        for request in batch:
            wait_s = taken - request.enqueued
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

    def _run_batch(self, batch: list[_Request]) -> None:
        points = [p for request in batch for p in request.points]
        tracer = get_tracer()
        # The batch span parents under the first traced request (one
        # coalesced batch can serve many traces; the span's request count
        # says so) or, in synchronous mode, the flushing caller's span.
        ctx = next((r.trace for r in batch if r.trace is not None), None)
        if ctx is not None:
            span = tracer.span(
                "scheduler.batch",
                trace_id=ctx[0],
                parent_id=ctx[1],
                requests=len(batch),
                points=len(points),
            )
        elif current_context() is not None:
            span = tracer.span(
                "scheduler.batch", requests=len(batch), points=len(points)
            )
        else:
            span = NULL_SPAN
        _M_BATCH_POINTS.observe(len(points))
        try:
            with span:
                results = self._retrying(self._evaluate_batch, points)
        except BaseException as exc:  # propagate to every coalesced caller
            # A failed batch is still a tick the evaluator ran — the stats
            # must not under-report traffic (or hide errors) under faults.
            with self._cond:
                self.ticks += 1
                self.errors += 1
                self.largest_batch = max(self.largest_batch, len(points))
            _M_TICKS.inc()
            _M_ERRORS.inc()
            for request in batch:
                request.future.set_exception(exc)
            return
        with self._cond:
            self.ticks += 1
            self.largest_batch = max(self.largest_batch, len(points))
        _M_TICKS.inc()
        offset = 0
        for request in batch:
            request.future.set_result(results[offset : offset + len(request.points)])
            offset += len(request.points)

    def _evaluate_batch(self, points: list) -> list:
        _tick_boundary()
        return self.evaluator.evaluate_many(points)

    def _retrying(self, call, *args):
        """``call(*args)``, which passes the tick boundary, optionally
        under the retry policy.

        With a policy, a retryable failure re-runs ``call`` — deterministic
        evaluation makes the re-run's results identical, so coalesced
        callers cannot observe the retry.
        """
        if self.retry is None:
            return call(*args)

        def attempt(n: int):
            return call(*args)

        def note_retry(exc: BaseException, n: int, delay: float) -> None:
            with self._cond:
                self.retried_batches += 1

        return self.retry.run(attempt, on_retry=note_retry)

    def flush(self) -> int:
        """Drain the queue synchronously in the calling thread.

        Returns the number of requests served.  Used in synchronous mode
        and by :meth:`close` to serve stragglers; while the scheduler
        thread is running it owns all batching (concurrent evaluator
        calls are never safe), so flushing then is an error.
        """
        with self._cond:
            if self._thread is not None:
                raise RuntimeError(
                    "flush() is for synchronous mode; the running scheduler "
                    "thread owns batching"
                )
        return self._drain()

    def _drain(self) -> int:
        """The flush body, without the synchronous-mode guard (close() uses
        it after the scheduler thread has been joined)."""
        served = 0
        while True:
            with self._dispatch:
                batch = self._take_batch()
                if not batch:
                    return served
                self._run_batch(batch)
            served += len(batch)

    # -- scheduler thread ------------------------------------------------
    def start(self) -> None:
        """Start the daemon scheduler thread (no-op if already running)."""
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if self._thread is not None:
                return
            self._thread = threading.Thread(
                target=self._loop, name="microbatch-scheduler", daemon=True
            )
            self._thread.start()

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if self._closed and not self._pending:
                    return
                window = self.tick_s > 0 and not self._closed
            if window:
                # The coalescing window: let concurrent submitters pile in.
                # Warm requests were served by read() and never queued, so
                # this waits only for work that merging can save.
                time.sleep(self.tick_s)
            with self._dispatch:
                batch = self._take_batch()
                if batch:
                    self._run_batch(batch)

    def close(self) -> None:
        """Stop accepting requests, serve what is queued, join the thread.

        Idempotent and safe under concurrent callers: exactly ONE caller
        performs the shutdown (join + drain) and every other caller blocks
        until it finishes, so ``close()`` returning always means the queue
        has been fully drained — a second closer must never return early
        (dropping the drain guarantee) or touch :meth:`flush` while the
        scheduler thread is still being joined.  A reentrant call from the
        closing thread itself (a signal handler firing mid-close, or an
        evaluator closing the scheduler from inside a drained batch)
        returns immediately instead of deadlocking on its own shutdown.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            if threading.current_thread() is self._thread:
                # Called from inside a batch the scheduler thread is
                # running (an evaluator closing mid-batch): just flag the
                # shutdown — the batch finishes, and a real closer
                # performs the join + drain.  Joining or draining here
                # would deadlock on ourselves.
                return
            if self._close_started:
                reentrant = self._closer_ident == threading.get_ident()
                owner = False
            else:
                self._close_started = True
                self._closer_ident = threading.get_ident()
                owner = True
            thread = self._thread
        if not owner:
            if not reentrant:
                self._close_done.wait()
            return
        try:
            if thread is not None:
                # _thread stays set until the join completes, so the flush()
                # guard keeps rejecting callers for the whole shutdown
                # window (the scheduler thread may still be mid-batch).
                thread.join()
                with self._cond:
                    self._thread = None
            # Synchronous-mode stragglers (no thread to serve them); the
            # scheduler thread, when present, drained before exiting.
            self._drain()
        finally:
            self._close_done.set()

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
