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

* ``auto_start=True`` (default) runs a daemon scheduler thread: it
  sleeps while the queue is empty, and on traffic waits ``tick_s``
  (the coalescing window) before draining the queue — unless the
  evaluator reports every pending point warm (``all_warm``), in which
  case it drains at once.  Waiting pays off by merging HyperNet
  forwards; a warm batch runs none (only cache reads and GP rows, which
  cost about the same merged or not), so the window would only add
  ``tick_s`` to every cache hit.
* With that thread running and ``tick_s > 0``, a request whose points
  are all warm and that finds the evaluator idle is served on the
  submitting thread: :meth:`~MicroBatchScheduler.submit` runs its batch
  inline and returns a future that is already resolved, so a cache hit
  crosses no thread (in the service, the submitting thread is the event
  loop).  Cold requests, and warm ones that arrive while a batch runs,
  queue for the scheduler thread as above.
* ``auto_start=False`` is the synchronous mode — callers enqueue with
  :meth:`submit` and drive batches explicitly with :meth:`flush` (the
  deterministic mode the coalescing tests use).

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
from ..obs.tracing import NULL_SPAN, current_context, get_tracer
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
    for a scheduler thread with ``tick_s > 0``, a read-only
    ``all_warm(points) -> bool`` that never raises (``True`` when
    ``evaluate_many`` would run no HyperNet for any of the points).
    ``tick_s`` is the coalescing window the scheduler thread waits after
    cold traffic arrives (warm traffic is drained at once, or served on
    the submitting thread when no batch is running; :meth:`flush` and
    ``tick_s == 0`` never wait and never ask).  A batch takes every
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
        # Serialises every evaluator access (batches and all_warm peeks):
        # the underlying evaluator is not safe under concurrent calls, in
        # synchronous mode several submitter threads may flush() at once,
        # and submitters run warm batches inline.
        self._dispatch = threading.Lock()
        #: Thread serving an inline batch (set under _dispatch), so that a
        #: close() from inside that batch is treated like one from the
        #: scheduler thread.
        self._inline_ident: int | None = None
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
        """Enqueue a request; the future resolves to one Evaluation per
        point, in input order.  Thread-safe.

        ``trace`` is an optional ``(trace_id, parent_span_id)`` pair from
        the submitting request (the service passes the wire trace here);
        the batch that serves this request links its spans under it.
        Cross-thread handoff has to be explicit — the scheduler thread
        that runs the batch cannot see the submitter's contextvars.

        With the scheduler thread running and ``tick_s > 0``, an all-warm
        request that finds no batch running is served right here, and the
        returned future is already done.
        """
        request = _Request(list(points), trace)
        # _thread is read without the lock: a stale answer only sends the
        # request down the queued path, and _admit re-checks _closed.
        if (
            self.tick_s > 0
            and self._thread is not None
            and self._dispatch.acquire(blocking=False)
        ):
            try:
                if self.evaluator.all_warm(request.points):
                    # Admitted while holding _dispatch, and served before
                    # it is released: a racing close() either rejects it
                    # here or drains after it (its drain takes _dispatch).
                    self._admit(request, inline=True)
                    self._inline_ident = threading.get_ident()
                    try:
                        self._run_batch([request])
                    finally:
                        self._inline_ident = None
                    return request.future
            finally:
                self._dispatch.release()
        self._admit(request, inline=False)
        return request.future

    def _admit(self, request: _Request, inline: bool) -> None:
        """Count the request, and queue it unless it is served inline."""
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self.requests += 1
            self.points_in += len(request.points)
            if inline:
                self.inline += 1
            else:
                self._pending.append(request)
                self._cond.notify_all()
        _M_REQUESTS.inc()
        _M_POINTS_IN.inc(len(request.points))
        if inline:
            _M_INLINE.inc()

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
                results = self._evaluate_batch(points)
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
        """One evaluator call, optionally under the retry policy.

        ``faults.hit`` marks the tick boundary (a no-op without an
        installed plan); with a policy, a retryable failure re-runs the
        SAME batch — deterministic evaluation makes the re-run's results
        identical, so coalesced callers cannot observe the retry.
        """
        if self.retry is None:
            faults.hit("scheduler.tick")
            return self.evaluator.evaluate_many(points)

        def attempt(n: int) -> list:
            faults.hit("scheduler.tick")
            return self.evaluator.evaluate_many(points)

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
            if self.tick_s > 0 and not hasattr(self.evaluator, "all_warm"):
                # Fail here, not in the thread: a dead scheduler thread
                # would leave every submitted future pending forever.
                raise TypeError(
                    "a scheduler thread with tick_s > 0 needs an evaluator "
                    "with all_warm(points)"
                )
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
                    pending = [p for request in self._pending for p in request.points]
            if window:
                with self._dispatch:
                    cold = not self.evaluator.all_warm(pending)
                if cold:
                    # The coalescing window: let concurrent submitters pile
                    # in.  Only cold work waits: merging is what saves
                    # HyperNet forwards, and warm points run none.
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
            if (
                threading.current_thread() is self._thread
                or threading.get_ident() == self._inline_ident
            ):
                # Called from inside a batch the scheduler thread or an
                # inline submitter is running (an evaluator closing
                # mid-batch): just flag the shutdown — the batch finishes,
                # and a real closer performs the join + drain.  Joining
                # or draining here would deadlock on ourselves.
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
