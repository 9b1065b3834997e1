"""Asyncio search-evaluation service over the parallel engine.

:class:`SearchService` turns the offline co-design scorer into a
long-lived endpoint: it serves ONE persistent evaluator (a
:class:`~repro.search.evaluator.BatchEvaluator`, with its worker threads
at ``workers > 1``) behind a
:class:`~repro.parallel.scheduler.MicroBatchScheduler`, and speaks the
NDJSON wire protocol of :mod:`repro.service.protocol` over TCP.

Execution model — three layers, each with one job:

* the **asyncio loop** (one thread) accepts connections and parses
  frames; one lightweight task per connection, requests on a connection
  are served in order, connections are independent.  It keys an
  ``evaluate``/``evaluate_many`` request straight from its wire tokens
  (:func:`~repro.service.protocol.wire_keys`) and tries the scheduler's
  atomic warm read first: a request the evaluator's caches hold whole is
  answered right there, with no point decoded, no thread hop and no
  wait for a batch that may be running.  Only a miss decodes its points
  and takes the budget;
* the **points budget** (:class:`PointsBudget`) is the backpressure
  valve: at most ``max_inflight_points`` points of missed requests may
  sit between "admitted" and "answered" at once, so a flood of clients
  degrades to *queueing* (their requests wait in the budget's FIFO)
  instead of ballooning the scheduler queue without bound;
* the **scheduler thread** coalesces every cold request pending at a
  tick into one ``evaluate_many`` call on the evaluator — N concurrent
  clients cost one grouped HyperNet forward / GP prediction / pool
  dispatch per tick, not N.

Results are bit-identical to calling ``evaluate_many`` in-process: the
wire codec round-trips points and evaluations exactly, and coalescing
never changes values (the batch-parity guarantees of the evaluator
stack).

Graceful shutdown (the ``shutdown`` verb, ``SIGINT``/``SIGTERM`` under
:meth:`SearchService.run`, or :meth:`ServiceHandle.shutdown`): new work
is rejected, every admitted *and* budget-queued request is served to
completion, the scheduler drains and joins, the store (if any) is synced,
and only then does the listening socket go away — no request is dropped
or double-run.  The evaluator and the store stay open for their owner.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time

from ..obs.registry import get_registry
from ..obs.tracing import NULL_SPAN, get_tracer
from ..parallel.scheduler import MicroBatchScheduler
from . import protocol

__all__ = [
    "PointsBudget",
    "SearchService",
    "ServiceClosedError",
    "ServiceHandle",
    "start_service",
]

# Module-level registry handles (see docs/OBSERVABILITY.md for the
# schema).  Per-verb latency histograms exist only for the known verbs —
# an unknown op must not mint unbounded metric names from hostile input.
_REGISTRY = get_registry()
_M_CONNECTIONS = _REGISTRY.counter("service.connections")
_M_REQUESTS = _REGISTRY.counter("service.requests")
_M_REJECTED = _REGISTRY.counter("service.rejected")
_M_IDLE_DISCONNECTS = _REGISTRY.counter("service.idle_disconnects")
_VERB_LATENCY = {
    op: _REGISTRY.histogram(f"service.latency_s.{op}")
    for op in ("evaluate", "evaluate_many", "stats", "health", "shutdown")
}


class ServiceClosedError(RuntimeError):
    """The service is shutting down and no longer admits evaluate work."""


class PointsBudget:
    """Bounded count of in-flight points (the service's backpressure).

    ``acquire(n)`` admits a request of ``n`` points once it fits under
    ``limit``; waiters are admitted strictly FIFO (head-of-line blocking,
    so a large request is never starved by a stream of small ones).  A
    single request larger than the whole limit is admitted only when
    nothing else is in flight (it runs alone), so an oversized request
    degrades to exclusive access instead of deadlocking.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = limit
        self._used = 0
        self._queue: list[object] = []
        self._cond: asyncio.Condition = asyncio.Condition()
        #: Peak of ``used`` over the service lifetime (stats/bench).
        self.peak = 0

    @property
    def used(self) -> int:
        return self._used

    @property
    def waiting(self) -> int:
        """Requests currently queued on the budget."""
        return len(self._queue)

    def _fits(self, n: int) -> bool:
        return self._used == 0 or self._used + n <= self.limit

    async def acquire(self, n: int) -> None:
        if not self._queue and self._fits(n):
            # Nobody waits, so admitting at once keeps FIFO order and
            # needs no Condition.
            self._used += n
            self.peak = max(self.peak, self._used)
            return
        ticket = object()
        async with self._cond:
            self._queue.append(ticket)
            try:
                await self._cond.wait_for(
                    lambda: self._queue[0] is ticket and self._fits(n)
                )
            except BaseException:
                self._queue.remove(ticket)
                self._cond.notify_all()
                raise
            self._queue.pop(0)
            self._used += n
            self.peak = max(self.peak, self._used)
            self._cond.notify_all()  # let the new head re-check

    async def release(self, n: int) -> None:
        self._used -= n
        if self._queue:  # only a queued request waits on the Condition
            async with self._cond:
                self._cond.notify_all()


class SearchService:
    """One persistent evaluator behind a micro-batching TCP endpoint.

    ``evaluator`` is anything evaluator-shaped (list-in/list-out
    ``evaluate_many``, plus ``key_of`` and the atomic warm read
    ``read_warm`` for cache hits to skip the queue); the service wraps it
    in its own :class:`~repro.parallel.scheduler.MicroBatchScheduler`
    (``tick_s`` is the coalescing window, which only queued, cold
    requests wait; a request the caches hold whole is served on the
    event loop, even while a cold batch runs).  ``max_inflight_points`` is the
    backpressure budget, and so also bounds one coalesced batch.  The
    caller keeps the evaluator's lifecycle (its worker threads).

    A durable tier-2 result store makes restarts warm (``yoso serve
    --store PATH``): pass an open :class:`repro.store.ResultStore` as
    ``store``.  The store is attached behind the evaluator's LRU if not
    already and flushed (``fsync``) as part of the graceful drain, so
    every result this server computed is on disk before the process
    exits, and the next server on the same path serves them back
    bit-identically.  The caller that opened the store closes it.
    """

    def __init__(
        self,
        evaluator,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_s: float = 0.002,
        max_inflight_points: int = 4096,
        store=None,
        idle_timeout_s: float | None = None,
        retry=None,
    ) -> None:
        self.evaluator = evaluator
        self.host = host
        self.port = port  # 0 = ephemeral; bound port published by start()
        self.store = store
        if (
            store is not None
            and hasattr(evaluator, "attach_store")
            and getattr(evaluator, "store", None) is None
        ):
            evaluator.attach_store(store)
        self.scheduler = MicroBatchScheduler(evaluator, tick_s=tick_s, retry=retry)
        self.max_inflight_points = max_inflight_points
        #: Per-connection idle timeout: a peer that sends nothing for this
        #: long is disconnected (None = never) so dead clients cannot pin
        #: server resources indefinitely.
        self.idle_timeout_s = idle_timeout_s
        self._budget: PointsBudget | None = None  # built on the loop
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        self._shutdown_task: asyncio.Task | None = None
        self._stopped: asyncio.Event | None = None
        self._active = 0
        self._idle: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        #: Lifetime counters.
        self.connections = 0
        self.requests = 0
        self.rejected = 0
        self.idle_disconnects = 0
        self._started_monotonic: float | None = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is not None:
            return
        self._budget = PointsBudget(self.max_inflight_points)
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            # StreamReader's default 64 KB limit is far below a large
            # evaluate_many frame; the protocol's own bound applies instead.
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()

    async def serve_forever(self) -> None:
        """Start (if needed) and block until a shutdown completes."""
        await self.start()
        assert self._stopped is not None
        await self._stopped.wait()

    def run(self) -> None:
        """Blocking entry point for ``yoso serve``: serve until SIGINT/
        SIGTERM (or a client ``shutdown`` verb), then drain and exit."""
        asyncio.run(self._run())

    async def _run(self) -> None:
        await self.start()
        loop = asyncio.get_running_loop()
        for signame in ("SIGINT", "SIGTERM"):
            import signal as _signal

            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(
                    getattr(_signal, signame), self.request_shutdown
                )
        print(f"service listening on {self.host}:{self.port}", flush=True)
        await self.serve_forever()

    def request_shutdown(self) -> None:
        """Begin a graceful shutdown (idempotent; signal/verb safe).

        Must be called on the service's event loop (signal handlers and
        request handlers are); thread-safe callers go through
        :class:`ServiceHandle` or the ``shutdown`` verb.
        """
        if self._closing:
            return
        self._closing = True
        self._shutdown_task = asyncio.get_running_loop().create_task(
            self._shutdown()
        )

    async def _shutdown(self) -> None:
        assert self._server is not None
        assert self._idle is not None and self._stopped is not None
        # 1. Stop accepting new connections; in-flight requests keep going.
        #    (No wait_closed() here: since 3.12 it waits for open client
        #    connections too, which are only torn down after the drain.)
        self._server.close()
        # 2. Drain: every admitted and budget-queued request completes
        #    (new requests have been rejected since _closing flipped).
        await self._idle.wait()
        # 3. Scheduler queue is now empty; close() joins its thread.  The
        #    scheduler's close is idempotent and thread-safe, so a signal
        #    arriving mid-drain cannot corrupt this path.
        await asyncio.get_running_loop().run_in_executor(
            None, self.scheduler.close
        )
        # Flush the durable store as part of the drain: everything this
        # server computed is on disk before the process can exit.
        if self.store is not None and not self.store.closed:
            await asyncio.get_running_loop().run_in_executor(None, self.store.sync)
        # 4. Tear down idle connection readers (their requests are done).
        for task in list(self._conn_tasks):
            task.cancel()
        with contextlib.suppress(Exception, asyncio.TimeoutError):
            await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
        self._stopped.set()

    def request_abort(self) -> None:
        """Hard stop (chaos hook; loop-thread only, like request_shutdown).

        Unlike the graceful path, nothing drains: the listener closes and
        every connection task is cancelled mid-flight, so in-flight
        requests never get their responses — exactly what a killed server
        looks like to clients.  The chaos suite uses this to prove the
        client's reconnect-and-resubmit path; production uses
        :meth:`request_shutdown`.
        """
        if self._stopped is None or self._stopped.is_set():
            return
        self._closing = True
        asyncio.get_running_loop().create_task(self._abort())

    async def _abort(self) -> None:
        if self._server is not None:
            self._server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._server is not None:
            with contextlib.suppress(Exception, asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
        # Join the scheduler thread so the process does not leak it; any
        # in-flight tick finishes, but its connection tasks are gone, so
        # no response escapes to a client.  The store is deliberately
        # NOT synced — a hard kill leaves it to the owner, and the store's
        # torn-tail recovery covers the on-disk state.
        await asyncio.get_running_loop().run_in_executor(
            None, self.scheduler.close
        )
        if self._stopped is not None:
            self._stopped.set()

    # -- request tracking ------------------------------------------------
    def _track_start(self) -> None:
        assert self._idle is not None
        self._active += 1
        self._idle.clear()

    def _track_end(self) -> None:
        assert self._idle is not None
        self._active -= 1
        if self._active == 0:
            self._idle.set()

    # -- connection handling ---------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        _M_CONNECTIONS.inc()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    if self.idle_timeout_s is not None:
                        line = await asyncio.wait_for(
                            reader.readline(), timeout=self.idle_timeout_s
                        )
                    else:
                        line = await reader.readline()
                except (asyncio.TimeoutError, TimeoutError):
                    # Idle peer: drop the connection so it cannot pin
                    # server resources (a live client just reconnects).
                    self.idle_disconnects += 1
                    _M_IDLE_DISCONNECTS.inc()
                    break
                except ConnectionError:
                    break
                except (ValueError, asyncio.LimitOverrunError):
                    # A frame beyond the stream limit: tell the client why
                    # before dropping the (now unframeable) connection.
                    self.rejected += 1
                    with contextlib.suppress(Exception):
                        writer.write(
                            protocol.encode_message(
                                protocol.error_response(
                                    None,
                                    "protocol",
                                    f"frame exceeds the "
                                    f"{protocol.MAX_LINE_BYTES}-byte limit",
                                )
                            )
                        )
                        await writer.drain()
                    break
                if not line:
                    break
                # The whole frame lifecycle counts as in-flight — including
                # writing the response — so a graceful shutdown never
                # cancels a connection between computing a result and
                # flushing it to the client.
                self._track_start()
                try:
                    response = await self._handle_frame(line)
                    writer.write(protocol.encode_message(response))
                    try:
                        await writer.drain()
                    except ConnectionError:
                        break
                finally:
                    self._track_end()
        except asyncio.CancelledError:
            pass  # shutdown cancelled the idle reader
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_frame(self, line: bytes) -> dict:
        try:
            message = protocol.decode_message(line)
        except protocol.ProtocolError as exc:
            self.rejected += 1
            _M_REJECTED.inc()
            return protocol.error_response(None, "protocol", str(exc))
        request_id = message.get("id")
        op = message.get("op")
        self.requests += 1
        _M_REQUESTS.inc()
        try:
            trace = protocol.trace_from_message(message)
        except protocol.ProtocolError as exc:
            self.rejected += 1
            _M_REJECTED.inc()
            return protocol.error_response(request_id, "protocol", str(exc))
        latency = _VERB_LATENCY.get(op)
        t0 = time.perf_counter()
        if trace is not None:
            # Adopt the caller's trace: the server-side spans (this verb,
            # the scheduler batch, pool shards, store lookups) all link
            # under the client's span.  When this server's tracer is
            # disabled the span is the null span, but the ids still ride
            # through to the scheduler — propagation is free, recording
            # is what's gated.
            span = get_tracer().span(
                f"service.{op}", trace_id=trace[0], parent_id=trace[1]
            )
            with span:
                trace_ctx = (
                    (span.trace_id, span.span_id)
                    if span is not NULL_SPAN
                    else trace
                )
                response = await self._dispatch_op(
                    op, message, request_id, trace_ctx
                )
        else:
            response = await self._dispatch_op(op, message, request_id, None)
        if latency is not None:
            latency.observe(time.perf_counter() - t0)
        if trace is not None and response.get("ok"):
            # Echo the trace id so the client can assert the round-trip.
            response["trace"] = {"id": trace[0]}
        return response

    async def _dispatch_op(
        self,
        op: object,
        message: dict,
        request_id: object,
        trace: tuple[str, str | None] | None,
    ) -> dict:
        try:
            if op == "evaluate":
                results = await self._evaluate([message.get("point")], trace)
                return protocol.ok_response(
                    request_id, evaluation=protocol.evaluation_to_wire(results[0])
                )
            if op == "evaluate_many":
                results = await self._evaluate(message.get("points"), trace)
                return protocol.ok_response(
                    request_id,
                    evaluations=[protocol.evaluation_to_wire(r) for r in results],
                )
            if op == "stats":
                return protocol.ok_response(request_id, stats=self.stats())
            if op == "health":
                # Liveness probe: answered inline — never queued behind
                # the points budget — and still answered while draining,
                # so load balancers can see a backend leaving.
                return protocol.ok_response(request_id, health=self.health())
            if op == "shutdown":
                self.request_shutdown()
                return protocol.ok_response(request_id, closing=True)
            self.rejected += 1
            _M_REJECTED.inc()
            return protocol.error_response(
                request_id, "protocol", f"unknown op {op!r}"
            )
        except protocol.ProtocolError as exc:
            self.rejected += 1
            _M_REJECTED.inc()
            return protocol.error_response(request_id, "protocol", str(exc))
        except ServiceClosedError as exc:
            self.rejected += 1
            _M_REJECTED.inc()
            return protocol.error_response(request_id, "closed", str(exc))
        except Exception as exc:  # evaluator errors reach the caller, typed
            return protocol.error_response(
                request_id, type(exc).__name__, str(exc)
            )

    async def _evaluate(
        self,
        objs: object,
        trace: tuple[str, str | None] | None = None,
    ) -> list:
        """Score a request's wire points: from the evaluator's caches when
        they hold every point, otherwise decoded and queued.

        A malformed request fails exactly as the decode would fail it,
        whatever its other points: :func:`protocol.wire_keys` accepts only
        well-formed points, and a key with an out-of-range token misses
        every cache, so such requests reach :func:`points_from_wire`.
        The read takes no budget: it runs to completion on this loop and
        holds no point across an await, so it is served even while the
        budget is full and cold requests wait on it."""
        budget = self._budget
        assert budget is not None
        keys = None if self._closing else protocol.wire_keys(objs)
        if keys:
            results = self.scheduler.read(keys, trace)
            if results is not None:
                return results
        points = protocol.points_from_wire(objs)
        if self._closing:
            raise ServiceClosedError("service is shutting down")
        await budget.acquire(len(points))
        try:
            if not points:
                return []
            try:
                # The read above missed, so queue without reading again.
                future = self.scheduler.enqueue(points, trace=trace)
            except RuntimeError as exc:  # "scheduler is closed"
                raise ServiceClosedError(str(exc)) from exc
            return await asyncio.wrap_future(future)
        finally:
            await budget.release(len(points))

    # -- health ----------------------------------------------------------
    def health(self) -> dict:
        """A cheap liveness snapshot (the ``health`` verb's payload).

        Reads a handful of counters — no evaluator, scheduler-lock or
        registry traffic — so it stays cheap under load and never queues
        behind the points budget.
        """
        return {
            "status": "closing" if self._closing else "ok",
            "closing": self._closing,
            "active": self._active,
            "inflight_points": self._budget.used if self._budget else 0,
            "queued_requests": self._budget.waiting if self._budget else 0,
            "uptime_s": (
                time.monotonic() - self._started_monotonic
                if self._started_monotonic is not None
                else 0.0
            ),
        }

    # -- stats -----------------------------------------------------------
    def stats(self) -> dict:
        """A JSON-ready snapshot of service, scheduler and evaluator state.

        v2 shape: the classic per-subsystem sections gain *live* queue
        state (scheduler ``queue_depth``/``queued_points``, the budget's
        ``queued_requests``), and a top-level ``"metrics"`` key carries the full registry
        snapshot (pure JSON data — see ``docs/OBSERVABILITY.md``).  Old
        clients ignore the new fields; ``yoso stats`` renders them.
        """
        scheduler = self.scheduler
        ticks = scheduler.ticks
        queue_depth = scheduler.queue_depth
        queued_points = scheduler.queued_points
        inflight = self._budget.used if self._budget else 0
        queued_requests = self._budget.waiting if self._budget else 0
        stats = {
            "wire_version": protocol.WIRE_VERSION,
            "service": {
                "connections": self.connections,
                "requests": self.requests,
                "rejected": self.rejected,
                "active": self._active,
                "closing": self._closing,
                "idle_disconnects": self.idle_disconnects,
                "idle_timeout_s": self.idle_timeout_s,
                "max_inflight_points": self.max_inflight_points,
                "inflight_points": inflight,
                "queued_requests": queued_requests,
                "peak_inflight_points": self._budget.peak if self._budget else 0,
            },
            "scheduler": {
                "ticks": ticks,
                "requests": scheduler.requests,
                "points_in": scheduler.points_in,
                "largest_batch": scheduler.largest_batch,
                "errors": scheduler.errors,
                "retried_batches": scheduler.retried_batches,
                "inline": scheduler.inline,
                "queue_depth": queue_depth,
                "queued_points": queued_points,
                "coalescing_ratio": (
                    scheduler.requests / ticks if ticks else None
                ),
                "tick_s": scheduler.tick_s,
            },
            "evaluator": self._evaluator_stats(),
        }
        if self.store is not None:
            stats["store"] = self.store.stats()
        # Point-in-time gauges are sampled at snapshot time (they have no
        # meaningful "increment" moments), then the registry rides along.
        registry = get_registry()
        registry.gauge("service.active").set(self._active)
        registry.gauge("service.inflight_points").set(inflight)
        registry.gauge("service.queued_requests").set(queued_requests)
        registry.gauge("scheduler.queue_depth").set(queue_depth)
        registry.gauge("scheduler.queued_points").set(queued_points)
        stats["metrics"] = registry.snapshot()
        return stats

    def _evaluator_stats(self) -> dict:
        ev = self.evaluator
        stats: dict = {"type": type(ev).__name__}
        attrs = ("hits", "misses", "hit_rate", "cache_size", "workers")
        if getattr(ev, "store", None) is not None:
            attrs += ("store_hits", "store_misses", "store_hit_rate")
        for attr in attrs:
            value = getattr(ev, attr, None)
            if value is not None:
                stats[attr] = value
        pool = getattr(ev, "pool", None)
        if pool is not None:
            stats["pool"] = {
                "batches": pool.batches,
                "items": pool.items,
            }
        return stats


# ---------------------------------------------------------------------------
# Background-thread runner (tests, notebooks, client-mode CLIs)
# ---------------------------------------------------------------------------


class ServiceHandle:
    """A :class:`SearchService` running on a dedicated background thread.

    The thread owns the event loop; :meth:`shutdown` requests the graceful
    drain from outside and joins the thread.  Use as a context manager.
    """

    def __init__(self, service: SearchService) -> None:
        self.service = service
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._main, name="search-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error

    def _main(self) -> None:
        async def body() -> None:
            await self.service.start()
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.service.serve_forever()

        try:
            asyncio.run(body())
        except BaseException as exc:  # surface bind failures to the caller
            self._error = exc
        finally:
            self._ready.set()  # never leave the constructor hanging

    @property
    def address(self) -> tuple[str, int]:
        return (self.service.host, self.service.port)

    def shutdown(self, timeout: float | None = 60.0) -> None:
        """Graceful drain + stop from any thread (idempotent)."""
        loop = self._loop
        if loop is not None and self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self.service.request_shutdown)
        self._thread.join(timeout)

    def abort(self, timeout: float | None = 30.0) -> None:
        """Hard stop from any thread (chaos hook — see
        :meth:`SearchService.request_abort`): no drain, in-flight
        requests lose their connections mid-flight."""
        loop = self._loop
        if loop is not None and self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self.service.request_abort)
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def start_service(evaluator, **kwargs) -> ServiceHandle:
    """Spin up a service on a background thread; returns once it is bound.

    Keyword arguments go to :class:`SearchService`.  The handle's
    :attr:`~ServiceHandle.address` is the live (host, port).
    """
    return ServiceHandle(SearchService(evaluator, **kwargs))
