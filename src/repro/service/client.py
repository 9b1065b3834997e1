"""Blocking client library for the search-evaluation service.

:class:`ServiceClient` is one TCP connection speaking the NDJSON wire
protocol — the thin, explicit layer (connect, evaluate, stats, health,
shutdown).  :class:`RemoteEvaluator` wraps a client in the evaluator
shape the search stack and the report harness expect (``evaluate`` /
``evaluate_many`` plus the cache-accounting properties), so a local
search loop can be pointed at a remote service with one constructor
swap — and, because the wire codec and the service's coalescing are
both value-preserving, get bit-identical results.

Resilience (the retry-safety invariant)
---------------------------------------
Every verb runs under a :class:`~repro.resilience.policy.RetryPolicy`
and an optional per-request :class:`~repro.resilience.policy.Deadline`.
On a torn connection, a timeout, or *any* framing error
(:class:`~repro.service.protocol.ProtocolError`) the client tears the
socket down — a desynchronised stream can never misattribute a stale
response to a later request — then re-dials and **resubmits the whole
request**.  Resubmission is safe and bit-identical because of two
invariants the rest of the stack maintains:

1. evaluations are *deterministic* — the same point always scores to
   the same `Evaluation` (the dedup/caching layers depend on this too);
2. the wire codec is *value-preserving* — floats survive the JSON
   round-trip exactly (repr round-trip), so a re-sent request carries
   the same bytes and a re-received response decodes to ``==`` values.

So a retried ``evaluate_many`` returns results ``==`` the fault-free
run (``tests/test_resilience.py`` pins this end to end).  Typed server
*answers* (:class:`ServiceError`) are terminal — the backend spoke, so
retrying cannot change the outcome — and a blown deadline raises a
clean :class:`~repro.resilience.policy.DeadlineExceeded`, never a hang.
"""

from __future__ import annotations

import socket
import threading
from typing import Sequence

from ..nas.encoding import CoDesignPoint
from ..obs.tracing import get_tracer
from ..resilience import faults
from ..resilience.policy import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
)
from ..search.evaluator import Evaluation
from . import protocol

__all__ = [
    "ServiceError",
    "ServiceClient",
    "RemoteEvaluator",
    "parse_endpoint",
    "DEFAULT_RETRY",
]


class ServiceError(RuntimeError):
    """The service answered with an error response.

    A typed *answer*, not a transport failure: the backend is alive and
    spoke, so retry policies treat this as terminal.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Parse ``"host:port"`` (or ``":port"`` for localhost).

    Ports must be 1–65535.  Bracketed IPv6 literals (``[::1]:8000``) are
    rejected with a clear message — the service stack is IPv4/hostname
    only for now.
    """
    host, sep, port = endpoint.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"endpoint must be 'host:port', got {endpoint!r}")
    port_num = int(port)
    if not 1 <= port_num <= 65535:
        raise ValueError(
            f"endpoint port must be in 1-65535, got {port_num} "
            f"(from {endpoint!r})"
        )
    if "[" in host or "]" in host or ":" in host:
        raise ValueError(
            f"IPv6 bracket endpoints are not supported, got {endpoint!r}; "
            f"use an IPv4 address or hostname"
        )
    return (host or "127.0.0.1", port_num)


def _default_retry() -> RetryPolicy:
    """The client's default policy: 4 attempts, short seeded backoff.

    ``ProtocolError`` is retryable *for the client* (the socket has
    already been torn down, so the retry resubmits on a fresh
    connection); typed server answers (:class:`ServiceError`) and blown
    deadlines stay terminal.
    """
    return RetryPolicy(
        max_attempts=4,
        base_delay_s=0.05,
        retryable=(ConnectionError, TimeoutError, OSError, protocol.ProtocolError),
        terminal=(DeadlineExceeded, ServiceError),
    )


#: Module-level default (one instance — the policy is immutable state
#: plus pure functions, safe to share across clients and threads).
DEFAULT_RETRY = _default_retry()


class ServiceClient:
    """One blocking NDJSON connection to a :class:`~repro.service.server.
    SearchService`.

    Requests on a connection are answered in order; a lock serialises
    concurrent callers on the same client, so sharing one client between
    threads is safe (though one connection *per* concurrent caller lets
    the server's micro-batching coalesce them into a single tick).

    ``retry`` (default :data:`DEFAULT_RETRY`) governs transparent
    reconnect-and-resubmit — pass ``RetryPolicy(max_attempts=1)`` to
    disable retries.  ``deadline_s`` is the default per-request budget
    (every verb also takes a per-call ``deadline_s``); the budget is
    consumed through connect, write and read, and raises
    :class:`DeadlineExceeded` when blown.  See the module docstring for
    why resubmission is safe and bit-identical.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 120.0,
        retry: RetryPolicy | None = None,
        deadline_s: float | None = None,
        eager: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = DEFAULT_RETRY if retry is None else retry
        self.deadline_s = deadline_s
        self._sock: socket.socket | None = None
        self._file = None
        self._dialed = False
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        #: Attempts beyond the first, summed over the client's lifetime
        #: (reconnect-and-resubmit accounting for tests and stats).
        self.retries = 0
        #: Reconnections after the initial dial.
        self.reconnects = 0
        #: Trace id of the most recent traced call (None when tracing is
        #: off or the server did not echo one) — what tests assert the
        #: wire round-trip against.
        self.last_trace_id: str | None = None
        # Eager first dial (the default): constructing a client against a
        # dead endpoint fails fast, exactly as before the resilience
        # layer.  ``eager=False`` defers the dial to the first request —
        # what a breaker-guarded caller with a fallback wants, so a
        # backend that is dead *now* does not prevent construction.
        if eager:
            self._connect(Deadline(deadline_s))

    @classmethod
    def connect(
        cls,
        endpoint: str,
        timeout: float | None = 120.0,
        retry: RetryPolicy | None = None,
        deadline_s: float | None = None,
        eager: bool = True,
    ) -> "ServiceClient":
        """Build a client from a ``host:port`` endpoint string."""
        return cls(
            *parse_endpoint(endpoint),
            timeout=timeout,
            retry=retry,
            deadline_s=deadline_s,
            eager=eager,
        )

    # -- connection lifecycle --------------------------------------------
    def _connect(self, deadline: Deadline) -> None:
        connect_timeout = deadline.timeout(self.timeout, "connect")
        sock = socket.create_connection(
            (self.host, self.port), timeout=connect_timeout
        )
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._dialed = True

    def _teardown(self) -> None:
        """Best-effort close of a (possibly half-dead) connection."""
        file, sock = self._file, self._sock
        self._file = None
        self._sock = None
        if file is not None:
            try:
                file.close()
            except OSError:
                pass
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _ensure_connection(self, deadline: Deadline) -> None:
        if self._closed:
            raise ValueError("client is closed")
        if self._sock is None:
            # A deferred (``eager=False``) first dial is not a reconnect.
            was_dialed = self._dialed
            self._connect(deadline)
            if was_dialed:
                self.reconnects += 1

    # -- request plumbing ------------------------------------------------
    def _call(self, op: str, deadline_s: float | None = None, **payload) -> dict:
        # With tracing enabled, every call gets a client-side span and
        # ships its ids in the optional "trace" field — the server links
        # its spans under ours and echoes the trace id back.  Disabled
        # (default), the message is byte-identical to the pre-trace wire.
        deadline = Deadline(
            self.deadline_s if deadline_s is None else deadline_s
        )
        span = get_tracer().span(f"client.{op}")
        attempts = [0]

        def one_attempt(attempt: int) -> dict:
            attempts[0] = attempt
            return self._attempt(op, payload, span, deadline)

        def note_retry(exc: BaseException, attempt: int, delay: float) -> None:
            self.retries += 1

        with span:
            with self._lock:
                # yoso-lint: disable=lock-discipline -- the lock serialises the
                # whole request/response exchange (including reconnect + backoff)
                # on this one connection; concurrent callers must wait for the
                # socket anyway, and nothing else is ever taken under it.
                result = self.retry.run(
                    one_attempt, deadline=deadline, on_retry=note_retry
                )
            if attempts[0] > 1 and span.trace_id is not None:
                span.set(attempts=attempts[0])
            return result

    def _attempt(self, op: str, payload: dict, span, deadline: Deadline) -> dict:
        """One request/response exchange (fresh id; retried whole)."""
        deadline.check(f"{op} request")
        self._ensure_connection(deadline)
        self._next_id += 1
        request_id = self._next_id
        message = {
            "v": protocol.WIRE_VERSION,
            "id": request_id,
            "op": op,
            **payload,
        }
        if span.trace_id is not None:
            message["trace"] = {"id": span.trace_id, "span": span.span_id}
        try:
            self._sock.settimeout(deadline.timeout(self.timeout, f"{op} write"))
            faults.hit("wire.write")
            self._file.write(protocol.encode_message(message))
            self._file.flush()
            self._sock.settimeout(deadline.timeout(self.timeout, f"{op} read"))
            faults.hit("wire.read")
            line = self._file.readline(protocol.MAX_LINE_BYTES + 1)
        except DeadlineExceeded:
            self._teardown()
            raise
        except TimeoutError as exc:
            # The socket timed out.  If the *deadline* is what expired,
            # surface the typed budget error; otherwise it's an ordinary
            # transient timeout and the policy may retry it.
            self._teardown()
            if deadline.expired:
                deadline.check(f"{op} request")  # raises DeadlineExceeded
            raise TimeoutError(f"{op} timed out on the wire") from exc
        except (ConnectionError, OSError):
            self._teardown()
            raise
        if not line:
            self._teardown()
            raise ConnectionError("service closed the connection")
        try:
            response = protocol.decode_message(line)
            if not response.get("ok"):
                error = response.get("error") or {}
                raise ServiceError(
                    error.get("type", "unknown"), error.get("message", "")
                )
            if response.get("id") != request_id:
                raise protocol.ProtocolError(
                    f"response id {response.get('id')!r} does not match "
                    f"request id {request_id!r}"
                )
            if span.trace_id is not None:
                echoed = response.get("trace")
                self.last_trace_id = (
                    echoed.get("id") if isinstance(echoed, dict) else None
                )
                if (
                    self.last_trace_id is not None
                    and self.last_trace_id != span.trace_id
                ):
                    raise protocol.ProtocolError(
                        f"response trace id {self.last_trace_id!r} does not "
                        f"match request trace id {span.trace_id!r}"
                    )
        except protocol.ProtocolError:
            # A framing error means the stream position is unknowable:
            # tear the connection down so a later call can never read
            # this request's stale bytes (desync regression).
            self._teardown()
            raise
        return response

    # -- verbs -----------------------------------------------------------
    def evaluate_many(
        self,
        points: Sequence[CoDesignPoint],
        deadline_s: float | None = None,
    ) -> list[Evaluation]:
        """Score a batch remotely; one Evaluation per point, input order."""
        response = self._call(
            "evaluate_many",
            deadline_s=deadline_s,
            points=[protocol.point_to_wire(p) for p in points],
        )
        return [
            protocol.evaluation_from_wire(obj)
            for obj in response["evaluations"]
        ]

    def evaluate(
        self, point: CoDesignPoint, deadline_s: float | None = None
    ) -> Evaluation:
        response = self._call(
            "evaluate",
            deadline_s=deadline_s,
            point=protocol.point_to_wire(point),
        )
        return protocol.evaluation_from_wire(response["evaluation"])

    def stats(self, deadline_s: float | None = None) -> dict:
        """The server's service/scheduler/evaluator counters."""
        return self._call("stats", deadline_s=deadline_s)["stats"]

    def health(self, deadline_s: float | None = None) -> dict:
        """Liveness probe — answered immediately, never queued behind the
        points budget, and still answered while the service drains."""
        return self._call("health", deadline_s=deadline_s)["health"]

    def shutdown(self, deadline_s: float | None = None) -> dict:
        """Ask the service to drain and stop (returns the ack)."""
        return self._call("shutdown", deadline_s=deadline_s)

    def close(self) -> None:
        """Best-effort, idempotent close (safe on a half-closed socket)."""
        self._closed = True
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RemoteEvaluator:
    """Evaluator-shaped adapter over a :class:`ServiceClient`.

    Drop-in for a :class:`~repro.search.evaluator.BatchEvaluator` where a
    search loop or the report harness only needs ``evaluate`` /
    ``evaluate_many`` and the cache-accounting reads (:meth:`counters`
    for ``(hits, misses)`` and :attr:`cache_size`): calls go over the
    wire, accounting reads come from the service's ``stats`` verb (they
    describe the *server-side* evaluator, which is where the caches
    live).  :meth:`metrics` and :meth:`service_stats` expose the rest of
    the remote snapshot.

    Graceful degradation: pass ``fallback`` (any local evaluator with
    the same ``evaluate`` / ``evaluate_many`` shape) and scoring calls
    survive a dead backend — transport failures trip a
    :class:`~repro.resilience.policy.CircuitBreaker` (injectable via
    ``breaker``), an open breaker routes calls to the fallback without
    touching the wire, and half-open probes periodically re-try the
    remote to return to it.  Because evaluations are deterministic,
    fallback results are ``==`` remote results — degradation changes
    latency and cache locality, never values.  Typed server answers
    (:class:`ServiceError`) never trip the breaker or fall back: the
    backend is alive and its answer (e.g. a validation error) stands.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float | None = 600.0,
        retry: RetryPolicy | None = None,
        deadline_s: float | None = None,
        fallback=None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.endpoint = endpoint
        # With a fallback the first dial is deferred to the first call:
        # a backend that is dead at construction time must not prevent
        # the degraded path from ever starting (the dial failure then
        # trips the breaker like any other transport failure).
        self.client = ServiceClient.connect(
            endpoint, timeout=timeout, retry=retry, deadline_s=deadline_s,
            eager=fallback is None,
        )
        self.fallback = fallback
        self.breaker = breaker if breaker is not None else (
            CircuitBreaker() if fallback is not None else None
        )
        #: Scoring calls served by the local fallback evaluator.
        self.fallback_calls = 0

    # -- scoring ---------------------------------------------------------
    def _score(self, remote_fn, local_fn):
        """Run a scoring call with breaker-guarded fallback routing."""
        if self.fallback is None:
            return remote_fn()
        if not self.breaker.allow():
            self.fallback_calls += 1
            return local_fn()
        try:
            result = remote_fn()
        except ServiceError:
            raise  # the backend answered; its answer stands
        except (ConnectionError, TimeoutError, OSError, protocol.ProtocolError):
            self.breaker.record_failure()
            self.fallback_calls += 1
            return local_fn()
        self.breaker.record_success()
        return result

    def evaluate(self, point: CoDesignPoint) -> Evaluation:
        return self._score(
            lambda: self.client.evaluate(point),
            lambda: self.fallback.evaluate(point),
        )

    def evaluate_many(
        self, points: Sequence[CoDesignPoint]
    ) -> list[Evaluation]:
        return self._score(
            lambda: self.client.evaluate_many(points),
            lambda: list(self.fallback.evaluate_many(points)),
        )

    # -- accounting (server-side evaluator state) ------------------------
    def _stats(self) -> dict | None:
        """One remote stats snapshot, breaker-guarded like a scoring call.

        Returns ``None`` when a fallback exists and the backend is
        unavailable (breaker open, or the round-trip failed) — degraded
        mode, where accounting reads describe the fallback evaluator
        that actually served the calls.  Without a fallback this is a
        plain ``stats`` round-trip and transport errors propagate.
        """
        if self.fallback is None:
            return self.client.stats()
        if not self.breaker.allow():
            return None
        try:
            snapshot = self.client.stats()
        except ServiceError:
            raise  # the backend answered; its answer stands
        except (ConnectionError, TimeoutError, OSError, protocol.ProtocolError):
            self.breaker.record_failure()
            return None
        self.breaker.record_success()
        return snapshot

    def counters(self) -> tuple[int, int]:
        """(hits, misses) from ONE stats snapshot, so deltas are
        consistent even while a busy shared service moves."""
        snapshot = self._stats()
        if snapshot is None:
            return (
                getattr(self.fallback, "hits", 0),
                getattr(self.fallback, "misses", 0),
            )
        stats = snapshot["evaluator"]
        return stats.get("hits", 0), stats.get("misses", 0)

    @property
    def cache_size(self) -> int:
        snapshot = self._stats()
        if snapshot is None:
            return getattr(self.fallback, "cache_size", 0)
        return snapshot["evaluator"].get("cache_size", 0)

    # -- live service state (stats v2 fields) ----------------------------
    def metrics(self) -> dict:
        """The remote registry snapshot (the stats verb's ``metrics`` key;
        empty dict from a pre-v2 server).  Degraded mode (fallback set,
        backend unavailable) answers the *local* registry snapshot —
        that is where the fallback's work was accounted."""
        snapshot = self._stats()
        if snapshot is None:
            from ..obs import get_registry

            return get_registry().snapshot()
        return snapshot.get("metrics", {})

    def service_stats(self) -> dict:
        """The full remote stats snapshot (service + scheduler + evaluator)."""
        return self.client.stats()

    def resilience_stats(self) -> dict:
        """Client-side resilience accounting (retries, breaker, fallback)."""
        return {
            "retries": self.client.retries,
            "reconnects": self.client.reconnects,
            "fallback_calls": self.fallback_calls,
            "breaker": self.breaker.stats() if self.breaker else None,
        }

    def close(self) -> None:
        """Best-effort, idempotent close (delegates to the client)."""
        self.client.close()

    def __enter__(self) -> "RemoteEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
