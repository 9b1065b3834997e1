"""Lightweight request tracing: spans, trace ids, ring buffer, JSONL sink.

A *span* is one named, timed step of a request (``client.evaluate_many``,
``scheduler.batch``, ``pool.shard``, ``store.lookup``); spans carrying
the same ``trace_id`` belong to one request, and ``parent_id`` links them
into a tree.  The API is a context manager::

    with get_tracer().span("evaluator.evaluate_many", points=64) as span:
        ...
        span.set(misses=n_missing)

Propagation model (why there are three mechanisms):

* **Within a thread** — a :mod:`contextvars` variable holds the current
  ``(trace_id, span_id)``, so nested spans pick up their parent with no
  plumbing.
* **Into pool threads** — :class:`repro.parallel.pool.WorkerPool` runs
  each shard under a copy of the dispatching thread's context, so a
  ``pool.shard`` span nests under ``pool.dispatch`` exactly as an
  in-thread call would.
* **Across queues and the wire** — explicit ``(trace_id, parent_id)``
  pairs travel with the work: the NDJSON protocol carries an optional
  ``trace`` field, and :meth:`MicroBatchScheduler.evaluate` accepts a
  trace context alongside the points (one coalesced batch serves many
  requests, and its worker thread is not the loop that queued them).

Zero-cost-by-default: the tracer starts disabled, and a disabled tracer
hands out one shared no-op span (:data:`NULL_SPAN`) — no allocation, no
clock reads, no contextvar writes on the warm path.  Finished spans land
in a bounded in-memory ring (for tests and the ``yoso stats`` CLI) and,
when configured, one JSONL line per span in a sink file (``--trace-out``).
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from collections import deque
from typing import IO

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "get_tracer",
    "configure_tracing",
    "current_context",
    "new_trace_id",
    "new_span_id",
]

#: (trace_id, span_id) of the innermost active span on this thread/task.
_CURRENT: contextvars.ContextVar[tuple[str, str] | None] = contextvars.ContextVar(
    "repro_obs_span", default=None
)


def _draw_id_prefixes() -> None:
    """Draw this process's random id prefixes and restart the counter.

    Runs at import (so a spawned process draws its own) and in the child
    after a fork, which would otherwise repeat the parent's ids."""
    global _TRACE_PREFIX, _SPAN_PREFIX, _ID_COUNTER
    _TRACE_PREFIX = os.urandom(8).hex()
    _SPAN_PREFIX = os.urandom(4).hex()
    _ID_COUNTER = itertools.count()


_draw_id_prefixes()
os.register_at_fork(after_in_child=_draw_id_prefixes)


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id: the process's 16-hex random prefix
    and a 16-hex counter (``next`` on an ``itertools.count`` is atomic
    under the GIL, so threads never share an id)."""
    return f"{_TRACE_PREFIX}{next(_ID_COUNTER):016x}"


def new_span_id() -> str:
    """A fresh 16-hex-char span id: the process's 8-hex random prefix and
    the low 32 bits of the counter trace ids share."""
    return f"{_SPAN_PREFIX}{next(_ID_COUNTER) & 0xFFFFFFFF:08x}"


def current_context() -> tuple[str, str] | None:
    """The innermost active ``(trace_id, span_id)`` on this thread, if any."""
    return _CURRENT.get()


class Span:
    """One named, timed step of a request (a context manager).

    ``start_s`` is wall-clock (for cross-process ordering in sinks);
    ``duration_s`` comes from ``perf_counter`` (monotonic, so durations
    are immune to clock steps).  Extra attributes attach via constructor
    kwargs or :meth:`set` and land in :meth:`to_dict` under ``"attrs"``.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_s",
        "duration_s",
        "attrs",
        "_tracer",
        "_t0",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: str | None,
        attrs: dict,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.start_s = 0.0
        self.duration_s = 0.0
        self.attrs = attrs
        self._tracer = tracer
        self._t0 = 0.0
        self._token: contextvars.Token | None = None

    def set(self, **attrs) -> None:
        """Attach attributes to the span (merged into ``attrs``)."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict:
        """JSON-safe pure-data form (what the sink and ring hold)."""
        span = {
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }
        if self.attrs:
            span["attrs"] = dict(self.attrs)
        return span

    def __enter__(self) -> "Span":
        self.start_s = time.time()
        self._t0 = time.perf_counter()
        self._token = _CURRENT.set((self.trace_id, self.span_id))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_s = time.perf_counter() - self._t0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self._tracer._finish(self)


class _NullSpan:
    """The shared no-op span a disabled tracer hands out.

    Everything a real span exposes exists here as a constant or no-op, so
    instrumented code never branches on "is tracing on" — it just uses
    whatever span it was given.  ``trace_id is None`` is the one honest
    signal ("this request is not traced") callers may check before paying
    for propagation plumbing.
    """

    __slots__ = ()

    name = ""
    trace_id = None
    span_id = None
    parent_id = None
    start_s = 0.0
    duration_s = 0.0
    attrs: dict = {}

    def set(self, **attrs) -> None:
        pass

    def to_dict(self) -> dict:
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


#: The one shared no-op span (allocation-free disabled path).
NULL_SPAN = _NullSpan()


class Tracer:
    """Creates spans and collects the finished ones (ring + optional sink).

    Disabled (the default) it returns :data:`NULL_SPAN` from every
    :meth:`span` call and drops everything else — the instrumented warm
    path pays one attribute check.  Enabled, finished spans append to a
    bounded ring buffer (``deque(maxlen=ring_size)``) and, if a sink path
    is configured, one JSON line each to that file (opened lazily,
    line-buffered appends under the tracer lock).
    """

    def __init__(self, ring_size: int = 4096) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=ring_size)
        self._sink_path: str | None = None
        self._sink: IO[str] | None = None

    # -- configuration ---------------------------------------------------
    def configure(
        self,
        enabled: bool | None = None,
        sink_path: str | None | object = ...,
        ring_size: int | None = None,
    ) -> None:
        """Reconfigure in place (only the arguments given change).

        Setting a sink implies enabling is still explicit — a sink with
        tracing off writes nothing.  Changing ``ring_size`` re-bounds the
        ring, keeping the most recent spans.
        """
        with self._lock:
            if enabled is not None:
                self.enabled = bool(enabled)
            if sink_path is not ...:
                if self._sink is not None:
                    self._sink.close()
                    self._sink = None
                self._sink_path = sink_path  # type: ignore[assignment]
            if ring_size is not None:
                self._ring = deque(self._ring, maxlen=ring_size)

    # -- span creation ---------------------------------------------------
    def span(
        self,
        name: str,
        trace_id: str | None = None,
        parent_id: str | None = None,
        **attrs,
    ):
        """A context-manager span, or :data:`NULL_SPAN` when disabled.

        With no explicit ids the span nests under the thread's current
        span (same trace, parent = current span), or starts a fresh trace
        at the root.  Explicit ``trace_id``/``parent_id`` (from the wire
        or a cross-thread handoff) win over the ambient context.
        """
        if not self.enabled:
            return NULL_SPAN
        if trace_id is None:
            current = _CURRENT.get()
            if current is not None:
                trace_id, parent_id = current
            else:
                trace_id = new_trace_id()
        return Span(self, name, trace_id, parent_id, attrs)

    def record(
        self,
        name: str,
        trace_id: str | None,
        parent_id: str | None,
        start_s: float,
        duration_s: float,
        *,
        span_id: str | None = None,
        **attrs,
    ) -> None:
        """Emit an already-measured span (e.g. per-request queue wait,
        timed with plain floats where a context manager cannot wrap the
        interval).  ``span_id`` is the span's id when its children were
        already recorded under one drawn in advance (a fresh one
        otherwise).  No-op when disabled or the request was untraced."""
        if not self.enabled or trace_id is None:
            return
        span = {
            "name": name,
            "trace": trace_id,
            "span": span_id if span_id is not None else new_span_id(),
            "parent": parent_id,
            "start_s": start_s,
            "duration_s": duration_s,
        }
        if attrs:
            span["attrs"] = attrs
        self._emit(span)

    def record_ago(
        self,
        name: str,
        trace_id: str | None,
        parent_id: str | None,
        ago_s: float,
        *,
        span_id: str | None = None,
        **attrs,
    ) -> None:
        """Emit a span that *ended now* and lasted ``ago_s`` seconds.

        Callers measure the interval with ``perf_counter`` deltas and
        never touch the wall clock themselves — the one wall-clock read
        anchoring the span happens here, inside obs, so instrumented
        modules stay clock-free (the determinism-wallclock lint rule).
        No-op when disabled or the request was untraced."""
        if not self.enabled or trace_id is None:
            return
        self.record(
            name, trace_id, parent_id, time.time() - ago_s, ago_s,
            span_id=span_id, **attrs,
        )

    # -- collection ------------------------------------------------------
    def _finish(self, span: Span) -> None:
        if self.enabled:
            self._emit(span.to_dict())

    def _emit(self, span_dict: dict) -> None:
        with self._lock:
            self._ring.append(span_dict)
            if self._sink_path is not None:
                if self._sink is None:
                    self._sink = open(self._sink_path, "a", buffering=1)
                self._sink.write(
                    json.dumps(span_dict, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )

    def spans(self) -> list[dict]:
        """The ring buffer's contents, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        """Empty the ring buffer (the sink file is left alone)."""
        with self._lock:
            self._ring.clear()

    def close(self) -> None:
        """Flush and close the sink file, if one was opened."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None


#: The process-wide tracer (disabled until :func:`configure_tracing`).
_DEFAULT = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default :class:`Tracer`."""
    return _DEFAULT


def configure_tracing(
    enabled: bool | None = None,
    sink_path: str | None | object = ...,
    ring_size: int | None = None,
) -> Tracer:
    """Configure and return the process-wide tracer (see
    :meth:`Tracer.configure`)."""
    _DEFAULT.configure(enabled=enabled, sink_path=sink_path, ring_size=ring_size)
    return _DEFAULT
