"""Process-wide metrics registry: named counters, gauges and histograms.

The observability substrate every subsystem reports into — the scheduler,
worker pools, evaluators, the durable store and the service all register
metrics here under per-subsystem namespaces (``"scheduler.ticks"``,
``"pool.items"``, ``"service.latency_s.evaluate_many"``, ...).  One
process-wide default registry (:func:`get_registry`) keeps the hot paths
trivial: a subsystem fetches its metric objects once at import time and
then increments them with no name lookups.

Design constraints (and why):

* **Thread-safe.**  Metrics are updated from the asyncio loop, the
  scheduler's worker thread, search threads and pool-harvest code paths
  at once; every mutation holds the metric's lock (a plain
  ``threading.Lock`` — the critical sections are a handful of float ops).
* **Bounded, fixed histogram buckets.**  Latency histograms use a fixed
  log-spaced boundary ladder (:data:`LATENCY_BUCKETS_S`, parsed from
  decimal literals so every process on every platform builds bit-equal
  boundaries).  Fixed buckets make snapshots deterministic in *shape*,
  so two snapshots compare bucket for bucket.
* **Snapshots are pure data.**  :meth:`MetricsRegistry.snapshot` returns
  plain dicts/lists/floats — JSON-safe, and floats survive the wire
  bit-exactly under the repo's repr-round-trip discipline (``json``
  serialises floats with ``repr``), so the service ``stats`` verb can
  ship a snapshot without a codec.
* **Zero-cost-by-default.**  Metric updates never change computed
  results (they only count and time), and the whole registry has a kill
  switch (:meth:`MetricsRegistry.set_enabled`) under which every update
  is a single attribute check — what ``benchmarks/test_obs_bench.py``
  uses to print the instrumented-vs-uninstrumented overhead ratio.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Iterable, Mapping

__all__ = [
    "LATENCY_BUCKETS_S",
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "histogram_quantile",
]

#: Fixed log-spaced latency boundaries (seconds): three per decade from
#: 1 microsecond to 100 seconds.  Parsed from decimal literals — not
#: computed with ``10 ** x`` — so every process builds bit-equal
#: boundaries regardless of platform ``libm``.
LATENCY_BUCKETS_S: tuple[float, ...] = tuple(
    float(f"{mantissa}e{exponent}")
    for exponent in range(-6, 2)
    for mantissa in ("1", "2.15", "4.64")
) + (100.0,)

#: Power-of-two boundaries for size-ish histograms (batch points, shard
#: items): 1, 2, 4, ... 4096 — the service's default ``--max-inflight``
#: budget, which also bounds one coalesced scheduler batch.
COUNT_BUCKETS: tuple[float, ...] = tuple(float(2**k) for k in range(13))


class Counter:
    """A monotonically increasing named count (thread-safe)."""

    __slots__ = ("name", "_lock", "_value", "_enabled_ref")

    def __init__(self, name: str, enabled_ref: list[bool]) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0
        self._enabled_ref = enabled_ref

    def inc(self, n: int = 1) -> None:
        if not self._enabled_ref[0]:
            return
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A point-in-time named value (thread-safe; last write wins)."""

    __slots__ = ("name", "_lock", "_value", "_enabled_ref")

    def __init__(self, name: str, enabled_ref: list[bool]) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0
        self._enabled_ref = enabled_ref

    def set(self, value: float) -> None:
        if not self._enabled_ref[0]:
            return
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Bounded-bucket distribution of observed values (thread-safe).

    ``buckets`` are fixed upper boundaries (``value <= le`` lands in the
    first matching bucket); values beyond the last boundary count in the
    overflow bucket, so memory is bounded no matter what is observed.
    ``sum``/``min``/``max`` are tracked exactly alongside the counts.
    """

    __slots__ = (
        "name",
        "_lock",
        "_boundaries",
        "_counts",
        "_overflow",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_enabled_ref",
    )

    def __init__(
        self,
        name: str,
        enabled_ref: list[bool],
        buckets: Iterable[float] = LATENCY_BUCKETS_S,
    ) -> None:
        boundaries = tuple(float(b) for b in buckets)
        if not boundaries or list(boundaries) != sorted(set(boundaries)):
            raise ValueError("buckets must be a non-empty increasing sequence")
        self.name = name
        self._lock = threading.Lock()
        self._boundaries = boundaries
        self._counts = [0] * len(boundaries)
        self._overflow = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._enabled_ref = enabled_ref

    @property
    def boundaries(self) -> tuple[float, ...]:
        return self._boundaries

    def observe(self, value: float) -> None:
        if not self._enabled_ref[0]:
            return
        value = float(value)
        index = bisect_left(self._boundaries, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            else:
                self._overflow += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    def snapshot(self) -> dict:
        """Pure-data state: count/sum/min/max plus sparse bucket counts."""
        with self._lock:
            buckets = [
                [le, count]
                for le, count in zip(self._boundaries, self._counts)
                if count
            ]
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "buckets": buckets,
                "overflow": self._overflow,
            }

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self._boundaries)
            self._overflow = 0
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf


class MetricsRegistry:
    """Named metric objects with get-or-create semantics and one snapshot.

    Metric names are dotted ``"subsystem.metric"`` strings; registering
    the same name twice returns the same object (so module-level handles
    and ad-hoc lookups share state), and registering a name as two
    different metric kinds is an error rather than a silent shadow.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        # A one-element list so every metric shares the flag by reference
        # (flipping it flips the whole registry without touching metrics).
        self._enabled = [True]

    # -- enable/disable --------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled[0]

    def set_enabled(self, enabled: bool) -> None:
        """Registry kill switch: when off, every update is a no-op (one
        attribute check on the hot path) and values freeze in place."""
        self._enabled[0] = bool(enabled)

    # -- registration ----------------------------------------------------
    def _get_or_create(self, name: str, kind, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} is already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(
            name, Counter, lambda: Counter(name, self._enabled)
        )

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name, self._enabled))

    def histogram(
        self, name: str, buckets: Iterable[float] = LATENCY_BUCKETS_S
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, self._enabled, buckets)
        )

    # -- snapshot / reset ------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe pure-data state of every registered metric.

        Keys are sorted so two snapshots of identical state serialise to
        identical bytes; floats are plain Python floats (``json`` writes
        them with ``repr``, the repo's wire-exact discipline).
        """
        with self._lock:
            metrics = sorted(self._metrics.items())
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name, metric in metrics:
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Zero every metric *in place* (objects and handles stay valid).

        Test/tooling hook — production code never resets; counters are
        lifetime-monotonic by contract.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric._reset()


def histogram_quantile(hist: Mapping, q: float) -> float | None:
    """Upper-bound estimate of the ``q``-quantile from a histogram snapshot.

    Returns the smallest bucket boundary whose cumulative count reaches
    ``q * count`` (the classic bucketed-quantile read), the recorded max
    for observations beyond the last boundary, or ``None`` when empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    count = hist.get("count", 0)
    if not count:
        return None
    target = q * count
    cumulative = 0
    for le, bucket_count in hist.get("buckets", []):
        cumulative += bucket_count
        if cumulative >= target:
            return float(le)
    return hist.get("max")


#: The process-wide default registry every subsystem reports into.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _DEFAULT
