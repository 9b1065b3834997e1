"""Long-lived search-evaluation service over the parallel engine.

The offline co-design loop already had a thread-sharded evaluator; this
package puts it behind a long-lived endpoint, with a micro-batching
scheduler on the server's event loop that coalesces concurrent clients'
cold requests into one sharded batch:

* :mod:`repro.service.protocol` — the versioned NDJSON wire codec:
  co-design points travel as their canonical 44-token encoding,
  evaluations as their three floats, both round-tripping exactly (the
  service's parity guarantee is ``==``, not a tolerance).
* :mod:`repro.service.server` — :class:`SearchService`: an asyncio TCP
  server owning ONE persistent evaluator behind a
  :class:`~repro.parallel.scheduler.MicroBatchScheduler` on its loop
  (warm requests are read from the caches on the loop; cold batches run
  on the scheduler's one worker thread), with verbs
  ``evaluate`` / ``evaluate_many`` / ``stats`` / ``health`` /
  ``shutdown``, a bounded in-flight points budget for backpressure
  (:class:`PointsBudget`), per-connection idle timeouts, and a graceful
  shutdown that drains every queued request.  :func:`start_service`
  runs one on a background thread.
* :mod:`repro.service.client` — :class:`ServiceClient` (one blocking
  NDJSON connection with transparent reconnect-and-resubmit under a
  :class:`~repro.resilience.policy.RetryPolicy` and per-request
  deadlines) and :class:`RemoteEvaluator` (the evaluator-shaped adapter
  that lets a local search loop or the report harness score against a
  remote service unchanged, with optional circuit-breaker fallback to a
  local evaluator — see docs/RESILIENCE.md).

Serve with ``yoso serve --scale demo --workers 4 --port 7777``; point
the report at it with ``python -m repro.experiments.report --endpoint
127.0.0.1:7777``.  See docs/PERFORMANCE.md ("Service model") for the
coalescing-window/latency trade-off and the backpressure semantics.
"""

from .client import RemoteEvaluator, ServiceClient, ServiceError, parse_endpoint
from .protocol import (
    WIRE_VERSION,
    ProtocolError,
    evaluation_from_wire,
    evaluation_to_wire,
    point_from_wire,
    point_to_wire,
)
from .server import (
    PointsBudget,
    SearchService,
    ServiceClosedError,
    ServiceHandle,
    start_service,
)

__all__ = [
    "WIRE_VERSION",
    "ProtocolError",
    "point_to_wire",
    "point_from_wire",
    "evaluation_to_wire",
    "evaluation_from_wire",
    "SearchService",
    "ServiceClosedError",
    "ServiceHandle",
    "start_service",
    "PointsBudget",
    "ServiceClient",
    "RemoteEvaluator",
    "ServiceError",
    "parse_endpoint",
]
