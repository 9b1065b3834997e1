"""Server child of the ``serve_warm`` workload.

Builds the same seeded context as the benchmark process, warms an
in-process evaluator's LRU over the seeded 64-point population, serves it
with :func:`repro.service.start_service` and prints ``LISTENING <port>``.
It then reads commands from stdin: ``trace 1`` / ``trace 0`` switch span
recording on and off, ``stop`` shuts the service down.  On exit it prints
one JSON line: its peak memory and, when traced, the per-layer self times
and the scheduler, service and evaluator figures from its spans.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import sys

from repro.obs import configure_tracing, get_tracer
from repro.parallel import create_evaluator
from repro.service import start_service

from layers import Recorder, quantile
from workload import (
    build_context,
    evaluator_lookups,
    peak_rss_mb,
    population_points,
    setup_layers,
)


def span_report(spans: list[dict]) -> dict:
    """Scheduler and service figures from the repro tracer's spans."""
    waits = [s["duration_s"] for s in spans if s["name"] == "scheduler.queue_wait"]
    batches = [s.get("attrs", {}) for s in spans if s["name"] == "scheduler.batch"]
    served = {s["trace"]: s["duration_s"] for s in spans if s["name"] == "service.evaluate_many"}
    requests = sum(b.get("requests", 0) for b in batches)
    return {
        "parallel.scheduler.queue_wait_p50_ms": 1000.0 * quantile(waits, 0.5) if waits else 0.0,
        "parallel.scheduler.queue_wait_p99_ms": 1000.0 * quantile(waits, 0.99) if waits else 0.0,
        "parallel.scheduler.coalescing_ratio": requests / len(batches) if batches else 0.0,
        "parallel.scheduler.batch_points_p50": (
            statistics.median(b.get("points", 0) for b in batches) if batches else 0.0
        ),
        "service.server.request_p50_ms": (
            1000.0 * statistics.median(served.values()) if served else 0.0
        ),
        "server_s": served,
        "evaluator": evaluator_lookups(spans),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    recorder = Recorder()
    if args.trace:
        recorder.install()
        recorder.active = True
        configure_tracing(ring_size=200_000)
    ctx = build_context(args.seed)
    evaluator = create_evaluator(ctx.fast, workers=1)
    evaluator.evaluate_many(population_points(args.seed))
    recorder.active = False
    setup = setup_layers(recorder)
    recorder.reset()
    handle = start_service(evaluator)
    print(f"LISTENING {handle.address[1]}", flush=True)
    for line in sys.stdin:
        command = line.split()
        if command == ["stop"]:
            break
        if command[:1] == ["trace"] and args.trace:
            on = command[1] == "1"
            recorder.active = on
            configure_tracing(enabled=on)
    handle.shutdown()
    recorder.active = False
    configure_tracing(enabled=False)
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "service.rejected": handle.service.rejected,
        "retried_batches": handle.service.scheduler.retried_batches,
    }
    if args.trace:
        recorder.uninstall()
        report["setup_layers"] = setup
        report["self_times"] = recorder.self_times()
        report["counts"] = recorder.counts
        report.update(span_report(get_tracer().spans()))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
