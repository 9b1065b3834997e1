"""Tests for the observability layer (``repro.obs``).

Three tiers:

* unit tests for the metrics registry (bucket determinism, snapshot
  purity, merge semantics, the kill switch) and the tracer (null-span
  contract, parent nesting, ring bound, JSONL sink) on *fresh* instances,
  so nothing here depends on — or pollutes — the process-wide defaults;
* subsystem probes: live scheduler queue depth in synchronous mode and
  the store lookup span;
* service integration: the stats verb's registry snapshot stays monotone
  under 8 concurrent clients with histogram counts matching request
  counts, and a traced request round-trips one trace id from the client
  span through the wire to the scheduler's spans.

The process-wide registry is shared across the whole test session, so the
integration tests assert on *deltas* between snapshots, never absolutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.accel.config import random_config
from repro.nas.encoding import CoDesignPoint
from repro.nas.space import DnnSpace
from repro.obs import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_S,
    NULL_SPAN,
    MetricsRegistry,
    Tracer,
    configure_tracing,
    cpu_budget,
    current_context,
    get_registry,
    get_tracer,
    histogram_quantile,
    new_span_id,
    new_trace_id,
    render_metrics,
    render_stats,
)
from repro.parallel import MicroBatchScheduler
from repro.search.evaluator import BatchEvaluator
from repro.service import ServiceClient, start_service
from repro.store import ResultStore


def _population(n: int, seed: int) -> list[CoDesignPoint]:
    rng = np.random.default_rng(seed)
    space = DnnSpace()
    return [
        CoDesignPoint(genotype=space.sample(rng), config=random_config(rng))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        c = registry.counter("sub.events")
        c.inc()
        c.inc(4)
        assert c.value == 5

        g = registry.gauge("sub.level")
        g.set(2)
        g.set(7.5)
        assert g.value == 7.5

        h = registry.histogram("sub.latency_s")
        for v in (2e-6, 3e-4, 0.05):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(2e-6 + 3e-4 + 0.05)
        assert snap["min"] == 2e-6
        assert snap["max"] == 0.05
        assert sum(n for _, n in snap["buckets"]) == 3

    def test_get_or_create_shares_objects_and_rejects_kind_clash(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        with pytest.raises(TypeError):
            registry.gauge("a.b")
        with pytest.raises(TypeError):
            registry.histogram("a.b")

    def test_bucket_ladders_are_fixed_and_deterministic(self):
        # Three per decade, 1 us .. 100 s: deterministic *values*, not
        # just shape — built from decimal literals, so a snapshot merged
        # across processes lines up bucket for bucket.
        assert len(LATENCY_BUCKETS_S) == 25
        assert LATENCY_BUCKETS_S[0] == 1e-6
        assert LATENCY_BUCKETS_S[-1] == 100.0
        assert list(LATENCY_BUCKETS_S) == sorted(set(LATENCY_BUCKETS_S))
        assert COUNT_BUCKETS == tuple(float(2**k) for k in range(13))

    def test_histogram_boundary_placement_and_overflow(self):
        registry = MetricsRegistry()
        h = registry.histogram("x.h", buckets=(1.0, 2.0, 4.0))
        h.observe(2.0)  # on-boundary lands in its own bucket (value <= le)
        h.observe(3.0)
        h.observe(99.0)  # beyond the last boundary -> overflow
        snap = h.snapshot()
        assert snap["buckets"] == [[2.0, 1], [4.0, 1]]
        assert snap["overflow"] == 1
        assert snap["count"] == 3
        assert histogram_quantile(snap, 1.0) == 99.0  # overflow -> max

    def test_snapshot_is_pure_json(self):
        registry = MetricsRegistry()
        registry.counter("s.c").inc(3)
        registry.gauge("s.g").set(1.25)
        registry.histogram("s.h").observe(0.01)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap, sort_keys=True)) == snap
        # Empty histograms report null min/max, never +-inf (not JSON).
        registry.histogram("s.empty")
        empty = registry.snapshot()["histograms"]["s.empty"]
        assert empty["min"] is None and empty["max"] is None

    def test_histogram_quantile(self):
        registry = MetricsRegistry()
        h = registry.histogram("q.h", buckets=(1.0, 2.0, 4.0))
        assert histogram_quantile(h.snapshot(), 0.5) is None  # empty
        for v in (0.5, 0.6, 0.7, 3.0):
            h.observe(v)
        snap = h.snapshot()
        assert histogram_quantile(snap, 0.5) == 1.0
        assert histogram_quantile(snap, 1.0) == 4.0
        with pytest.raises(ValueError):
            histogram_quantile(snap, 1.5)

    def test_kill_switch_freezes_all_metrics(self):
        registry = MetricsRegistry()
        c, g = registry.counter("k.c"), registry.gauge("k.g")
        h = registry.histogram("k.h")
        c.inc()
        g.set(3.0)
        h.observe(0.1)
        registry.set_enabled(False)
        assert not registry.enabled
        c.inc(100)
        g.set(99.0)
        h.observe(5.0)
        assert c.value == 1 and g.value == 3.0 and h.count == 1
        registry.set_enabled(True)
        c.inc()
        assert c.value == 2

    def test_reset_zeroes_in_place_so_handles_stay_valid(self):
        registry = MetricsRegistry()
        c = registry.counter("r.c")
        h = registry.histogram("r.h")
        c.inc(5)
        h.observe(1.0)
        registry.reset()
        assert c.value == 0 and h.count == 0
        c.inc()  # the pre-reset handle still feeds the registry
        assert registry.snapshot()["counters"]["r.c"] == 1

    def test_cpu_budget_counts_usable_cpus(self):
        assert 1 <= cpu_budget() <= (os.cpu_count() or 1)

    def test_render_metrics_is_total(self):
        registry = MetricsRegistry()
        registry.counter("svc.requests").inc(3)
        registry.gauge("svc.active").set(1)
        registry.histogram("svc.latency_s.evaluate").observe(0.002)
        text = render_metrics(registry.snapshot())
        assert "svc.requests" in text and "svc.latency_s.evaluate" in text


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_tracer_hands_out_the_null_span(self):
        tracer = Tracer()
        span = tracer.span("anything", points=3)
        assert span is NULL_SPAN
        assert span.trace_id is None
        with span as s:  # the null span is a working no-op context manager
            s.set(ignored=True)
        tracer.record("x", "tid", None, 0.0, 0.1)  # no-op while disabled
        assert tracer.spans() == []

    def test_nested_spans_share_the_trace_and_link_parents(self):
        tracer = Tracer()
        tracer.configure(enabled=True)
        assert current_context() is None
        with tracer.span("outer") as outer:
            assert current_context() == (outer.trace_id, outer.span_id)
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        assert current_context() is None
        names = [s["name"] for s in tracer.spans()]
        assert names == ["inner", "outer"]  # finish order

    def test_explicit_ids_beat_ambient_context(self):
        tracer = Tracer()
        tracer.configure(enabled=True)
        with tracer.span("ambient"):
            span = tracer.span("wired", trace_id="t" * 32, parent_id="p" * 16)
            with span:
                pass
        wired = next(s for s in tracer.spans() if s["name"] == "wired")
        assert wired["trace"] == "t" * 32
        assert wired["parent"] == "p" * 16

    def test_record_feeds_the_ring(self):
        tracer = Tracer()
        tracer.configure(enabled=True)
        tracer.record("queue_wait", "t" * 32, "p" * 16, 123.0, 0.004, points=7)
        (span,) = tracer.spans()
        assert span["name"] == "queue_wait"
        assert span["start_s"] == 123.0
        assert span["duration_s"] == 0.004
        assert span["attrs"] == {"points": 7}
        # Untraced work never records pre-measured spans.
        tracer.record("queue_wait", None, None, 0.0, 0.1)
        assert len(tracer.spans()) == 1

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(ring_size=4)
        tracer.configure(enabled=True)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        names = [s["name"] for s in tracer.spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_record_ago_anchors_a_span_ending_now(self):
        tracer = Tracer()
        tracer.configure(enabled=True)
        # yoso-lint: disable=determinism-wallclock -- bounding the wall anchor obs emits
        before = time.time()
        tracer.record_ago("queue_wait", "t" * 32, "p" * 16, 0.25, points=3)
        after = time.time()  # yoso-lint: disable=determinism-wallclock -- same bound
        (span,) = tracer.spans()
        assert span["duration_s"] == 0.25
        # start + duration == "now": the wall anchor is supplied by obs,
        # so callers never read the clock themselves.
        assert before - 0.25 <= span["start_s"] <= after - 0.25
        assert span["attrs"] == {"points": 3}
        # Disabled tracer / untraced request: no-op.
        tracer.record_ago("queue_wait", None, None, 0.1)
        assert len(tracer.spans()) == 1
        tracer.configure(enabled=False)
        tracer.record_ago("queue_wait", "t" * 32, None, 0.1)
        assert len(tracer.spans()) == 1

    def test_jsonl_sink_writes_one_line_per_span(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer()
        tracer.configure(enabled=True, sink_path=str(sink))
        with tracer.span("a", points=1):
            with tracer.span("b"):
                pass
        tracer.close()
        lines = sink.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert [p["name"] for p in parsed] == ["b", "a"]
        assert parsed[0]["trace"] == parsed[1]["trace"]
        assert parsed[0]["parent"] == parsed[1]["span"]

    def test_exception_marks_the_span_and_propagates(self):
        tracer = Tracer()
        tracer.configure(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (span,) = tracer.spans()
        assert span["attrs"]["error"] == "RuntimeError"
        assert current_context() is None  # context restored on the way out


class TestSpanIds:
    """Span and trace ids are a per-process random prefix plus a counter:
    fixed hex lengths, unique across threads and across processes."""

    @staticmethod
    def _hex(ident: str, length: int) -> bool:
        return len(ident) == length and int(ident, 16) >= 0

    def test_lengths_and_uniqueness_across_threads(self):
        per_thread = 5000
        drawn: list[list[str]] = [[] for _ in range(4)]
        gate = threading.Barrier(len(drawn))

        def draw(j: int) -> None:
            gate.wait(30.0)
            for i in range(per_thread):
                drawn[j].append(new_span_id() if i % 2 else new_trace_id())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=draw, args=(j,)) for j in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        ids = [ident for ids in drawn for ident in ids]
        assert len(set(ids)) == len(ids) == 4 * per_thread
        assert all(
            self._hex(ident, 16 if i % 2 else 32)
            for ids in drawn
            for i, ident in enumerate(ids)
        )

    def test_a_spawned_process_draws_its_own_ids(self):
        code = (
            "from repro.obs import new_span_id, new_trace_id\n"
            "print(*(new_trace_id() for _ in range(100)))\n"
            "print(*(new_span_id() for _ in range(100)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout.split("\n")
        theirs = set(out[0].split()) | set(out[1].split())
        ours = {new_trace_id() for _ in range(100)} | {
            new_span_id() for _ in range(100)
        }
        assert len(theirs) == 200 and not theirs & ours

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_redraws_the_prefix(self):
        # Forked from a fresh single-threaded interpreter, not from this
        # test process, whose other threads make fork unsafe.
        code = (
            "import os\n"
            "from repro.obs import new_span_id, new_trace_id\n"
            "read_end, write_end = os.pipe()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os.write(write_end, f'{new_trace_id()} {new_span_id()}'.encode())\n"
            "    os._exit(0)\n"
            "os.close(write_end)\n"
            "child = os.read(read_end, 256).decode()\n"
            "os.waitpid(pid, 0)\n"
            "print(child, new_trace_id(), new_span_id())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
        child_trace, child_span, trace, span = out.split()
        assert child_trace[:16] != trace[:16]
        assert child_span[:8] != span[:8]


# ---------------------------------------------------------------------------
# Subsystem probes
# ---------------------------------------------------------------------------


class _EchoEvaluator:
    def evaluate_many(self, points):
        return [None] * len(points)


class TestSchedulerDepth:
    def test_queue_depth_and_queued_points_in_sync_mode(self):
        scheduler = MicroBatchScheduler(_EchoEvaluator(), auto_start=False)
        assert scheduler.queue_depth == 0
        assert scheduler.queued_points == 0
        f1 = scheduler.submit([1, 2, 3])
        f2 = scheduler.submit([4, 5])
        assert scheduler.queue_depth == 2
        assert scheduler.queued_points == 5
        served = scheduler.flush()
        assert served == 2
        assert scheduler.queue_depth == 0
        assert scheduler.queued_points == 0
        assert f1.result(1.0) == [None, None, None]
        assert f2.result(1.0) == [None, None]
        scheduler.close()


class TestStoreLookupSpan:
    def test_store_lookup_emits_a_nested_span(self, smoke_context, tmp_path):
        tracer = get_tracer()
        configure_tracing(enabled=True)
        try:
            tracer.clear()
            with ResultStore(str(tmp_path / "obs.store")) as store:
                evaluator = BatchEvaluator(smoke_context.fast_evaluator)
                evaluator.attach_store(store)
                evaluator.evaluate_many(_population(3, seed=151))
            spans = tracer.spans()
            by_name = {s["name"]: s for s in spans}
            assert "evaluator.evaluate_many" in by_name
            lookup = by_name["store.lookup"]
            parent = by_name["evaluator.evaluate_many"]
            assert lookup["trace"] == parent["trace"]
            assert lookup["parent"] == parent["span"]
            assert lookup["attrs"]["keys"] == 3
            assert lookup["attrs"]["hits"] == 0  # fresh store: all misses
        finally:
            configure_tracing(enabled=False)
            tracer.clear()


# ---------------------------------------------------------------------------
# Service integration (stats verb v2 + wire tracing)
# ---------------------------------------------------------------------------


class TestServiceObservability:
    def test_stats_v2_snapshot_shape_and_queue_depths(self, smoke_context):
        fast = smoke_context.fast_evaluator
        with start_service(BatchEvaluator(fast)) as handle:
            host, port = handle.address
            with ServiceClient(host, port) as client:
                client.evaluate_many(_population(2, seed=161))
                stats = client.stats()
        assert stats["scheduler"]["queue_depth"] == 0
        assert stats["scheduler"]["queued_points"] == 0
        assert stats["service"]["queued_requests"] == 0
        metrics = stats["metrics"]
        assert set(metrics) == {"counters", "gauges", "histograms"}
        assert metrics["counters"]["service.requests"] >= 2
        assert "service.latency_s.evaluate_many" in metrics["histograms"]
        assert json.loads(json.dumps(stats)) == stats  # wire-safe
        # The human rendering covers every section without raising.
        text = render_stats(stats)
        assert "service.requests" in text

    def test_eight_clients_monotone_snapshot_and_exact_histogram_counts(
        self, smoke_context
    ):
        requests_per_client = 5
        fast = smoke_context.fast_evaluator
        points = _population(6, seed=171)
        results: list = [None] * 8
        failures: list = []
        with start_service(BatchEvaluator(fast), tick_s=0.002) as handle:
            host, port = handle.address
            with ServiceClient(host, port) as c:
                before = c.stats()

            def client(i: int) -> None:
                try:
                    with ServiceClient(host, port) as c:
                        for _ in range(requests_per_client):
                            results[i] = c.evaluate_many(points)
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
            assert failures == []
            with ServiceClient(host, port) as c:
                after = c.stats()

        reference = BatchEvaluator(fast).evaluate_many(points)
        assert results == [reference] * 8

        # Counters are lifetime-monotonic: nothing in the later snapshot
        # may have moved backwards.
        for name, value in before["metrics"]["counters"].items():
            assert after["metrics"]["counters"][name] >= value, name

        # The evaluate_many latency histogram counts exactly our traffic:
        # the only evaluate_many ops between the snapshots are these 40.
        total = 8 * requests_per_client
        hist_name = "service.latency_s.evaluate_many"
        count_before = (
            before["metrics"]["histograms"]
            .get(hist_name, {"count": 0})["count"]
        )
        count_after = after["metrics"]["histograms"][hist_name]["count"]
        assert count_after - count_before == total
        delta_requests = (
            after["metrics"]["counters"]["scheduler.requests"]
            - before["metrics"]["counters"]["scheduler.requests"]
        )
        assert delta_requests == total
        delta_points = (
            after["metrics"]["counters"]["scheduler.points_in"]
            - before["metrics"]["counters"]["scheduler.points_in"]
        )
        assert delta_points == total * len(points)

    def test_trace_id_round_trips_client_to_scheduler(self, smoke_context):
        tracer = get_tracer()
        configure_tracing(enabled=True)
        try:
            fast = smoke_context.fast_evaluator
            with start_service(BatchEvaluator(fast)) as handle:
                host, port = handle.address
                with ServiceClient(host, port) as client:
                    tracer.clear()
                    client.evaluate_many(_population(3, seed=181))
                    trace_id = client.last_trace_id
            assert trace_id is not None and len(trace_id) == 32

            spans = [s for s in tracer.spans() if s["trace"] == trace_id]
            by_name = {s["name"]: s for s in spans}
            # One request, one trace id, linked client -> service ->
            # scheduler (queue wait and the coalesced batch).
            for name in (
                "client.evaluate_many",
                "service.evaluate_many",
                "scheduler.queue_wait",
                "scheduler.batch",
            ):
                assert name in by_name, sorted(by_name)
            assert by_name["client.evaluate_many"]["parent"] is None
            assert (
                by_name["service.evaluate_many"]["parent"]
                == by_name["client.evaluate_many"]["span"]
            )
            assert (
                by_name["scheduler.batch"]["parent"]
                == by_name["service.evaluate_many"]["span"]
            )
        finally:
            configure_tracing(enabled=False)
            tracer.clear()

    def test_a_traced_warm_read_links_its_spans(self, smoke_context):
        """A warm request served by the read records the spans and attrs
        a queued batch would: service -> scheduler.batch -> evaluator,
        with no queue wait, because it never queued."""
        tracer = get_tracer()
        configure_tracing(enabled=True)
        try:
            points = _population(3, seed=183)
            evaluator = BatchEvaluator(smoke_context.fast_evaluator)
            evaluator.evaluate_many(points + points[:1])
            with start_service(evaluator) as handle:
                host, port = handle.address
                with ServiceClient(host, port) as client:
                    tracer.clear()
                    client.evaluate_many(points)
                    trace_id = client.last_trace_id
                inline = handle.service.scheduler.inline
            spans = [s for s in tracer.spans() if s["trace"] == trace_id]
            by_name = {s["name"]: s for s in spans}
            assert sorted(by_name) == [
                "client.evaluate_many",
                "evaluator.evaluate_many",
                "scheduler.batch",
                "service.evaluate_many",
            ]
            assert inline == 1
            batch, evaluate = by_name["scheduler.batch"], by_name["evaluator.evaluate_many"]
            assert batch["parent"] == by_name["service.evaluate_many"]["span"]
            assert evaluate["parent"] == batch["span"]
            assert batch["attrs"] == {"requests": 1, "points": 3}
            assert evaluate["attrs"] == {"points": 3, "hits": 3, "misses": 0}
            assert len({s["span"] for s in spans}) == len(spans)
        finally:
            configure_tracing(enabled=False)
            tracer.clear()

    def test_disabled_tracing_sends_no_trace_field(self, smoke_context):
        assert not get_tracer().enabled
        fast = smoke_context.fast_evaluator
        with start_service(BatchEvaluator(fast)) as handle:
            host, port = handle.address
            with ServiceClient(host, port) as client:
                client.evaluate_many(_population(2, seed=191))
                assert client.last_trace_id is None
