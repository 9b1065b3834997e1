"""The resilience layer (``repro.resilience``) and its chaos suite.

Covers the guarantees docs/RESILIENCE.md makes:

* **Policies** — :class:`RetryPolicy` backoff is deterministic (seeded
  jitter), classification separates retryable from terminal errors, and
  the caps bind; :class:`Deadline` budgets are consumed downward and
  blow up as a typed :class:`DeadlineExceeded`; :class:`CircuitBreaker`
  walks closed → open → half-open → closed exactly as specified.
* **Fault injection** — a seeded :class:`FaultPlan` injects at the same
  hits on every run, is off by default with zero overhead (no metric
  moves, wire bytes unchanged), and validates site/action names.
* **The retry-safety invariant, end to end** — with faults injected at
  every named site, ``evaluate_many`` over the service returns results
  ``==`` the fault-free run, retries counted in the registry; a server
  killed mid-batch is survived by reconnect-and-resubmit; an open
  breaker degrades to a local fallback with identical values; a blown
  deadline raises cleanly instead of hanging.

Everything here asserts counters and exact values — never timings — and
is spawn-safe and 1-CPU-host tolerant, like the service suite.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.accel.config import random_config
from repro.nas.encoding import CoDesignPoint
from repro.nas.space import DnnSpace
from repro.obs import get_registry
from repro.resilience import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
)
from repro.resilience import faults
from repro.search.evaluator import BatchEvaluator
from repro.service import (
    RemoteEvaluator,
    ServiceClient,
    protocol,
    start_service,
)
from repro.store import ResultStore


def _population(n: int, seed: int = 311) -> list[CoDesignPoint]:
    rng = np.random.default_rng(seed)
    space = DnnSpace()
    return [
        CoDesignPoint(space.sample(rng, name=f"res{seed}_{i}"), random_config(rng))
        for i in range(n)
    ]


def _fast_retry(**kwargs) -> RetryPolicy:
    """A test-friendly policy: many cheap attempts, bounded backoff."""
    defaults = dict(max_attempts=8, base_delay_s=0.02, max_delay_s=0.3, seed=7)
    defaults.update(kwargs)
    return RetryPolicy(**defaults)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_deterministic_across_instances(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        schedule_a = [a.backoff_s(i) for i in range(1, 8)]
        schedule_b = [b.backoff_s(i) for i in range(1, 8)]
        assert schedule_a == schedule_b
        # A different seed gives a different (but equally deterministic)
        # jitter draw.
        c = RetryPolicy(seed=43)
        assert [c.backoff_s(i) for i in range(1, 8)] != schedule_a

    def test_backoff_respects_caps_and_jitter_range(self):
        p = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.5
        )
        for attempt in range(1, 12):
            delay = p.backoff_s(attempt)
            ceiling = min(0.5, 0.1 * 2.0 ** (attempt - 1))
            assert 0.5 * ceiling <= delay <= ceiling
        no_jitter = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0
        )
        assert no_jitter.backoff_s(1) == 0.1
        assert no_jitter.backoff_s(4) == 0.5  # capped

    def test_classification(self):
        p = RetryPolicy()
        assert p.is_retryable(ConnectionError("torn"))
        assert p.is_retryable(TimeoutError("slow"))
        assert p.is_retryable(OSError("io"))
        assert p.is_retryable(InjectedFault("chaos"))  # a ConnectionError
        assert not p.is_retryable(ValueError("bad point"))
        # DeadlineExceeded subclasses TimeoutError but is ALWAYS terminal
        # (terminal types are checked first).
        assert not p.is_retryable(DeadlineExceeded("budget gone"))

    def test_should_retry_binds_attempts_and_elapsed(self):
        p = RetryPolicy(max_attempts=3, max_elapsed_s=10.0)
        exc = ConnectionError("x")
        assert p.should_retry(exc, attempt=1, elapsed_s=0.0)
        assert p.should_retry(exc, attempt=2, elapsed_s=0.0)
        assert not p.should_retry(exc, attempt=3, elapsed_s=0.0)
        assert not p.should_retry(exc, attempt=1, elapsed_s=10.0)
        assert not p.should_retry(ValueError("x"), attempt=1, elapsed_s=0.0)

    def test_run_retries_transients_and_counts_in_registry(self):
        before = get_registry().counter("resilience.retries").value
        calls = []
        p = _fast_retry(base_delay_s=0.001)

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 3:
                raise ConnectionError("transient")
            return "done"

        assert p.run(flaky) == "done"
        assert calls == [1, 2, 3]
        assert get_registry().counter("resilience.retries").value == before + 2

    def test_run_reraises_terminal_immediately(self):
        calls = []
        p = _fast_retry()

        def fatal(attempt):
            calls.append(attempt)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            p.run(fatal)
        assert calls == [1]

    def test_run_with_deadline_raises_typed_error(self):
        p = RetryPolicy(max_attempts=100, base_delay_s=0.5, jitter=0.0)
        deadline = Deadline(0.05)

        def always_failing(attempt):
            raise ConnectionError("down")

        # The budget cannot fit the next backoff: the caller gets the
        # typed budget error, never an opaque exhausted-retries one.
        with pytest.raises(DeadlineExceeded):
            p.run(always_failing, deadline=deadline)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0)


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_unlimited(self):
        d = Deadline(None)
        assert d.unlimited
        assert d.remaining() == float("inf")
        assert not d.expired
        d.check()  # never raises
        assert d.timeout(None) is None
        assert d.timeout(5.0) == 5.0

    def test_budget_consumed_through_fake_clock(self):
        now = [100.0]
        d = Deadline(2.0, clock=lambda: now[0])
        assert d.remaining() == 2.0
        assert d.timeout(5.0) == 2.0  # budget below the cap
        now[0] += 1.5
        assert d.remaining() == pytest.approx(0.5)
        assert d.timeout(5.0) == pytest.approx(0.5)
        assert d.timeout(0.2) == pytest.approx(0.2)  # cap below the budget
        now[0] += 1.0
        assert d.expired
        with pytest.raises(DeadlineExceeded, match="stats request"):
            d.check("stats request")
        with pytest.raises(DeadlineExceeded):
            d.timeout(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_state_machine_with_fake_clock(self):
        now = [0.0]
        cb = CircuitBreaker(failure_threshold=3, reset_s=5.0, clock=lambda: now[0])
        assert cb.state == CIRCUIT_CLOSED
        assert cb.allow()
        cb.record_failure()
        cb.record_failure()
        assert cb.state == CIRCUIT_CLOSED  # under the threshold
        cb.record_failure()
        assert cb.state == CIRCUIT_OPEN
        assert cb.opens == 1
        assert not cb.allow()  # open: refuse
        now[0] += 4.9
        assert not cb.allow()  # still inside reset_s
        now[0] += 0.2
        assert cb.state == CIRCUIT_HALF_OPEN
        assert cb.allow()       # exactly ONE probe admitted
        assert not cb.allow()   # concurrent caller refused while probing
        cb.record_success()
        assert cb.state == CIRCUIT_CLOSED
        assert cb.failures == 0

    def test_probe_failure_reopens(self):
        now = [0.0]
        cb = CircuitBreaker(failure_threshold=1, reset_s=5.0, clock=lambda: now[0])
        cb.record_failure()
        assert cb.state == CIRCUIT_OPEN
        now[0] += 5.1
        assert cb.allow()  # the probe
        cb.record_failure()
        assert cb.state == CIRCUIT_OPEN  # straight back open
        assert cb.opens == 2
        assert not cb.allow()

    def test_success_resets_failure_streak(self):
        cb = CircuitBreaker(failure_threshold=3)
        cb.record_failure()
        cb.record_failure()
        cb.record_success()
        cb.record_failure()
        cb.record_failure()
        assert cb.state == CIRCUIT_CLOSED  # streak broken by the success

    def test_state_gauge_and_stats(self):
        now = [0.0]
        cb = CircuitBreaker(failure_threshold=1, reset_s=9.0, clock=lambda: now[0])
        gauge = get_registry().gauge("resilience.circuit_state")
        cb.record_failure()
        assert gauge.value == 2  # open
        now[0] += 9.1
        assert cb.state == CIRCUIT_HALF_OPEN
        assert gauge.value == 1
        cb.record_success()
        assert gauge.value == 0
        stats = cb.stats()
        assert stats["state"] == CIRCUIT_CLOSED
        assert stats["opens"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_s=-1.0)


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_off_by_default(self):
        assert faults.active() is None
        faults.hit("wire.read")  # no plan installed: a no-op
        faults.hit("pool.worker")

    def test_site_and_action_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan().add("wire.reed", "error")
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultPlan().add("wire.read", "explode")
        with pytest.raises(ValueError):
            FaultPlan().add("wire.read", "error", probability=0.0)
        with pytest.raises(ValueError):
            FaultPlan().add("wire.read", "error", count=0)
        with pytest.raises(ValueError):
            FaultPlan().hit("not.a.site")

    def test_count_and_after_bounds(self):
        plan = FaultPlan().add("wire.read", "error", count=2, after=1)
        with faults.installed(plan):
            faults.hit("wire.read")  # hit 1: skipped by after=1
            with pytest.raises(InjectedFault):
                faults.hit("wire.read")  # hit 2: injects
            with pytest.raises(InjectedFault):
                faults.hit("wire.read")  # hit 3: injects (count=2 consumed)
            faults.hit("wire.read")  # hit 4: count exhausted
        assert plan.hits == {"wire.read": 4}
        assert plan.injected == {"wire.read": 2}
        assert faults.active() is None  # installed() always clears

    def test_probability_draws_are_seed_deterministic(self):
        def run(seed):
            plan = FaultPlan(seed=seed).add(
                "wire.write", "error", probability=0.5
            )
            outcomes = []
            with faults.installed(plan):
                for _ in range(20):
                    try:
                        faults.hit("wire.write")
                        outcomes.append(False)
                    except InjectedFault:
                        outcomes.append(True)
            return outcomes

        first = run(seed=5)
        assert first == run(seed=5)  # bit-for-bit repeatable
        assert any(first) and not all(first)  # genuinely probabilistic
        assert first != run(seed=6)

    def test_custom_error_and_delay_actions(self):
        marker = RuntimeError("custom payload")
        plan = (
            FaultPlan()
            .add("store.append", "error", count=1, error=marker)
            .add("scheduler.tick", "delay", count=1, delay_s=0.01)
        )
        with faults.installed(plan):
            with pytest.raises(RuntimeError, match="custom payload"):
                faults.hit("store.append")
            faults.hit("scheduler.tick")  # delays, then continues
        assert plan.injected == {"store.append": 1, "scheduler.tick": 1}

    def test_injected_counter_reaches_registry(self):
        before = get_registry().counter("faults.injected").value
        plan = FaultPlan().add("wire.read", "error", count=1)
        with faults.installed(plan):
            with pytest.raises(InjectedFault):
                faults.hit("wire.read")
        assert get_registry().counter("faults.injected").value == before + 1

    def test_zero_overhead_wire_bytes_pinned(self):
        """With no plan installed the wire is byte-identical to the
        pre-resilience codec: one compact JSON object, key order v/id/op,
        newline-terminated — pinned as literal bytes."""
        message = {"v": protocol.WIRE_VERSION, "id": 1, "op": "stats"}
        assert protocol.encode_message(message) == b'{"v":1,"id":1,"op":"stats"}\n'


# ---------------------------------------------------------------------------
# Scripted raw-socket servers (desync / hang scenarios)
# ---------------------------------------------------------------------------


class _ScriptedServer:
    """A raw TCP server whose per-connection behaviour is a test script.

    ``handler(stream_file, connection_index)`` runs once per accepted
    connection; the connection index lets a script misbehave on the first
    connection and behave on the reconnect.
    """

    def __init__(self, handler) -> None:
        self.handler = handler
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(16)
        self.port = self._sock.getsockname()[1]
        self.connections = 0
        self._accepter = threading.Thread(target=self._accept, daemon=True)
        self._accepter.start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            index = self.connections
            self.connections += 1
            threading.Thread(
                target=self._serve, args=(conn, index), daemon=True
            ).start()

    def _serve(self, conn: socket.socket, index: int) -> None:
        try:
            with conn.makefile("rwb") as stream:
                self.handler(stream, index)
        except (OSError, ValueError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "_ScriptedServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _desync_handler(stream, index: int) -> None:
    """First connection: answer with a junk-id frame AND leave a stale
    frame whose id matches the client's NEXT request sitting in the
    stream — the desync trap.  Reconnections behave correctly."""
    line = stream.readline()
    if not line:
        return
    message = protocol.decode_message(line)
    if index == 0:
        stream.write(
            protocol.encode_message(
                protocol.ok_response(999999, stats={"bogus": True})
            )
        )
        # The trap: a client that does NOT tear down after the framing
        # error would read this on its next call and misattribute it
        # (its ids increment by one per attempt).
        stream.write(
            protocol.encode_message(
                protocol.ok_response(message["id"] + 1, stats={"stale": True})
            )
        )
        stream.flush()
        time.sleep(0.5)  # hold the connection open so the trap stays live
        return
    while line:
        message = protocol.decode_message(line)
        stream.write(
            protocol.encode_message(
                protocol.ok_response(message["id"], stats={"real": True})
            )
        )
        stream.flush()
        line = stream.readline()


class TestClientResilience:
    def test_desync_teardown_regression(self):
        """Satellite bugfix: a mid-response ProtocolError must tear the
        connection down so a later call can never read the previous
        request's stale bytes.  (Pre-PR this returned {"stale": True}.)
        """
        with _ScriptedServer(_desync_handler) as server:
            client = ServiceClient(
                "127.0.0.1",
                server.port,
                timeout=10.0,
                retry=RetryPolicy(max_attempts=1),  # retries off: observe raw behaviour
            )
            with pytest.raises(protocol.ProtocolError, match="does not match"):
                client.stats()
            assert client._sock is None  # torn down, not left desynced
            # The next call re-dials and gets the REAL answer — never the
            # stale frame the first connection still holds.
            assert client.stats() == {"real": True}
            assert server.connections == 2
            client.close()

    def test_desync_is_transparently_retried_by_default(self):
        """With the default policy the same trap is invisible to the
        caller: the framing error tears down, the retry resubmits on a
        fresh connection and the verb just returns."""
        with _ScriptedServer(_desync_handler) as server:
            with ServiceClient("127.0.0.1", server.port, timeout=10.0) as client:
                assert client.stats() == {"real": True}
                assert client.retries >= 1
                assert client.reconnects >= 1
                assert server.connections == 2

    def test_deadline_exceeded_is_typed_not_a_hang(self):
        """A server that accepts and never answers: the deadline budget
        surfaces as DeadlineExceeded within the budget, not a hang and
        not an opaque socket timeout."""

        def black_hole(stream, index):
            stream.readline()
            time.sleep(5.0)  # never answer

        before = get_registry().counter("resilience.deadlines_exceeded").value
        with _ScriptedServer(black_hole) as server:
            with ServiceClient("127.0.0.1", server.port, timeout=30.0) as client:
                t0 = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    client.stats(deadline_s=0.3)
                assert time.monotonic() - t0 < 3.0
        assert (
            get_registry().counter("resilience.deadlines_exceeded").value
            > before
        )

    def test_close_is_idempotent_and_best_effort(self):
        """Satellite bugfix: close() must be safe to call twice and safe
        on a connection the server already dropped."""

        def drop_immediately(stream, index):
            return  # server closes without reading

        with _ScriptedServer(drop_immediately) as server:
            client = ServiceClient("127.0.0.1", server.port, timeout=5.0)
            time.sleep(0.05)  # let the server drop the peer
            client.close()  # half-closed socket: must not raise
            client.close()  # re-entrant: must not raise
            with pytest.raises(ValueError, match="closed"):
                client.stats()  # a closed client refuses, it doesn't redial

    def test_remote_evaluator_close_is_idempotent(self, smoke_context):
        with start_service(
            BatchEvaluator(smoke_context.fast_evaluator)
        ) as handle:
            host, port = handle.address
            remote = RemoteEvaluator(f"{host}:{port}")
            remote.close()
            remote.close()  # re-entrant: must not raise


# ---------------------------------------------------------------------------
# Chaos over a live service
# ---------------------------------------------------------------------------


class _GatedEvaluator:
    """Blocks inside evaluate_many until released (mid-batch scenarios)."""

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def evaluate_many(self, points):
        self.entered.set()
        assert self.release.wait(60.0), "gate was never released"
        return self.inner.evaluate_many(points)


class TestChaos:
    def test_flaky_wire_completes_with_retries_counted(self, smoke_context):
        """Seeded wire faults (write and read): every call still returns
        results ``==`` the fault-free run; retries land in the client
        counter and the registry, never silently swallowed."""
        fast = smoke_context.fast_evaluator
        points = _population(8, seed=31)
        reference = BatchEvaluator(fast).evaluate_many(points)
        before = get_registry().counter("resilience.retries").value
        plan = (
            FaultPlan(seed=11)
            .add("wire.write", "error", count=1)
            .add("wire.read", "error", count=1, after=1)
        )
        with start_service(BatchEvaluator(fast), tick_s=0.002) as handle:
            with ServiceClient(*handle.address, retry=_fast_retry()) as client:
                with faults.installed(plan):
                    first = client.evaluate_many(points)
                    second = client.evaluate_many(points)
                assert first == reference
                assert second == reference
                assert client.retries == 2
                assert client.reconnects >= 1
        assert plan.injected == {"wire.write": 1, "wire.read": 1}
        assert get_registry().counter("resilience.retries").value == before + 2

    def test_kill_server_mid_batch_reconnect_bit_identical(self, smoke_context):
        """THE tentpole scenario: the server dies while a batch is being
        evaluated; a replacement comes up on the same port; the client's
        reconnect-and-resubmit returns results ``==`` the fault-free run.
        """
        fast = smoke_context.fast_evaluator
        points = _population(10, seed=37)
        reference = BatchEvaluator(fast).evaluate_many(points)
        gated = _GatedEvaluator(BatchEvaluator(fast))
        handle_a = start_service(gated, tick_s=0.002)
        host, port = handle_a.address
        client = ServiceClient(
            host, port, retry=_fast_retry(max_attempts=10, base_delay_s=0.05)
        )
        outcome: dict = {}

        def call() -> None:
            try:
                outcome["results"] = client.evaluate_many(points)
            except BaseException as exc:  # pragma: no cover - diagnostic
                outcome["error"] = exc

        thread = threading.Thread(target=call)
        thread.start()
        try:
            assert gated.entered.wait(30.0), "request never reached the batch"
            # Kill server A while the batch is mid-evaluation.  The gate
            # opens shortly after so the abort can join the scheduler
            # thread (the batch result goes nowhere — its connection is
            # already gone).
            releaser = threading.Timer(0.2, gated.release.set)
            releaser.start()
            handle_a.abort()
            # A replacement service on the SAME port (fresh scheduler,
            # same deterministic evaluator stack).
            with start_service(
                BatchEvaluator(fast), host=host, port=port, tick_s=0.002
            ) as handle_b:
                thread.join(60.0)
                assert not thread.is_alive(), "client never recovered"
                assert "error" not in outcome, outcome.get("error")
                assert outcome["results"] == reference, (
                    "reconnect-and-resubmit must be bit-identical to the "
                    "fault-free run"
                )
                assert client.retries >= 1
                assert client.reconnects >= 1
        finally:
            gated.release.set()
            client.close()

    def test_open_breaker_falls_back_locally_with_parity(self, smoke_context):
        """Graceful degradation: transport failures trip the breaker, an
        open breaker serves from the local fallback (values ``==`` the
        remote's), and a half-open probe returns to a revived remote."""
        fast = smoke_context.fast_evaluator
        points = _population(6, seed=41)
        reference = BatchEvaluator(fast).evaluate_many(points)
        handle = start_service(BatchEvaluator(fast), tick_s=0.002)
        host, port = handle.address
        breaker = CircuitBreaker(failure_threshold=1, reset_s=0.3)
        remote = RemoteEvaluator(
            f"{host}:{port}",
            retry=RetryPolicy(max_attempts=1),  # fail fast into the breaker
            fallback=BatchEvaluator(fast),
            breaker=breaker,
        )
        try:
            assert remote.evaluate_many(points) == reference  # remote path
            assert breaker.state == CIRCUIT_CLOSED
            handle.abort()  # the backend dies
            assert remote.evaluate_many(points) == reference  # via fallback
            assert breaker.state == CIRCUIT_OPEN
            assert remote.fallback_calls == 1
            # Open breaker: served locally WITHOUT touching the wire.
            assert remote.evaluate_many(points) == reference
            assert remote.fallback_calls == 2
            # Revive the backend on the same port; after reset_s the
            # half-open probe finds it and the breaker closes again.
            with start_service(
                BatchEvaluator(fast), host=host, port=port, tick_s=0.002
            ):
                time.sleep(0.35)
                assert remote.evaluate_many(points) == reference
                assert breaker.state == CIRCUIT_CLOSED
                stats = remote.resilience_stats()
                assert stats["fallback_calls"] == 2
                assert stats["breaker"]["opens"] >= 1
                assert stats["breaker"]["probes"] >= 1
        finally:
            remote.close()

    def test_fallback_survives_backend_dead_at_construction(
        self, smoke_context
    ):
        """A backend that is already dead when the adapter is built must
        not prevent degraded operation: the first dial is deferred, the
        dial failure trips the breaker, scoring AND accounting reads all
        answer from the fallback (regression: the eager constructor dial
        used to raise ``ConnectionRefusedError`` before the fallback
        could ever engage)."""
        fast = smoke_context.fast_evaluator
        points = _population(5, seed=47)
        reference = BatchEvaluator(fast).evaluate_many(points)
        # Grab a port nobody listens on (bind, read, close — the port
        # stays free for the duration of the test on this host).
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        fallback = BatchEvaluator(fast)
        remote = RemoteEvaluator(
            f"127.0.0.1:{dead_port}",
            retry=RetryPolicy(max_attempts=1),  # fail fast into the breaker
            fallback=fallback,
            breaker=CircuitBreaker(failure_threshold=1, reset_s=60.0),
        )
        try:
            # Construction succeeded (the old behaviour raised here) and
            # scoring degrades with exact parity.
            assert remote.evaluate_many(points) == reference
            assert remote.fallback_calls == 1
            assert remote.breaker.state == CIRCUIT_OPEN
            # Accounting reads describe the fallback evaluator — the one
            # that actually served the calls — instead of raising.
            assert remote.counters() == (fallback.hits, fallback.misses)
            # metrics() answers the local registry snapshot in degraded
            # mode (a dict with the registry's top-level shape).
            assert isinstance(remote.metrics(), dict)
        finally:
            remote.close()

    def test_scheduler_tick_retry_is_invisible_to_clients(self, smoke_context):
        """A retryable fault inside the server's batch evaluation is
        absorbed by the scheduler's policy: the client sees clean
        results, the stats verb reports the retried batch."""
        fast = smoke_context.fast_evaluator
        points = _population(7, seed=43)
        reference = BatchEvaluator(fast).evaluate_many(points)
        plan = FaultPlan(seed=3).add("scheduler.tick", "error", count=1)
        with start_service(
            BatchEvaluator(fast),
            tick_s=0.002,
            retry=_fast_retry(base_delay_s=0.01),
        ) as handle:
            with ServiceClient(*handle.address) as client:
                with faults.installed(plan):
                    assert client.evaluate_many(points) == reference
                stats = client.stats()
        assert plan.injected == {"scheduler.tick": 1}
        assert stats["scheduler"]["retried_batches"] == 1
        assert stats["scheduler"]["errors"] == 0  # absorbed, not surfaced
        assert client.retries == 0  # the client never noticed

    def test_terminal_evaluator_error_still_surfaces_with_retry(self, smoke_context):
        """A ValueError from the evaluator is terminal for the scheduler
        policy: it must reach the client as a typed ServiceError, not be
        retried into oblivion."""
        from repro.service import ServiceError

        class _Failing:
            def evaluate_many(self, points):
                raise ValueError("injected evaluator failure")

        with start_service(_Failing(), retry=_fast_retry()) as handle:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(ServiceError, match="ValueError"):
                    client.evaluate_many(_population(2, seed=47))
                stats = client.stats()
        assert stats["scheduler"]["errors"] == 1
        assert stats["scheduler"]["retried_batches"] == 0

    def test_health_verb_not_queued_behind_budget(self, smoke_context):
        """health answers while the points budget is saturated and a
        batch is blocked mid-evaluation — it is never queued."""
        fast = smoke_context.fast_evaluator
        gated = _GatedEvaluator(BatchEvaluator(fast))
        points = _population(4, seed=53)
        with start_service(
            gated, tick_s=0.002, max_inflight_points=4
        ) as handle:
            host, port = handle.address
            blocker = ServiceClient(host, port)
            waiter = ServiceClient(host, port)
            threads = [
                threading.Thread(
                    target=lambda c=c: c.evaluate_many(points)
                )
                for c in (blocker, waiter)
            ]
            try:
                threads[0].start()
                assert gated.entered.wait(30.0)
                threads[1].start()  # queues on the saturated budget
                with ServiceClient(host, port) as prober:
                    # Poll until the second request is visibly queued,
                    # proving health answers DESPITE the saturation.
                    deadline = time.monotonic() + 20.0
                    while time.monotonic() < deadline:
                        health = prober.health()
                        if health["queued_requests"] >= 1:
                            break
                        time.sleep(0.02)
                    assert health["status"] == "ok"
                    assert health["inflight_points"] == 4
                    assert health["queued_requests"] >= 1
                    assert health["uptime_s"] >= 0.0
            finally:
                gated.release.set()
                for t in threads:
                    t.join(60.0)
                blocker.close()
                waiter.close()

    def test_idle_timeout_disconnects_and_client_recovers(self, smoke_context):
        """An idle peer is dropped by the server; the dropped client's
        next verb transparently reconnects and succeeds."""
        fast = smoke_context.fast_evaluator
        with start_service(
            BatchEvaluator(fast), idle_timeout_s=0.15
        ) as handle:
            with ServiceClient(*handle.address, retry=_fast_retry()) as client:
                assert client.health()["status"] == "ok"
                time.sleep(0.6)  # exceed the idle timeout
                stats = client.stats()  # reconnect-and-resubmit, invisibly
                assert stats["service"]["idle_disconnects"] >= 1
                assert stats["service"]["idle_timeout_s"] == 0.15
                assert client.reconnects >= 1


# ---------------------------------------------------------------------------
# Store faults
# ---------------------------------------------------------------------------


class TestStoreFaults:
    def test_append_fault_without_retry_fails_fast(self, tmp_path):
        store = ResultStore(str(tmp_path / "plain.store"))
        plan = FaultPlan().add("store.append", "error", count=1)
        with faults.installed(plan):
            with pytest.raises(InjectedFault):
                store.append("ns", (1, 2), (3.0,))
            store.append("ns", (1, 2), (3.0,))  # next append is clean
        assert store.get("ns", (1, 2)) == (3.0,)
        assert store.retried_appends == 0
        store.close()

    def test_append_retry_rolls_back_and_recovers(self, tmp_path):
        path = str(tmp_path / "retry.store")
        store = ResultStore(path, retry=_fast_retry(base_delay_s=0.005))
        plan = FaultPlan().add("store.append", "error", count=2)
        values = (0.1 + 0.2, 1.0 / 3.0)
        with faults.installed(plan):
            store.append("ns", (7, 8, 9), values)
        assert plan.injected == {"store.append": 2}
        assert store.retried_appends == 2
        assert store.appends == 1
        assert store.get("ns", (7, 8, 9)) == values
        store.close()
        # Durable: the retried append reopens bit-identically.
        reopened = ResultStore(path, mode="r")
        assert reopened.get("ns", (7, 8, 9)) == values
        assert reopened.recovered_bytes == 0  # rollbacks left no torn tail
        reopened.close()


# ---------------------------------------------------------------------------
# All five sites at once (the acceptance scenario)
# ---------------------------------------------------------------------------


class TestEndToEndChaos:
    def test_all_sites_faulted_end_to_end_bit_identical(
        self, smoke_context, tmp_path
    ):
        """The acceptance bar: seeded faults at EVERY named site — wire
        write, wire read, scheduler tick, a pool shard, a store append —
        and an end-to-end ``evaluate_many`` over the service still
        returns results ``==`` the fault-free run, with every recovery
        counted in the registry, none silently swallowed.  The shard
        error propagates out of the evaluator and the scheduler's
        in-place batch retry absorbs it, like the tick fault."""
        fast = smoke_context.fast_evaluator
        points = _population(12, seed=59)
        reference = BatchEvaluator(fast).evaluate_many(points)
        retries_before = get_registry().counter("resilience.retries").value
        plan = (
            FaultPlan(seed=13)
            .add("wire.write", "error", count=1)
            .add("wire.read", "error", count=1)
            .add("scheduler.tick", "error", count=1)
            .add("pool.worker", "error", count=1)
            .add("store.append", "error", count=1)
        )
        evaluator = BatchEvaluator(fast, workers=2)
        store = ResultStore(
            str(tmp_path / "chaos.store"),
            retry=_fast_retry(base_delay_s=0.005),
        )
        try:
            with start_service(
                evaluator,
                tick_s=0.002,
                retry=_fast_retry(base_delay_s=0.01),
                store=store,
            ) as handle:
                with ServiceClient(
                    *handle.address, retry=_fast_retry(base_delay_s=0.02)
                ) as client:
                    with faults.installed(plan):
                        results = client.evaluate_many(points)
                    assert results == reference, (
                        "with faults at every site, results must still be "
                        "== the fault-free run"
                    )
                    stats = client.stats()
                    assert client.retries >= 1  # wire faults retried
        finally:
            evaluator.close()
            if not store.closed:
                store.close()
        # Every site actually fired...
        assert plan.injected == {
            "wire.write": 1,
            "wire.read": 1,
            "scheduler.tick": 1,
            "pool.worker": 1,
            "store.append": 1,
        }
        # ...and every recovery is accounted for, never swallowed.
        # One batch retry for the tick fault, one for the shard fault.
        assert stats["scheduler"]["retried_batches"] >= 2
        assert stats["evaluator"]["pool"]["batches"] >= 1
        assert stats["store"]["retried_appends"] >= 1
        assert (
            get_registry().counter("resilience.retries").value
            > retries_before
        )

    def test_no_faults_means_no_resilience_activity(self, smoke_context):
        """The kill switch: with no plan installed, a normal service
        round-trip moves NO resilience or fault counters — the sites are
        zero-cost no-ops and behaviour is identical to pre-PR."""
        fast = smoke_context.fast_evaluator
        points = _population(5, seed=61)
        reference = BatchEvaluator(fast).evaluate_many(points)
        registry = get_registry()
        before = {
            name: registry.counter(name).value
            for name in ("resilience.retries", "faults.injected",
                         "resilience.deadlines_exceeded")
        }
        assert faults.active() is None
        with start_service(BatchEvaluator(fast), tick_s=0.002) as handle:
            with ServiceClient(*handle.address) as client:
                assert client.evaluate_many(points) == reference
                assert client.retries == 0
                assert client.reconnects == 0
        for name, value in before.items():
            assert registry.counter(name).value == value, name
