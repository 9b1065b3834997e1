"""The search-evaluation service (``repro.service``).

Covers the guarantees the service makes:

* **Wire fidelity** — the versioned NDJSON codec round-trips co-design
  points and evaluations exactly (``==``, no tolerances), and rejects
  mismatched versions and malformed frames.
* **Bit-identical remote scoring** — >= 8 concurrent clients each get
  the same evaluations a local ``evaluate_many`` produces for their
  request, while the scheduler coalesces the traffic.
* **Graceful shutdown** — the ``shutdown`` verb drains every queued
  request (none dropped, none double-run) before the endpoint goes away.
* **Backpressure** — the bounded in-flight points budget queues a flood
  instead of letting it balloon the scheduler queue.
* **Partition independence** — for any point multiset, any split of it
  into concurrent requests and any pre-warmed subset (so some requests
  skip the coalescing window and some wait it), every response is
  ``==`` the scalar ``FastEvaluator.evaluate`` of its point.
* **Warm requests on the event loop** — an all-warm request on an idle
  service is evaluated on the event-loop thread, with no scheduler hop.

CI runs this module inside the tier-1 suite and as a dedicated service
job; everything here is spawn-safe and tolerant of 1-CPU hosts (no
timing assertions — only counters and exact values).
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accel.config import random_config
from repro.nas.encoding import (
    SEQUENCE_LENGTH,
    CoDesignPoint,
    decode,
    encode,
    random_sequence,
)
from repro.nas.space import DnnSpace
from repro.obs import get_tracer
from repro.search.evaluator import BatchEvaluator, Evaluation
from repro.service import (
    ProtocolError,
    RemoteEvaluator,
    ServiceClient,
    ServiceError,
    parse_endpoint,
    start_service,
)
from repro.service import protocol


def _population(n: int, seed: int = 211) -> list[CoDesignPoint]:
    rng = np.random.default_rng(seed)
    space = DnnSpace()
    return [
        CoDesignPoint(space.sample(rng, name=f"svc{seed}_{i}"), random_config(rng))
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------


class TestWireCodec:
    def test_point_roundtrip_exact(self):
        for point in _population(6, seed=3):
            wire = protocol.point_to_wire(point)
            back = protocol.point_from_wire(wire)
            assert back == point
            assert back.genotype.name == point.genotype.name
            assert encode(back) == encode(point)

    def test_point_roundtrip_through_json_frame(self):
        point = _population(1, seed=5)[0]
        frame = protocol.encode_message(
            {"v": protocol.WIRE_VERSION, "point": protocol.point_to_wire(point)}
        )
        message = protocol.decode_message(frame)
        assert protocol.point_from_wire(message["point"]) == point

    def test_evaluation_roundtrip_is_bit_exact(self):
        # repr-based JSON floats survive the wire unchanged — including
        # values with no short decimal form.
        awkward = Evaluation(
            accuracy=1.0 / 3.0,
            latency_ms=0.1 + 0.2,
            energy_mj=1.2345678901234567e-5,
        )
        frame = protocol.encode_message(
            {
                "v": protocol.WIRE_VERSION,
                "evaluation": protocol.evaluation_to_wire(awkward),
            }
        )
        message = protocol.decode_message(frame)
        assert protocol.evaluation_from_wire(message["evaluation"]) == awkward

    def test_version_mismatch_rejected(self):
        frame = protocol.encode_message({"v": protocol.WIRE_VERSION + 1, "op": "stats"})
        with pytest.raises(ProtocolError, match="version"):
            protocol.decode_message(frame)

    def test_malformed_frames_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"not json\n")
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError):
            protocol.point_from_wire({"tokens": "nope"})
        with pytest.raises(ProtocolError):
            protocol.point_from_wire({"tokens": [1, 2, 3]})  # wrong length
        with pytest.raises(ProtocolError):
            protocol.evaluation_from_wire({"accuracy": 0.5})

    def test_bool_tokens_rejected(self):
        # isinstance(True, int) holds, so a bare isinstance check would
        # read JSON true/false as tokens 1/0.
        wire = protocol.point_to_wire(_population(1, seed=13)[0])
        wire["tokens"][0] = bool(wire["tokens"][0])
        with pytest.raises(ProtocolError, match="integers"):
            protocol.point_from_wire(wire)

    def test_parse_endpoint(self):
        assert parse_endpoint("10.1.2.3:7777") == ("10.1.2.3", 7777)
        assert parse_endpoint(":8000") == ("127.0.0.1", 8000)
        with pytest.raises(ValueError):
            parse_endpoint("no-port")

    def test_parse_endpoint_rejects_bad_ports(self):
        with pytest.raises(ValueError, match="1-65535"):
            parse_endpoint("127.0.0.1:0")
        with pytest.raises(ValueError, match="1-65535"):
            parse_endpoint("127.0.0.1:70000")
        with pytest.raises(ValueError):
            parse_endpoint("127.0.0.1:-1")  # not digits
        # The boundaries themselves are fine.
        assert parse_endpoint("h:1") == ("h", 1)
        assert parse_endpoint("h:65535") == ("h", 65535)

    def test_parse_endpoint_rejects_ipv6_brackets_clearly(self):
        for endpoint in ("[::1]:8000", "[fe80::1]:7777", "::1:8000"):
            with pytest.raises(ValueError, match="IPv6"):
                parse_endpoint(endpoint)


# ---------------------------------------------------------------------------
# Live service
# ---------------------------------------------------------------------------


class _GatedEvaluator:
    """Blocks inside evaluate_many until released (drain/backpressure)."""

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls: list[int] = []

    def evaluate_many(self, points):
        self.calls.append(len(points))
        self.entered.set()
        assert self.release.wait(60.0), "gate was never released"
        return self.inner.evaluate_many(points)


class _FailingEvaluator:
    def __init__(self, inner):
        self.inner = inner
        self.fail = True

    def evaluate_many(self, points):
        if self.fail:
            raise ValueError("injected evaluator failure")
        return self.inner.evaluate_many(points)


def _poll(predicate, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError("condition never became true")


class TestSearchService:
    def test_eight_concurrent_clients_bit_identical(self, smoke_context):
        """The acceptance bar: >= 8 concurrent clients all receive results
        ``==`` a cold in-process ``evaluate_many``.

        Each client sends the same 12-point batch, so however the ticks
        land, the unique cold set the evaluator materialises matches the
        local call exactly (the evaluator dedups unique candidates before
        the GP, and repeats are cache hits) — no timing dependence.
        """
        fast = smoke_context.fast_evaluator
        points = _population(12, seed=7)
        reference = BatchEvaluator(fast).evaluate_many(points)
        results: list = [None] * 8
        failures: list = []
        with start_service(BatchEvaluator(fast), tick_s=0.005) as handle:
            host, port = handle.address

            def client(i: int) -> None:
                try:
                    with ServiceClient(host, port) as c:
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
                stats = c.stats()
        assert results == [reference] * 8, (
            "remote scoring must be bit-identical to in-process "
            "evaluate_many for every concurrent client"
        )
        assert stats["scheduler"]["requests"] == 8
        assert stats["scheduler"]["points_in"] == 8 * len(points)
        assert stats["scheduler"]["errors"] == 0
        assert 1 <= stats["scheduler"]["ticks"] <= 8

    def test_evaluate_single_and_stats_verbs(self, smoke_context):
        fast = smoke_context.fast_evaluator
        point = _population(1, seed=11)[0]
        reference = BatchEvaluator(fast).evaluate(point)
        with start_service(BatchEvaluator(fast)) as handle:
            with ServiceClient(*handle.address) as client:
                assert client.evaluate(point) == reference
                stats = client.stats()
        assert stats["wire_version"] == protocol.WIRE_VERSION
        assert stats["evaluator"]["type"] == "BatchEvaluator"
        assert stats["evaluator"]["misses"] >= 1
        assert stats["service"]["requests"] == 2

    def test_graceful_shutdown_drains_queued_requests(self, smoke_context):
        """Shutdown while requests are mid-flight and queued: every client
        still gets its full, correct answer; nothing is dropped."""
        fast = smoke_context.fast_evaluator
        gated = _GatedEvaluator(BatchEvaluator(fast))
        # Identical requests: however the drain ticks coalesce them, the
        # unique cold set matches the local call, so parity stays exact.
        chunk = _population(2, seed=13)
        reference = BatchEvaluator(fast).evaluate_many(chunk)
        results: list = [None] * 4
        failures: list = []
        handle = start_service(gated, tick_s=0.0)
        host, port = handle.address

        def client(i: int) -> None:
            try:
                with ServiceClient(host, port) as c:
                    results[i] = c.evaluate_many(chunk)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        assert gated.entered.wait(30.0), "no request reached the evaluator"
        with ServiceClient(host, port) as c:
            # All four requests must be queued before the shutdown lands
            # (later arrivals would be rejected by design, not drained).
            _poll(lambda: c.stats()["scheduler"]["requests"] == 4)
            ack = c.shutdown()
        assert ack.get("closing") is True
        gated.release.set()
        for t in threads:
            t.join(120.0)
        handle.shutdown()
        assert failures == []
        assert results == [reference] * 4, (
            "graceful shutdown must drain queued requests with correct "
            "results — no drops, no double runs"
        )
        # The endpoint is really gone afterwards.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2.0).close()
        # Every queued point was evaluated exactly once (no double runs).
        assert sum(gated.calls) == 4 * len(chunk)

    def test_stats_and_shutdown_racing_a_drain(self, smoke_context):
        """stats/health/shutdown/evaluate hammered from pre-connected
        clients WHILE the service drains: every call either gets a valid
        answer, a typed "closed" error, or a clean connection error —
        never a hang, a crash, or a malformed frame."""
        from repro.resilience import RetryPolicy
        from repro.service.client import ServiceError

        fast = smoke_context.fast_evaluator
        gated = _GatedEvaluator(BatchEvaluator(fast))
        chunk = _population(2, seed=31)
        handle = start_service(gated, tick_s=0.0)
        host, port = handle.address
        no_retry = RetryPolicy(max_attempts=1)

        def fresh_client() -> ServiceClient:
            return ServiceClient(host, port, retry=no_retry)

        blocker = fresh_client()
        block_thread = threading.Thread(
            target=lambda: blocker.evaluate_many(chunk)
        )
        # Pre-connect the racers BEFORE the drain starts: the listener
        # closes the moment shutdown is requested, so only connections
        # that already exist can race the drain at all.
        racers = [fresh_client() for _ in range(6)]
        outcomes: list = []
        lock = threading.Lock()

        def race(i: int, client: ServiceClient) -> None:
            try:
                if i % 3 == 0:
                    outcome = ("stats", client.stats())
                elif i % 3 == 1:
                    outcome = ("health", client.health())
                else:
                    outcome = ("evaluate", client.evaluate_many(chunk))
            except ServiceError as exc:
                outcome = ("service-error", exc)
            except (ConnectionError, OSError) as exc:
                outcome = ("conn-error", exc)
            with lock:
                outcomes.append(outcome)

        try:
            block_thread.start()
            assert gated.entered.wait(30.0), "no request reached the evaluator"
            with fresh_client() as c:
                ack = c.shutdown()  # the drain starts NOW
            assert ack.get("closing") is True
            threads = [
                threading.Thread(target=race, args=(i, client))
                for i, client in enumerate(racers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            assert all(not t.is_alive() for t in threads), (
                "a request racing the drain hung"
            )
        finally:
            gated.release.set()
            block_thread.join(120.0)
            handle.shutdown()
            blocker.close()
            for client in racers:
                client.close()
        assert len(outcomes) == 6
        for kind, payload in outcomes:
            if kind == "stats":
                assert payload["service"]["closing"] is True
            elif kind == "health":
                assert payload["status"] == "closing"
                assert payload["closing"] is True
            elif kind == "evaluate":
                # Landed before the drain flag was set: a full answer.
                assert len(payload) == len(chunk)
            elif kind == "service-error":
                assert payload.kind == "closed", payload
            else:
                assert kind == "conn-error"
        # The blocked request itself was drained, not dropped.
        assert sum(gated.calls) >= len(chunk)

    def test_backpressure_bounds_inflight_points(self, smoke_context):
        """With a 4-point budget, a 12-point flood queues instead of all
        reaching the scheduler at once."""
        fast = smoke_context.fast_evaluator
        gated = _GatedEvaluator(BatchEvaluator(fast))
        chunk = _population(2, seed=29)
        reference = BatchEvaluator(fast).evaluate_many(chunk)
        results: list = [None] * 6
        failures: list = []
        with start_service(
            gated, tick_s=0.0, max_inflight_points=4
        ) as handle:
            host, port = handle.address

            def client(i: int) -> None:
                try:
                    with ServiceClient(host, port) as c:
                        results[i] = c.evaluate_many(chunk)
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            assert gated.entered.wait(30.0)
            with ServiceClient(host, port) as c:
                # The budget admits exactly 2 two-point requests; the other
                # 4 requests queue on the budget, NOT in the scheduler.
                _poll(lambda: c.stats()["service"]["queued_requests"] == 4)
                stats = c.stats()
                assert stats["service"]["inflight_points"] == 4
                assert stats["scheduler"]["points_in"] == 4
            gated.release.set()
            for t in threads:
                t.join(120.0)
            with ServiceClient(host, port) as c:
                final = c.stats()
        assert failures == []
        assert results == [reference] * 6
        assert final["scheduler"]["points_in"] == 12
        assert final["service"]["peak_inflight_points"] <= 4

    def test_evaluator_error_is_reported_and_service_survives(self, smoke_context):
        fast = smoke_context.fast_evaluator
        failing = _FailingEvaluator(BatchEvaluator(fast))
        points = _population(2, seed=41)
        reference = BatchEvaluator(fast).evaluate_many(points)
        with start_service(failing) as handle:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.evaluate_many(points)
                assert excinfo.value.kind == "ValueError"
                failing.fail = False
                assert client.evaluate_many(points) == reference
                stats = client.stats()
        assert stats["scheduler"]["errors"] == 1
        assert stats["scheduler"]["ticks"] == 2

    def test_unknown_op_and_bad_version_get_error_responses(self, smoke_context):
        fast = smoke_context.fast_evaluator
        with start_service(BatchEvaluator(fast)) as handle:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client._call("sudo")
                assert excinfo.value.kind == "protocol"
            # A raw frame with the wrong version is rejected, not parsed.
            with socket.create_connection(handle.address, timeout=10.0) as sock:
                sock.sendall(b'{"v": 999, "id": 1, "op": "stats"}\n')
                raw = sock.makefile("rb").readline()
            response = protocol.decode_message(raw)
            assert response["ok"] is False
            assert response["error"]["type"] == "protocol"

    def test_bool_tokens_in_a_raw_frame_are_rejected(self, smoke_context):
        tokens = encode(_population(1, seed=17)[0])
        rest = ",".join(map(str, tokens[1:]))
        # Node 2's first input is 0 or 1: the frames differ only in
        # spelling it as a JSON bool or as a JSON integer.
        firsts = ("true" if tokens[0] else "false", str(tokens[0]))
        frames = [
            (
                f'{{"v":{protocol.WIRE_VERSION},"id":{i},"op":"evaluate",'
                f'"point":{{"tokens":[{first},{rest}],"name":"raw"}}}}\n'
            ).encode()
            for i, first in enumerate(firsts)
        ]
        with start_service(BatchEvaluator(smoke_context.fast_evaluator)) as handle:
            with socket.create_connection(handle.address, timeout=10.0) as sock:
                reader = sock.makefile("rb")
                responses = []
                for frame in frames:
                    sock.sendall(frame)
                    responses.append(protocol.decode_message(reader.readline()))
        rejected, accepted = responses
        assert rejected["ok"] is False
        assert rejected["error"]["type"] == "protocol"
        assert "integers" in rejected["error"]["message"]
        assert accepted["ok"] is True

    @pytest.mark.slow
    def test_service_over_parallel_evaluator(self, smoke_context):
        """The production shape: service -> scheduler -> BatchEvaluator
        (workers=2) -> worker threads, still bit-identical to in-process
        scoring."""
        fast = smoke_context.fast_evaluator
        points = _population(10, seed=43)
        reference = BatchEvaluator(fast).evaluate_many(points)
        evaluator = BatchEvaluator(fast, workers=2)
        try:
            with start_service(evaluator, tick_s=0.005) as handle:
                host, port = handle.address
                results: list = [None, None]
                failures: list = []

                def client(i: int) -> None:
                    try:
                        with ServiceClient(host, port) as c:
                            results[i] = c.evaluate_many(points)
                    except BaseException as exc:  # pragma: no cover
                        failures.append(exc)

                threads = [
                    threading.Thread(target=client, args=(i,)) for i in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(240.0)
                assert failures == []
            assert results == [reference, reference]
        finally:
            evaluator.close()


# Four fresh architectures plus two of them re-paired with new hardware:
# a pre-warmed architecture makes its re-pairing warm by genotype alone.
_POOL = _population(4, seed=61)
_POOL += [
    CoDesignPoint(_POOL[i].genotype, random_config(np.random.default_rng(i)))
    for i in (0, 1)
]
_ORACLE: dict[int, Evaluation] = {}


class TestServicePartitionProperty:
    @given(
        picks=st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=16),
        cuts=st.lists(st.booleans(), min_size=15, max_size=15),
        warm=st.sets(st.integers(0, len(_POOL) - 1)),
    )
    # Eight concurrent overlapping requests over a fully warm pool.
    @example(
        picks=[0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 2, 1, 3],
        cuts=[False, True] * 7 + [False],
        warm=set(range(len(_POOL))),
    )
    @settings(deadline=None, max_examples=10)
    def test_any_partition_equals_scalar_oracle(
        self, smoke_context, picks, cuts, warm
    ):
        """Split a point multiset into consecutive parts, pre-warm some
        pool points, and send every part at once as its own request
        through a service with a coalescing window: each response is
        ``==`` the scalar oracle of its point, whatever was coalesced
        with it or served from the caches."""
        fast = smoke_context.fast_evaluator
        for i in set(picks) - set(_ORACLE):
            _ORACLE[i] = fast.evaluate(_POOL[i])
        parts, start = [], 0
        for i in range(1, len(picks)):
            if cuts[i - 1]:
                parts.append(picks[start:i])
                start = i
        parts.append(picks[start:])
        evaluator = BatchEvaluator(fast)
        if warm:
            evaluator.evaluate_many([_POOL[i] for i in sorted(warm)])
        results: list = [None] * len(parts)
        failures: list = []
        with start_service(evaluator, tick_s=0.002) as handle:
            host, port = handle.address
            gate = threading.Barrier(len(parts))

            def client(j: int) -> None:
                try:
                    with ServiceClient(host, port) as c:
                        c.health()  # connected before the barrier
                        gate.wait(30.0)
                        results[j] = c.evaluate_many([_POOL[i] for i in parts[j]])
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)

            threads = [
                threading.Thread(target=client, args=(j,))
                for j in range(len(parts))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
        assert failures == []
        assert results == [[_ORACLE[i] for i in part] for part in parts]


class TestInlineWarm:
    def test_warm_request_is_served_on_the_event_loop(self, smoke_context):
        """An all-warm request on an idle service is evaluated on the
        event-loop thread itself (no hop to the scheduler thread), and its
        response is ``==`` the scalar oracle."""
        from repro.obs import render_stats

        fast = smoke_context.fast_evaluator
        points = _population(3, seed=29)
        oracle = [fast.evaluate(p) for p in points]
        inner = BatchEvaluator(fast)
        inner.evaluate_many(points)
        threads: list[int] = []

        class _Recording:
            key_of = staticmethod(inner.key_of)

            def read_warm(self, keys, trace=None, before=None):
                threads.append(threading.get_ident())
                return inner.read_warm(keys, trace, before)

            def evaluate_many(self, points):
                threads.append(threading.get_ident())
                return inner.evaluate_many(points)

        with start_service(_Recording()) as handle:
            with ServiceClient(*handle.address) as client:
                assert client.evaluate_many(points) == oracle
                stats = client.stats()
        assert threads == [handle._thread.ident]
        scheduler = stats["scheduler"]
        assert (scheduler["inline"], scheduler["ticks"]) == (1, 1)
        assert "inline" in render_stats(stats)

    def test_a_warm_request_is_served_while_the_budget_is_full(
        self, smoke_context
    ):
        """The warm read takes no budget: with the budget full of a running
        cold batch and another cold request queued on it, a warm request
        is answered at once, and the cold ones are served after."""
        fast = smoke_context.fast_evaluator
        warm, cold = _population(2, seed=31), _population(4, seed=33)
        reference = BatchEvaluator(fast).evaluate_many(cold)
        inner = BatchEvaluator(fast)
        warm_reference = inner.evaluate_many(warm)
        gated = _GatedEvaluator(inner)
        gated.key_of, gated.read_warm = inner.key_of, inner.read_warm
        results: dict = {}
        with start_service(gated, tick_s=0.0, max_inflight_points=2) as handle:
            host, port = handle.address

            def client(name: str, points) -> None:
                with ServiceClient(host, port) as c:
                    results[name] = c.evaluate_many(points)

            clients = [
                threading.Thread(target=client, args=("running", cold[:2])),
                threading.Thread(target=client, args=("queued", cold[2:])),
            ]
            clients[0].start()
            assert gated.entered.wait(30.0), "the cold batch never started"
            clients[1].start()
            with ServiceClient(host, port) as c:
                _poll(lambda: c.stats()["service"]["queued_requests"] == 1)
                assert c.evaluate_many(warm) == warm_reference
                stats = c.stats()
            gated.release.set()
            for t in clients:
                t.join(60.0)
        assert stats["service"]["inflight_points"] == 2
        assert stats["service"]["queued_requests"] == 1
        assert stats["scheduler"]["inline"] == 1
        assert results == {"running": reference[:2], "queued": reference[2:]}
        assert gated.calls == [2, 2]


# ---------------------------------------------------------------------------
# RemoteEvaluator (the --endpoint client adapter)
# ---------------------------------------------------------------------------


class TestKeyOnce:
    """The wire's tokens are the evaluator's key: the server decodes each
    point once and never encodes it, and a client encodes a point at
    most once however often it sends it."""

    def test_warm_request_runs_no_encoder(self, smoke_context, monkeypatch):
        from repro.nas import encoding

        calls = []
        encode_genotype = encoding.encode_genotype

        def counting(genotype):
            calls.append(threading.current_thread().name)
            return encode_genotype(genotype)

        points = _population(4, seed=23)
        evaluator = BatchEvaluator(smoke_context.fast_evaluator)
        reference = evaluator.evaluate_many(points)  # warms the LRU
        # Same candidates, new objects: nothing cached on them yet.
        fresh = [CoDesignPoint(p.genotype, p.config) for p in points]
        monkeypatch.setattr(encoding, "encode_genotype", counting)
        with start_service(evaluator) as handle:
            with ServiceClient(*handle.address) as client:
                assert client.evaluate_many(fresh) == reference
                assert len(calls) == len(fresh)  # the client, once per point
                assert client.evaluate_many(fresh) == reference
        assert len(calls) == len(fresh)
        assert set(calls) == {threading.current_thread().name}
        assert evaluator.misses == len(points)  # both requests were warm


class _TokenEvaluator:
    """Deterministic evaluator stub: each point's metrics are a fixed
    function of its tokens, so golden bytes depend on no trained weights
    and no host's BLAS.  It has the warm read, so repeats skip the queue."""

    key_of = staticmethod(BatchEvaluator.key_of)

    def __init__(self):
        self.cache: dict = {}

    def evaluate_many(self, points):
        keys = [self.key_of(p) for p in points]
        for key in keys:
            self.cache[key] = Evaluation(
                accuracy=sum(key[:40]) / 1000,
                latency_ms=1 + key[40] / 3,
                energy_mj=0.1 + key[43] / 7,
            )
        return [self.cache[key] for key in keys]

    def read_warm(self, keys, trace=None, before=None):
        if not all(key in self.cache for key in keys):
            return None
        if before is not None:
            before()
        return [self.cache[key] for key in keys]


def _recording_proxy(upstream, lines: list, port: list) -> None:
    """Relay one client connection to ``upstream`` a line at a time,
    recording every request and response line as sent."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        port.append(server.getsockname()[1])
        conn, _ = server.accept()
        with (
            conn,
            socket.create_connection(upstream) as up,
            conn.makefile("rb") as down,
            up.makefile("rb") as back,
        ):
            while line := down.readline():
                lines.append(line)
                up.sendall(line)
                lines.append(back.readline())
                conn.sendall(lines[-1])


_GOLDEN_0 = "[0,1,0,1,0,0,5,4,3,3,0,0,4,0,0,1,5,2,1,1,0,1,4,3,2,0,2,3,2,0,1,2,0,4,3,4,3,3,2,1,1,1,3,1]"
_GOLDEN_1 = "[1,0,4,5,2,0,2,1,3,3,2,1,0,1,0,0,4,2,5,1,0,1,3,1,1,2,2,2,1,1,2,5,1,4,1,0,1,1,3,1,1,4,4,2]"
_EVAL_0 = '{"accuracy":0.071,"latency_ms":1.3333333333333333,"energy_mj":0.24285714285714285}'
_EVAL_1 = '{"accuracy":0.07,"latency_ms":1.3333333333333333,"energy_mj":0.3857142857142857}'
_POINT_0 = '{"tokens":' + _GOLDEN_0 + ',"name":"golden0"}'
_POINT_1 = '{"tokens":' + _GOLDEN_1 + ',"name":"golden1"}'
#: A cold request, a warm one and a warm ``evaluate``, as the wire
#: carried them before the warm read keyed requests from their tokens.
_GOLDEN_EXCHANGE = [
    '{"v":1,"id":1,"op":"evaluate_many","points":[' + _POINT_0 + "," + _POINT_1 + "]}",
    '{"v":1,"id":1,"ok":true,"evaluations":[' + _EVAL_0 + "," + _EVAL_1 + "]}",
    '{"v":1,"id":2,"op":"evaluate_many","points":[' + _POINT_1 + "," + _POINT_0 + "]}",
    '{"v":1,"id":2,"ok":true,"evaluations":[' + _EVAL_1 + "," + _EVAL_0 + "]}",
    '{"v":1,"id":3,"op":"evaluate","point":' + _POINT_1 + "}",
    '{"v":1,"id":3,"ok":true,"evaluation":' + _EVAL_1 + "}",
]


def _bad_points(kind: str, good: list[dict]) -> object:
    """A request's ``points`` with one point malformed as ``kind``."""
    points = [dict(p, tokens=list(p["tokens"])) for p in good]
    bad = points[-1]
    if kind in ("true", "false"):
        bad["tokens"][0] = kind == "true"
    elif kind == "43 tokens":
        bad["tokens"].pop()
    elif kind == "45 tokens":
        bad["tokens"].append(0)
    elif kind == "out of range":
        bad["tokens"][SEQUENCE_LENGTH - 1] = 99
    elif kind == "name":
        bad["name"] = 7
    elif kind == "points":
        return {"0": points[0]}
    return points


class TestWireParity:
    """The warm read keys a request from its wire tokens, yet every
    request is rejected exactly as the decode rejects it, and the wire
    bytes are those of the decode-first service."""

    def test_golden_exchange_is_byte_exact(self):
        assert not get_tracer().enabled
        rng = np.random.default_rng(2024)
        points = [decode(random_sequence(rng), name=f"golden{i}") for i in range(2)]
        lines: list = []
        port: list = []
        with start_service(_TokenEvaluator()) as handle:
            proxy = threading.Thread(
                target=_recording_proxy, args=(handle.address, lines, port)
            )
            proxy.start()
            _poll(lambda: bool(port))
            with ServiceClient("127.0.0.1", port[0]) as client:
                client.evaluate_many(points)
                client.evaluate_many(points[::-1])
                client.evaluate(points[1])
            proxy.join(30.0)
            inline = handle.service.scheduler.inline
        assert lines == [(line + "\n").encode() for line in _GOLDEN_EXCHANGE]
        assert inline == 2, "the repeats were served by the warm read"

    @pytest.mark.parametrize(
        "kind",
        ["true", "false", "43 tokens", "45 tokens", "out of range", "name", "points"],
    )
    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    def test_malformed_points_are_rejected_as_the_decode_rejects_them(
        self, smoke_context, kind, warm
    ):
        fast = smoke_context.fast_evaluator
        good = [protocol.point_to_wire(p) for p in _population(3, seed=31)]
        evaluator = BatchEvaluator(fast)
        if warm:
            # Every point warm, the malformed one included: its genotype
            # and, where it still decodes, its whole key.
            evaluator.evaluate_many(protocol.points_from_wire(good))
        objs = _bad_points(kind, good)
        with pytest.raises(ProtocolError) as decoded:
            protocol.points_from_wire(objs)
        frames = [
            {"v": protocol.WIRE_VERSION, "id": 1, "op": "evaluate_many", "points": objs}
        ]
        if kind != "points":
            frames.append(
                {"v": protocol.WIRE_VERSION, "id": 2, "op": "evaluate", "point": objs[-1]}
            )
        with start_service(evaluator) as handle:
            with (
                socket.create_connection(handle.address, timeout=10.0) as sock,
                sock.makefile("rb") as reader,
            ):
                for frame in frames:
                    sock.sendall(protocol.encode_message(frame))
                    response = protocol.decode_message(reader.readline())
                    assert response == protocol.error_response(
                        frame["id"], "protocol", str(decoded.value)
                    )
            stats = handle.service.stats()
        assert stats["scheduler"]["requests"] == 0
        assert stats["service"]["rejected"] == len(frames)


class TestRemoteEvaluator:
    def test_drop_in_evaluator_shape(self, smoke_context):
        fast = smoke_context.fast_evaluator
        points = _population(6, seed=47)
        local = BatchEvaluator(fast)
        reference = local.evaluate_many(points)
        decoded = [decode(encode(p)) for p in points]
        with start_service(BatchEvaluator(fast)) as handle:
            host, port = handle.address
            with RemoteEvaluator(f"{host}:{port}") as remote:
                assert remote.evaluate_many(points) == reference
                assert remote.evaluate(points[0]) == reference[0]
                assert remote.evaluate_many(decoded) == reference
                # Cache accounting reads proxy the server-side evaluator.
                hits, misses = remote.counters()
                assert misses == len(points)
                assert hits > 0
                assert remote.cache_size > 0

    @pytest.mark.slow
    def test_report_endpoint_mode_matches_local(self, smoke_context):
        """The report path scored through a live service equals the local
        report for every experiment number (the trailing efficiency
        section embeds wall-clock and cache state, which differ by
        design).  Both runs start from a cold evaluator so the call
        compositions — and therefore every score — line up exactly."""
        from dataclasses import replace

        from repro.experiments.report import generate_report

        fast = smoke_context.fast_evaluator
        local_context = replace(
            smoke_context, batch_evaluator=BatchEvaluator(fast), workers=1
        )
        local = generate_report("smoke", seed=0, context=local_context,
                                iterations=4, correlation_models=2)
        with start_service(BatchEvaluator(fast)) as handle:
            host, port = handle.address
            remote = generate_report(
                "smoke", seed=0, context=smoke_context,
                iterations=4, correlation_models=2,
                endpoint=f"{host}:{port}",
            )
        assert "Search service: endpoint" in remote

        def sections(report: str) -> dict[str, str]:
            parts = report.split("\n## ")
            return {part.split("\n", 1)[0]: part for part in parts[1:]}

        local_sections, remote_sections = sections(local), sections(remote)
        assert set(local_sections) == set(remote_sections)
        for name in local_sections:
            # Fig. 4 embeds a wall-clock speedup column (and never touches
            # the evaluator); the efficiency and metrics sections differ
            # by design (they describe the engine, not the results).
            if name.startswith(("Fig. 4", "Evaluator efficiency", "Metrics")):
                continue
            assert remote_sections[name] == local_sections[name], (
                f"section {name!r} must be identical when scoring goes "
                "through the service"
            )
