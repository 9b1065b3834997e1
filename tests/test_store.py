"""The durable result store (``repro.store``) and its tier-2 integration.

The store's claims are *proved* here, not asserted:

* **Wire-exact roundtrips** — arbitrary valid encodings and extreme
  float values (denormal-tiny, huge, negative zero) survive append ->
  reopen -> lookup with ``repr``-identical (bit-exact) values, the same
  discipline as :mod:`repro.service.protocol`.
* **Fault injection** — a truncated tail record, a flipped
  (checksum-failing) byte, and a kill mid-append (monkeypatched partial
  write) each cost at most the bad tail; earlier records are never
  corrupted and the recovered store keeps appending.
* **Single-writer enforcement** — a second writer (thread or spawned
  process) gets :class:`~repro.store.StoreLockedError`; one instance is
  itself thread-safe under concurrent appends.
* **Warm start** — a restarted evaluator / search service on the same
  store path serves bit-identical results with zero tier-2 misses.

CI runs this module inside the tier-1 suite and as a dedicated store
job; everything here is spawn-safe and tolerant of 1-CPU hosts.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import struct
import tempfile
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nas.encoding import (
    SEQUENCE_LENGTH,
    decode,
    random_sequence,
    token_vocab_sizes,
)
from repro.store import (
    MAGIC,
    ResultStore,
    StoreError,
    StoreLockedError,
    digest,
)
from tests.test_property_invariants import _split

_U32 = struct.Struct("<I")

#: Extreme-but-representable doubles: denormal-tiny, huge, negative
#: zero, and values with no finite binary expansion.
EXTREME_FLOATS = [
    5e-324,
    -5e-324,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    -0.0,
    0.0,
    1e-308,
    0.1,
    1.0 / 3.0,
    -2.5e-10,
]


def _record_blob(namespace: str, key, values) -> bytes:
    payload = json.dumps(
        {"ns": namespace, "k": list(key), "v": list(values)},
        separators=(",", ":"),
    ).encode()
    return _U32.pack(len(payload)) + payload + _U32.pack(zlib.crc32(payload))


def _fill(path: str, n: int = 3, namespace: str = "ns") -> list[tuple]:
    """Append n distinct records and close; returns the (key, values)."""
    rng = np.random.default_rng(1234)
    rows = []
    with ResultStore(path) as store:
        for i in range(n):
            key = tuple(random_sequence(rng))
            values = (float(rng.normal()), float(rng.normal()), 0.5)
            store.append(namespace, key, values)
            rows.append((key, values))
    return rows


# ---------------------------------------------------------------------------
# Roundtrip fidelity
# ---------------------------------------------------------------------------


def _token_sequences() -> st.SearchStrategy:
    """Arbitrary valid 44-token action sequences (per-position vocab)."""
    return st.tuples(
        *[st.integers(min_value=0, max_value=v - 1) for v in token_vocab_sizes()]
    )


class TestRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(
        key=_token_sequences(),
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=4,
        ),
    )
    def test_append_reopen_lookup_is_bit_exact(self, tmp_path_factory, key, values):
        path = str(tmp_path_factory.mktemp("roundtrip") / "prop.store")
        with ResultStore(path) as store:
            store.append("eval:prop", key, values)
            assert store.get("eval:prop", key) == tuple(values)
        with ResultStore(path, mode="r") as again:
            got = again.get("eval:prop", key)
        # repr-identical == bit-identical doubles (catches -0.0 and every
        # round-off that plain == equality would let through).
        assert [repr(v) for v in got] == [repr(float(v)) for v in values]

    @pytest.mark.parametrize("value", EXTREME_FLOATS)
    def test_extreme_floats_survive_exactly(self, tmp_path, value):
        path = str(tmp_path / "extreme.store")
        key = tuple(range(SEQUENCE_LENGTH))
        with ResultStore(path) as store:
            store.append("ns", key, (value,))
        with ResultStore(path) as again:
            (got,) = again.get("ns", key)
        assert repr(got) == repr(value)

    def test_last_write_wins_and_namespaces_are_disjoint(self, tmp_path):
        path = str(tmp_path / "lww.store")
        key = tuple(random_sequence(np.random.default_rng(0)))
        with ResultStore(path) as store:
            store.append("a", key, (1.0,))
            store.append("b", key, (2.0,))
            store.append("a", key, (3.0,))
        with ResultStore(path) as again:
            assert again.get("a", key) == (3.0,)
            assert again.get("b", key) == (2.0,)
            assert again.loaded_records == 3  # the log keeps all appends
            assert len(again) == 2  # the index is last-write-wins
            assert again.namespaces() == {"a", "b"}

    def test_get_miss_and_contains_and_items(self, tmp_path):
        path = str(tmp_path / "api.store")
        rows = _fill(path, n=3)
        with ResultStore(path, mode="r") as store:
            assert store.get("ns", rows[0][0]) == rows[0][1]
            assert store.get("other", rows[0][0]) is None
            assert ("ns", rows[1][0]) in store
            assert ("nope", rows[1][0]) not in store
            assert sorted(k for _, k, _ in store.items("ns")) == sorted(
                k for k, _ in rows
            )
            assert store.lookups == 2 and store.hits == 1

    def test_read_only_mode_rejects_appends_and_missing_file(self, tmp_path):
        path = str(tmp_path / "ro.store")
        _fill(path, n=1)
        with ResultStore(path, mode="r") as store:
            with pytest.raises(StoreError, match="read-only"):
                store.append("ns", (1, 2), (3.0,))
        with pytest.raises(FileNotFoundError):
            ResultStore(str(tmp_path / "missing.store"), mode="r")

    def test_closed_store_rejects_appends(self, tmp_path):
        store = ResultStore(str(tmp_path / "closed.store"))
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreError, match="closed"):
            store.append("ns", (1,), (1.0,))

    def test_digest_is_content_sensitive_and_stable(self):
        a = np.arange(6, dtype=np.float64)
        assert digest("x", a) == digest("x", a.copy())
        assert digest("x", a) != digest("x", a + 1)
        assert digest("x", a) != digest("x", a.astype(np.float32))
        assert digest("x", a) != digest("x", a.reshape(2, 3))
        assert digest(0.1) != digest(0.2)

    def test_kernel_revision_enters_evaluator_fingerprints(
        self, monkeypatch, smoke_context, tiny_dataset
    ):
        """A store filled by other numpy kernels is another namespace."""
        from repro.accel.simulator import SystolicArraySimulator
        from repro.search.evaluator import AccurateEvaluator
        from repro.store import fingerprint

        accurate = AccurateEvaluator(
            tiny_dataset, num_cells=2, stem_channels=4, train_epochs=1,
            batch_size=16, seed=0,
        )
        fast = smoke_context.fast_evaluator
        simulator = SystolicArraySimulator()

        def fingerprints():
            return (
                fingerprint.fast_evaluator_fingerprint(fast),
                fingerprint.accurate_evaluator_fingerprint(accurate),
                fingerprint.samples_fingerprint(simulator, 2, 4, 8, 10),
            )

        before = fingerprints()
        monkeypatch.setattr(
            fingerprint, "KERNEL_REVISION", fingerprint.KERNEL_REVISION + 1
        )
        after = fingerprints()
        assert [b != a for b, a in zip(before, after)] == [True, True, True]

    def test_samples_fingerprint_covers_every_producer_input(self):
        """The ``sim:`` namespace moves with the energy model and each of
        the four expansion dims, and nothing else of a default simulator
        (two fresh ones share it)."""
        from repro.accel.energy import EnergyModel
        from repro.accel.simulator import SystolicArraySimulator
        from repro.store import samples_fingerprint

        dims = dict(num_cells=2, stem_channels=4, image_size=8, num_classes=10)

        def namespace(simulator=None, **changed):
            return "sim:" + samples_fingerprint(
                simulator or SystolicArraySimulator(), **{**dims, **changed}
            )

        base = namespace()
        assert namespace() == base
        assert namespace(SystolicArraySimulator(EnergyModel(freq_mhz=500.0))) != base
        for dim, value in dict(
            num_cells=3, stem_channels=8, image_size=16, num_classes=100
        ).items():
            assert namespace(**{dim: value}) != base, dim


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


class TestFaultInjection:
    @pytest.mark.parametrize("cut", [1, 2, 3, 5, 7, 30])
    def test_truncated_tail_record_drops_only_the_tail(self, tmp_path, cut):
        path = str(tmp_path / "trunc.store")
        rows = _fill(path, n=3)
        size = os.path.getsize(path)
        os.truncate(path, size - cut)
        with ResultStore(path) as store:
            # The torn last record is gone; the first two are intact.
            assert store.loaded_records == 2
            assert store.recovered_bytes > 0
            for key, values in rows[:2]:
                assert store.get("ns", key) == values
            assert store.get("ns", rows[2][0]) is None
            # The truncated log extends cleanly.
            store.append("ns", rows[2][0], rows[2][1])
        with ResultStore(path) as again:
            assert again.recovered_bytes == 0
            assert again.get("ns", rows[2][0]) == rows[2][1]

    def test_flipped_byte_in_last_record_fails_checksum(self, tmp_path):
        path = str(tmp_path / "flip.store")
        rows = _fill(path, n=3)
        blob_len = len(_record_blob("ns", rows[2][0], rows[2][1]))
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:  # flip one payload byte
            handle.seek(size - blob_len + _U32.size + 4)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with ResultStore(path) as store:
            assert store.loaded_records == 2
            assert store.recovered_bytes == blob_len
            for key, values in rows[:2]:
                assert store.get("ns", key) == values

    def test_flipped_byte_mid_log_never_serves_corrupt_data(self, tmp_path):
        path = str(tmp_path / "mid.store")
        rows = _fill(path, n=3)
        blob_len = len(_record_blob("ns", rows[0][0], rows[0][1]))
        with open(path, "r+b") as handle:  # corrupt record #2's payload
            handle.seek(len(MAGIC) + blob_len + _U32.size + 4)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with ResultStore(path) as store:
            # Prefix discipline: everything from the corrupt record on is
            # the "tail"; record #1 survives, nothing corrupt is served.
            assert store.loaded_records == 1
            assert store.get("ns", rows[0][0]) == rows[0][1]
            assert store.get("ns", rows[1][0]) is None
            assert store.get("ns", rows[2][0]) is None

    def test_checksum_valid_garbage_payload_ends_the_scan(self, tmp_path):
        path = str(tmp_path / "garbage.store")
        rows = _fill(path, n=1)
        payload = b"not a json object"
        with open(path, "ab") as handle:
            handle.write(
                _U32.pack(len(payload)) + payload + _U32.pack(zlib.crc32(payload))
            )
        with ResultStore(path) as store:
            assert store.loaded_records == 1
            assert store.get("ns", rows[0][0]) == rows[0][1]

    def test_oversized_length_prefix_is_a_torn_tail(self, tmp_path):
        path = str(tmp_path / "length.store")
        rows = _fill(path, n=1)
        with open(path, "ab") as handle:
            handle.write(_U32.pack(0xFFFFFFFF) + b"xx")
        with ResultStore(path) as store:
            assert store.loaded_records == 1
            assert store.get("ns", rows[0][0]) == rows[0][1]

    def test_bad_magic_is_refused(self, tmp_path):
        path = str(tmp_path / "magic.store")
        with open(path, "wb") as handle:
            handle.write(b"NOT-A-STORE!\n" + b"x" * 32)
        with pytest.raises(StoreError, match="bad magic"):
            ResultStore(path)

    def test_empty_file_readonly_is_refused_but_writer_initialises(self, tmp_path):
        path = str(tmp_path / "empty.store")
        open(path, "wb").close()
        with pytest.raises(StoreError, match="empty"):
            ResultStore(path, mode="r")
        with ResultStore(path) as store:  # writer writes the header
            assert len(store) == 0
        with ResultStore(path, mode="r") as store:
            assert len(store) == 0

    def test_kill_mid_append_rolls_back_and_recovers(self, tmp_path, monkeypatch):
        path = str(tmp_path / "kill.store")
        rows = _fill(path, n=2)
        store = ResultStore(path)
        real_write = ResultStore._write_bytes

        def torn_write(self, blob):  # the process "dies" half way through
            real_write(self, blob[: len(blob) // 2])
            raise OSError("killed mid-append")

        monkeypatch.setattr(ResultStore, "_write_bytes", torn_write)
        key = tuple(random_sequence(np.random.default_rng(9)))
        with pytest.raises(OSError, match="killed"):
            store.append("ns", key, (1.25,))
        monkeypatch.setattr(ResultStore, "_write_bytes", real_write)
        # The failed append was rolled back: not in the index, and the
        # on-disk log is clean — the next append extends it normally.
        assert store.get("ns", key) is None
        store.append("ns", key, (1.25,))
        store.close()
        with ResultStore(path) as again:
            assert again.recovered_bytes == 0
            assert again.get("ns", key) == (1.25,)
            for k, v in rows:
                assert again.get("ns", k) == v

    def test_kill_mid_append_without_rollback_breaks_the_writer(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "broken.store")
        rows = _fill(path, n=1)
        store = ResultStore(path)

        def torn_write(self, blob):
            raise OSError("killed mid-append")

        monkeypatch.setattr(ResultStore, "_write_bytes", torn_write)
        monkeypatch.setattr(
            os, "ftruncate", lambda *a: (_ for _ in ()).throw(OSError("no"))
        )
        with pytest.raises(OSError, match="killed"):
            store.append("ns", (1, 2), (3.0,))
        monkeypatch.undo()
        # Rollback failed -> the writer refuses to write after a possibly
        # torn record, but reads keep working.
        with pytest.raises(StoreError, match="broken"):
            store.append("ns", (1, 2), (3.0,))
        assert store.get("ns", rows[0][0]) == rows[0][1]
        store.close()
        with ResultStore(path) as again:  # reopening recovers
            again.append("ns", (1, 2), (3.0,))
            assert again.get("ns", rows[0][0]) == rows[0][1]


# ---------------------------------------------------------------------------
# Concurrency: single-writer locking, thread-safe appends
# ---------------------------------------------------------------------------


def _open_writer_in_child(path: str, queue) -> None:
    """Spawn target: report whether a second writer open is refused."""
    import repro.store as store_mod

    try:
        with store_mod.ResultStore(path) as store:
            queue.put(("opened", len(store)))
    except store_mod.StoreLockedError:
        queue.put(("locked", None))
    except Exception as exc:  # pragma: no cover - diagnostic path
        queue.put(("error", repr(exc)))


class TestConcurrency:
    def test_second_writer_same_process_is_locked_out(self, tmp_path):
        path = str(tmp_path / "lock.store")
        with ResultStore(path):
            with pytest.raises(StoreLockedError):
                ResultStore(path)
        with ResultStore(path):  # lock released on close
            pass

    def test_second_writer_thread_is_locked_out(self, tmp_path):
        path = str(tmp_path / "lockthread.store")
        outcome: dict = {}

        def try_open():
            try:
                ResultStore(path).close()
                outcome["result"] = "opened"
            except StoreLockedError:
                outcome["result"] = "locked"

        with ResultStore(path):
            thread = threading.Thread(target=try_open)
            thread.start()
            thread.join(30)
        assert outcome["result"] == "locked"

    def test_second_writer_process_is_locked_out(self, tmp_path):
        path = str(tmp_path / "lockproc.store")
        _fill(path, n=1)
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        with ResultStore(path):
            child = ctx.Process(target=_open_writer_in_child, args=(path, queue))
            child.start()
            outcome = queue.get(timeout=60)
            child.join(60)
        assert outcome == ("locked", None)
        # With the parent's writer closed, the child's open succeeds.
        child = ctx.Process(target=_open_writer_in_child, args=(path, queue))
        child.start()
        outcome = queue.get(timeout=60)
        child.join(60)
        assert outcome == ("opened", 1)

    def test_reader_is_not_locked_out(self, tmp_path):
        path = str(tmp_path / "reader.store")
        rows = _fill(path, n=2)
        with ResultStore(path) as writer:
            with ResultStore(path, mode="r") as reader:
                assert reader.get("ns", rows[0][0]) == rows[0][1]
            writer.append("ns2", (1,), (2.0,))

    def test_concurrent_appends_on_one_instance_are_all_durable(self, tmp_path):
        path = str(tmp_path / "threads.store")
        per_thread = 100
        with ResultStore(path) as store:
            def append_range(base: int) -> None:
                for i in range(per_thread):
                    store.append("t", (base, i), (float(base), float(i)))

            threads = [
                threading.Thread(target=append_range, args=(base,))
                for base in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert store.appends == 2 * per_thread
        with ResultStore(path, mode="r") as again:
            assert again.loaded_records == 2 * per_thread
            for base in range(2):
                for i in range(per_thread):
                    assert again.get("t", (base, i)) == (float(base), float(i))


# ---------------------------------------------------------------------------
# Tier-2 integration: evaluator warm start, byte-identical store-off mode
# ---------------------------------------------------------------------------


def _token_batch(n: int, seed: int = 77) -> list[tuple]:
    rng = np.random.default_rng(seed)
    return [tuple(random_sequence(rng)) for _ in range(n)]


def _point_batch(n: int, seed: int = 77) -> list:
    return [decode(list(tokens)) for tokens in _token_batch(n, seed)]


class TestEvaluatorTier:
    def test_warm_restart_is_bit_identical_with_zero_misses(
        self, tmp_path, smoke_context
    ):
        from repro.search.evaluator import BatchEvaluator

        path = str(tmp_path / "tier.store")
        fast = smoke_context.fast_evaluator
        points = _point_batch(20)

        cold_eval = BatchEvaluator(fast)
        with ResultStore(path) as store:
            cold_eval.attach_store(store)
            cold = cold_eval.evaluate_many(points)
            assert cold_eval.store_hits == 0
            assert cold_eval.store_misses == len(points)
            assert store.appends == len(points)

        warm_eval = BatchEvaluator(fast)  # a "restarted" evaluator: cold LRU
        with ResultStore(path) as store:
            warm_eval.attach_store(store)
            warm = warm_eval.evaluate_many(points)
        assert warm_eval.store_misses == 0
        assert warm_eval.store_hits == len(points)
        assert warm_eval.store_hit_rate >= 0.9  # the acceptance bar (== 1.0)
        for c, w in zip(cold, warm):
            assert repr(c.accuracy) == repr(w.accuracy)
            assert repr(c.latency_ms) == repr(w.latency_ms)
            assert repr(c.energy_mj) == repr(w.energy_mj)

    def test_store_off_mode_is_byte_identical(self, smoke_context):
        from repro.search.evaluator import BatchEvaluator

        fast = smoke_context.fast_evaluator
        points = _point_batch(12, seed=5)
        plain = BatchEvaluator(fast)
        results = plain.evaluate_many(points + points[:4])
        assert plain.store is None
        assert plain.store_hits == 0 and plain.store_misses == 0
        assert plain.store_hit_rate == 0.0
        # LRU counters keep their documented store-less semantics.
        assert plain.misses == len(points) and plain.hits == 4

        other = BatchEvaluator(fast)
        again = other.evaluate_many(points + points[:4])
        assert [r.accuracy for r in results] == [r.accuracy for r in again]

    def test_off_grid_points_bypass_the_store(self, tmp_path, smoke_context):
        from repro.accel.config import AcceleratorConfig
        from repro.nas.encoding import CoDesignPoint
        from repro.search.evaluator import BatchEvaluator

        fast = smoke_context.fast_evaluator
        on_grid = decode(list(_token_batch(1, seed=3)[0]), name="ongrid")
        off_grid = CoDesignPoint(
            genotype=on_grid.genotype,
            # A valid config that is NOT on the Table 1 choice grids.
            config=AcceleratorConfig(
                pe_rows=5, pe_cols=7, gbuf_kb=100, rbuf_bytes=100, dataflow="OS"
            ),
        )
        evaluator = BatchEvaluator(fast)
        with ResultStore(str(tmp_path / "offgrid.store")) as store:
            evaluator.attach_store(store)
            evaluator.evaluate_many([on_grid, off_grid])
            # Only the on-grid candidate is store-eligible.
            assert evaluator.store_misses == 1
            assert store.appends == 1

    def test_namespace_scopes_results_to_the_producer(self, tmp_path, smoke_context):
        from repro.search.evaluator import BatchEvaluator

        fast = smoke_context.fast_evaluator
        points = _point_batch(4, seed=11)
        with ResultStore(str(tmp_path / "ns.store")) as store:
            first = BatchEvaluator(fast)
            first.attach_store(store, namespace="eval:producer-a")
            first.evaluate_many(points)
            # A different producing context must not see those records.
            second = BatchEvaluator(fast)
            second.attach_store(store, namespace="eval:producer-b")
            second.evaluate_many(points)
            assert second.store_hits == 0
            assert second.store_misses == len(points)


_REPLAY_DIMS = dict(num_cells=2, stem_channels=4, image_size=8)


@functools.lru_cache(maxsize=1)
def _replay_fast():
    """A small, untrained FastEvaluator that any process rebuilds
    identically, so its default store namespace matches across processes."""
    from repro.nas.hypernet import HyperNet
    from repro.nn.data import SyntheticCifar
    from repro.predict.dataset import collect_samples
    from repro.search.evaluator import FastEvaluator

    hypernet = HyperNet(
        num_cells=2, stem_channels=4, num_classes=10, rng=np.random.default_rng(0)
    )
    dataset = SyntheticCifar(
        image_size=8, train_size=16, val_size=16, test_size=8, seed=0
    )
    samples = collect_samples(20, seed=0, **_REPLAY_DIMS)
    return FastEvaluator.from_samples(
        hypernet, dataset, samples, eval_batch=16, **_REPLAY_DIMS
    )


#: The distinct candidates a replayed multiset is drawn from.
_REPLAY_POOL = 6


@functools.lru_cache(maxsize=1)
def _replay_oracle() -> list[tuple]:
    """The per-point ``FastEvaluator.evaluate`` value of every pool point."""
    fast = _replay_fast()
    return [_values(fast.evaluate(p)) for p in _point_batch(_REPLAY_POOL, seed=31)]


def _values(evaluation) -> tuple:
    return (evaluation.accuracy, evaluation.latency_ms, evaluation.energy_mj)


def _replay(path: str, parts: list[list[int]]) -> tuple[list[tuple], object]:
    """Evaluate the pool indices of ``parts`` as consecutive
    ``evaluate_many`` calls of one fresh BatchEvaluator on the store at
    ``path``; returns the values in order and the evaluator."""
    from repro.search.evaluator import BatchEvaluator

    pool = _point_batch(_REPLAY_POOL, seed=31)
    evaluator = BatchEvaluator(_replay_fast())
    values: list[tuple] = []
    with ResultStore(path) as store:
        evaluator.attach_store(store)
        for part in parts:
            values += map(_values, evaluator.evaluate_many([pool[i] for i in part]))
    return values, evaluator


def _replay_in_child(path: str, parts: list[list[int]], queue) -> None:
    """Spawn target: replay ``parts`` from the store, report the values
    and the evaluator's store counters."""
    try:
        values, evaluator = _replay(path, parts)
        queue.put((values, evaluator.store_hits, evaluator.store_misses))
    except Exception as exc:  # pragma: no cover - diagnostic path
        queue.put(("error", repr(exc)))


_MULTISETS = st.lists(st.integers(0, _REPLAY_POOL - 1), min_size=1, max_size=10)
_CUTS = st.lists(st.booleans(), min_size=9, max_size=9)


class TestStoreReplay:
    """A point multiset evaluated cold with a store attached, over any
    partition into consecutive calls, replays from the store ``==`` the
    per-point oracle, with one store hit per unique key the store holds."""

    @given(indices=_MULTISETS, cuts=_CUTS)
    @settings(deadline=None, max_examples=25)
    def test_replay_in_process_equals_the_oracle(self, indices, cuts):
        oracle = _replay_oracle()
        expected = [oracle[i] for i in indices]
        parts = _split(indices, cuts)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "replay.store")
            cold, cold_eval = _replay(path, parts)
            assert cold == expected
            assert cold_eval.store_misses == len(set(indices))
            warm, warm_eval = _replay(path, parts)
        assert warm == expected
        assert warm_eval.store_hits == len(set(indices))
        assert warm_eval.store_misses == 0

    def test_replay_in_a_spawned_process_equals_the_oracle(self, tmp_path):
        oracle = _replay_oracle()
        parts = [[0, 1, 0], [2], [3, 1, 4, 4], [5, 0]]
        path = str(tmp_path / "spawned.store")
        _replay(path, parts)
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        child = ctx.Process(target=_replay_in_child, args=(path, parts, queue))
        child.start()
        outcome = queue.get(timeout=120)
        child.join(60)
        assert child.exitcode == 0
        assert len(outcome) == 3, outcome
        values, store_hits, store_misses = outcome
        assert values == [oracle[i] for part in parts for i in part]
        assert (store_hits, store_misses) == (_REPLAY_POOL, 0)

    @given(indices=_MULTISETS, cuts=_CUTS, cut=st.integers(1, 40))
    @settings(deadline=None, max_examples=25)
    def test_replay_after_a_torn_tail_recomputes_only_the_dropped_key(
        self, indices, cuts, cut
    ):
        oracle = _replay_oracle()
        expected = [oracle[i] for i in indices]
        parts = _split(indices, cuts)
        unique = len(set(indices))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "torn.store")
            _replay(path, parts)
            os.truncate(path, os.path.getsize(path) - cut)
            with ResultStore(path, mode="r") as store:
                assert store.loaded_records == unique - 1
            warm, warm_eval = _replay(path, parts)
            with ResultStore(path, mode="r") as store:
                assert store.loaded_records == unique
        assert warm == expected
        assert warm_eval.store_hits == unique - 1
        assert warm_eval.store_misses == 1


class TestSampleAndTrainingTier:
    def test_collect_samples_warm_start_is_bit_identical(self, tmp_path):
        from repro.predict.dataset import collect_samples

        path = str(tmp_path / "samples.store")
        with ResultStore(path) as store:
            cold = collect_samples(
                12, seed=4, num_cells=2, stem_channels=4, image_size=8, store=store
            )
            assert store.appends == 12
        with ResultStore(path) as store:
            warm = collect_samples(
                12, seed=4, num_cells=2, stem_channels=4, image_size=8, store=store
            )
            assert store.appends == 0  # nothing simulated
            assert store.hits == 12
        off = collect_samples(12, seed=4, num_cells=2, stem_channels=4, image_size=8)
        for dataset in (warm, off):
            assert np.array_equal(cold.latency_ms, dataset.latency_ms)
            assert np.array_equal(cold.energy_mj, dataset.energy_mj)
            assert np.array_equal(cold.x, dataset.x)

    def test_train_accuracy_reuses_persisted_results(self, tmp_path, tiny_dataset):
        from repro.nas.encoding import decode
        from repro.search.evaluator import AccurateEvaluator

        path = str(tmp_path / "train.store")
        point = decode(list(_token_batch(1, seed=21)[0]), name="trainee")

        def make_evaluator():
            return AccurateEvaluator(
                tiny_dataset,
                num_cells=2,
                stem_channels=4,
                train_epochs=1,
                batch_size=16,
                seed=3,
            )

        first = make_evaluator()
        with ResultStore(path) as store:
            first.attach_store(store)
            cold = first.train_accuracy(point)
            assert (first.store_hits, first.store_misses) == (0, 1)
            other_seed = first.train_accuracy(point, seed=9)  # new key
            assert first.store_misses == 2

        second = make_evaluator()
        with ResultStore(path) as store:
            second.attach_store(store)
            assert repr(second.train_accuracy(point)) == repr(cold)
            assert repr(second.train_accuracy(point, seed=9)) == repr(other_seed)
            assert (second.store_hits, second.store_misses) == (2, 0)
            assert store.appends == 0

    def test_pool_path_partitions_hits_in_the_parent(self, tmp_path, tiny_dataset):
        """Sharded training consults the store inside each thread's
        ``train_accuracy``: a warm store means no training runs at all,
        and the hit/miss counters stay exact under concurrency."""
        from repro.nas.encoding import decode
        from repro.obs.registry import get_registry
        from repro.parallel.training import train_accuracies
        from repro.search.evaluator import AccurateEvaluator

        path = str(tmp_path / "pool.store")
        points = [
            decode(list(key), name=f"pool{i}")
            for i, key in enumerate(_token_batch(3, seed=31))
        ]
        accurate = AccurateEvaluator(
            tiny_dataset, num_cells=2, stem_channels=4, train_epochs=1,
            batch_size=16, seed=0,
        )
        runs = get_registry().counter("training.runs")

        with ResultStore(path) as store:
            accurate.attach_store(store)
            before = runs.value
            cold = train_accuracies(accurate, points, workers=2)
            assert runs.value - before == 3
            assert store.appends == 3
            assert (accurate.store_hits, accurate.store_misses) == (0, 3)

            before = runs.value
            warm = train_accuracies(accurate, points, workers=2)
            assert runs.value == before  # fully warm: nothing trains
            assert (accurate.store_hits, accurate.store_misses) == (3, 3)
            assert [repr(a) for a in warm] == [repr(a) for a in cold]


# ---------------------------------------------------------------------------
# Service restart warm start
# ---------------------------------------------------------------------------


class TestServiceWarmStart:
    def test_restarted_service_serves_bit_identical_results(
        self, tmp_path, smoke_context
    ):
        from repro.nas.encoding import decode
        from repro.search.evaluator import BatchEvaluator
        from repro.service import RemoteEvaluator, start_service

        path = str(tmp_path / "service.store")
        fast = smoke_context.fast_evaluator
        points = [
            decode(list(key), name=f"svc{i}")
            for i, key in enumerate(_token_batch(16, seed=41))
        ]

        first = BatchEvaluator(fast)
        with ResultStore(path) as store:
            with start_service(first, store=store, tick_s=0.001) as handle:
                host, port = handle.address
                with RemoteEvaluator(f"{host}:{port}") as remote:
                    cold = remote.evaluate_many(points)
                    stats = remote.service_stats()
        assert first.store_misses == len(points)
        assert stats["store"]["appends"] == len(points)
        assert first.store.closed  # closed by its opener, after the drain

        second = BatchEvaluator(fast)  # restart: fresh process-like state
        with ResultStore(path) as store:
            with start_service(second, store=store, tick_s=0.001) as handle:
                host, port = handle.address
                with RemoteEvaluator(f"{host}:{port}") as remote:
                    warm = remote.evaluate_many(points)
                    stats = remote.service_stats()
        assert second.store_misses == 0  # zero evaluator misses on restart
        assert second.store_hits == len(points)
        assert stats["evaluator"]["store_hit_rate"] >= 0.9
        assert stats["store"]["loaded_records"] == len(points)
        for c, w in zip(cold, warm):
            assert repr(c.accuracy) == repr(w.accuracy)
            assert repr(c.latency_ms) == repr(w.latency_ms)
            assert repr(c.energy_mj) == repr(w.energy_mj)

    def test_service_with_shared_store_syncs_but_does_not_close(
        self, tmp_path, smoke_context
    ):
        from repro.search.evaluator import BatchEvaluator
        from repro.service import start_service

        path = str(tmp_path / "shared.store")
        fast = smoke_context.fast_evaluator
        with ResultStore(path) as store:
            evaluator = BatchEvaluator(fast)
            with start_service(evaluator, store=store) as handle:
                handle.shutdown()
            assert not store.closed  # caller keeps the lifecycle
            assert evaluator.store is store  # attached by the service
