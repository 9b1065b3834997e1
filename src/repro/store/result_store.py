"""Durable encoding-keyed result store: an append-only checksummed log.

The tier-2 cache behind every evaluator LRU in the stack.  One store file
holds ``(namespace, key, values)`` records, where the key is a tuple of
integers — in practice the canonical 44-token action-sequence encoding
the evaluator caches already key on (:func:`repro.nas.encoding.encode`),
the 40 genotype tokens plus a seed for trained accuracies, and the 44
tokens again for simulator ground-truth samples.  Namespaces carry a
content fingerprint of the producing context (HyperNet weights, GP state,
training recipe — see :mod:`repro.store.fingerprint`), so results from
one context can never be served to another.

On-disk format — a 13-byte magic header followed by self-delimiting
records::

    YOSO-STORE-1\n
    <u32 payload-length> <payload bytes> <u32 crc32(payload)>
    ...

The payload is one compact JSON object ``{"ns": str, "k": [int, ...],
"v": [float, ...]}``.  ``json`` serialises floats with ``repr`` (the
shortest round-tripping form) and parses them back exactly, so stored
values survive append -> reopen -> lookup with ``==`` equality — the same
wire-exactness discipline as :mod:`repro.service.protocol`.

Durability model:

* **Appends are atomic at the record level.**  Each append is a single
  ``os.write`` of the fully assembled record (no userspace buffering); a
  failed or partial write is rolled back by truncating to the last good
  offset, and if even the rollback fails the store marks itself broken
  and refuses further appends (reads keep working) instead of ever
  writing after a torn record.
* **Recovery drops only the bad tail.**  Opening a store scans the log
  record by record; the first torn, truncated or checksum-failing record
  ends the scan, everything before it is served, and (in writer mode)
  the file is truncated back to the last good record so the next append
  extends a clean log.  Earlier records are never touched.
* **Single writer, enforced.**  The writer holds an exclusive
  ``flock`` on the file for its lifetime; a second writer — thread or
  process — gets :class:`StoreLockedError` instead of interleaving
  appends.  One open :class:`ResultStore` instance is itself
  thread-safe (appends serialise on an internal lock), which is how the
  service's scheduler worker thread and any in-process callers share it.
  ``mode="r"`` opens a lock-free read-only snapshot.
* **``sync()`` is the flush point.**  Appends reach the OS immediately;
  ``sync``/``close`` add an ``fsync``.  The service calls it on drain.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from typing import Iterator

from ..obs.registry import get_registry
from ..resilience import faults

try:  # pragma: no cover - always present on the POSIX hosts we target
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (no inter-
    fcntl = None  # process enforcement; in-process locking still applies)

__all__ = [
    "MAGIC",
    "MAX_RECORD_BYTES",
    "StoreError",
    "StoreLockedError",
    "ResultStore",
]

#: File magic: identifies (and versions) the record format.
MAGIC = b"YOSO-STORE-1\n"

#: Sanity bound on one record's payload; a corrupt length field larger
#: than this is treated as a torn tail rather than followed off a cliff.
MAX_RECORD_BYTES = 16 * 1024 * 1024

_U32 = struct.Struct("<I")

# Process-wide mirrors of the per-instance lifetime counters (a process
# can hold several stores; the registry aggregates them).
_REGISTRY = get_registry()
_M_APPENDS = _REGISTRY.counter("store.appends")
_M_LOOKUPS = _REGISTRY.counter("store.lookups")
_M_HITS = _REGISTRY.counter("store.hits")


class StoreError(RuntimeError):
    """The store file is unusable (bad magic, closed, or broken writer)."""


class StoreLockedError(StoreError):
    """Another writer already holds this store file."""


def _encode_record(namespace: str, key: tuple, values: tuple) -> bytes:
    payload = json.dumps(
        {"ns": namespace, "k": list(key), "v": list(values)},
        separators=(",", ":"),
    ).encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise StoreError(f"record payload exceeds {MAX_RECORD_BYTES} bytes")
    return _U32.pack(len(payload)) + payload + _U32.pack(zlib.crc32(payload))


def _decode_payload(payload: bytes) -> tuple[str, tuple, tuple]:
    obj = json.loads(payload)
    namespace = obj["ns"]
    key = tuple(int(k) for k in obj["k"])
    values = tuple(float(v) for v in obj["v"])
    if not isinstance(namespace, str):
        raise ValueError("record namespace must be a string")
    return namespace, key, values


class ResultStore:
    """One append-only result log plus its in-memory index.

    ``mode="a"`` (default) opens for append — creating the file if needed,
    recovering a torn tail, and taking the exclusive writer lock.
    ``mode="r"`` opens a read-only snapshot of the valid prefix (no lock,
    no truncation; a torn tail is ignored, not repaired).

    Lookups and appends go through the in-memory index, a
    ``(namespace, key) -> values`` dict built once at open; later records
    override earlier ones (last-write-wins), so re-appending a key is
    legal and cheap.
    """

    def __init__(self, path: str, mode: str = "a", retry=None) -> None:
        if mode not in ("a", "r"):
            raise ValueError(f"mode must be 'a' or 'r', got {mode!r}")
        self.path = os.path.abspath(path)
        self.mode = mode
        #: Optional :class:`~repro.resilience.policy.RetryPolicy` for
        #: appends: a retryable write failure is rolled back (truncate to
        #: the last good offset) and re-attempted after backoff, so a
        #: transient I/O blip does not lose a result.  ``None`` (default)
        #: preserves fail-fast semantics.
        self.retry = retry
        self._lock = threading.Lock()
        self._index: dict[tuple[str, tuple], tuple] = {}
        self._closed = False
        self._broken = False
        #: Bytes of torn tail dropped during open-time recovery.
        self.recovered_bytes = 0
        #: Valid records loaded at open (before any new appends).
        self.loaded_records = 0
        #: Lifetime counters.
        self.appends = 0
        self.lookups = 0
        self.hits = 0
        #: Appends that succeeded only after a rolled-back re-attempt.
        self.retried_appends = 0

        flags = os.O_RDONLY if mode == "r" else os.O_RDWR | os.O_CREAT
        self._fd = os.open(self.path, flags, 0o644)
        try:
            if mode == "a":
                self._acquire_flock()
            self._size = self._scan()
        except BaseException:
            os.close(self._fd)
            raise

    # -- open-time scan / recovery --------------------------------------
    def _acquire_flock(self) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX
            return
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            raise StoreLockedError(
                f"{self.path} is already open for writing "
                f"(single-writer store)"
            ) from exc

    def _scan(self) -> int:
        """Load every valid record; return the end offset of the good log."""
        size = os.fstat(self._fd).st_size
        if size == 0:
            if self.mode == "r":
                raise StoreError(f"{self.path} is empty (no store header)")
            os.pwrite(self._fd, MAGIC, 0)
            return len(MAGIC)
        data = b""
        offset = 0
        while offset < size:
            chunk = os.pread(self._fd, min(size - offset, 1 << 24), offset)
            if not chunk:
                break
            data += chunk
            offset += len(chunk)
        if data[: len(MAGIC)] != MAGIC:
            raise StoreError(
                f"{self.path} is not a YOSO result store (bad magic)"
            )
        good = len(MAGIC)
        while good < len(data):
            header_end = good + _U32.size
            if header_end > len(data):
                break  # torn length prefix
            (length,) = _U32.unpack(data[good:header_end])
            if length > MAX_RECORD_BYTES:
                break  # corrupt length field
            record_end = header_end + length + _U32.size
            if record_end > len(data):
                break  # truncated payload or checksum
            payload = data[header_end : header_end + length]
            (crc,) = _U32.unpack(data[record_end - _U32.size : record_end])
            if crc != zlib.crc32(payload):
                break  # flipped bytes
            try:
                namespace, key, values = _decode_payload(payload)
            except (ValueError, KeyError, TypeError):
                break  # checksum ok but payload not a record (torn write)
            self._index[(namespace, key)] = values
            self.loaded_records += 1
            good = record_end
        if good < len(data):
            self.recovered_bytes = len(data) - good
            if self.mode == "a":
                os.ftruncate(self._fd, good)
        return good

    # -- writing ---------------------------------------------------------
    def _write_bytes(self, blob: bytes) -> None:
        """Append raw bytes at the end of the log (single syscall path).

        Split out so fault-injection tests can monkeypatch a partial,
        failing write — the kill-mid-append scenario.
        """
        view = memoryview(blob)
        written = 0
        while written < len(view):
            written += os.pwrite(self._fd, view[written:], self._size + written)

    def append(self, namespace: str, key, values) -> None:
        """Durably record ``values`` under ``(namespace, key)``.

        ``key`` is a sequence of integers, ``values`` a sequence of
        floats; both round-trip exactly.  Raises :class:`StoreError` on a
        read-only, closed or broken store; a failed write is rolled back
        (or the store marked broken) so the on-disk log never gains a
        torn interior record.
        """
        key = tuple(int(k) for k in key)
        values = tuple(float(v) for v in values)
        blob = _encode_record(namespace, key, values)
        with self._lock:
            if self._closed:
                raise StoreError("store is closed")
            if self.mode == "r":
                raise StoreError("store is read-only")
            if self._broken:
                raise StoreError(
                    "store writer is broken (a previous append failed and "
                    "could not be rolled back); reopen the store to recover"
                )
            attempt = 1
            t0 = time.monotonic()
            while True:
                try:
                    faults.hit("store.append")
                    self._write_bytes(blob)
                    break
                except BaseException as exc:
                    # Roll back FIRST — whatever happens next, the log
                    # must never gain a torn interior record.  A failed
                    # rollback marks the writer broken and surfaces the
                    # ORIGINAL write error (never retried: the log state
                    # is unknown).
                    try:
                        os.ftruncate(self._fd, self._size)
                    except OSError:
                        self._broken = True
                        raise exc
                    if self.retry is None or not self.retry.should_retry(
                        exc, attempt, time.monotonic() - t0
                    ):
                        raise
                    # Appends already serialise on this lock, so backing
                    # off while holding it blocks only other writers —
                    # which could not proceed anyway.
                    # yoso-lint: disable=lock-discipline -- see above: writers
                    # are serialised by design, readers never take this lock
                    self.retry.sleep_before_retry(attempt)
                    self.retried_appends += 1
                    attempt += 1
            self._size += len(blob)
            self._index[(namespace, key)] = values
            self.appends += 1
        _M_APPENDS.inc()

    def sync(self) -> None:
        """fsync the log (appends already hit the OS synchronously)."""
        with self._lock:
            if not self._closed and self.mode == "a":
                # yoso-lint: disable=lock-discipline -- durability: the fsync
                # must cover every append that returned, so it cannot race a
                # concurrent writer appending to the same fd
                os.fsync(self._fd)

    # -- reading ---------------------------------------------------------
    def get(self, namespace: str, key) -> tuple | None:
        """The stored values for ``(namespace, key)``, or ``None``."""
        values = self._index.get((namespace, tuple(int(k) for k in key)))
        self.lookups += 1
        _M_LOOKUPS.inc()
        if values is not None:
            self.hits += 1
            _M_HITS.inc()
        return values

    def __contains__(self, ns_key: tuple) -> bool:
        namespace, key = ns_key
        return (namespace, tuple(int(k) for k in key)) in self._index

    def items(self, namespace: str | None = None) -> Iterator[tuple]:
        """Iterate ``(namespace, key, values)`` (optionally one namespace)."""
        for (ns, key), values in self._index.items():
            if namespace is None or ns == namespace:
                yield ns, key, values

    def namespaces(self) -> set[str]:
        return {ns for ns, _key in self._index}

    def __len__(self) -> int:
        return len(self._index)

    @property
    def size_bytes(self) -> int:
        """Current length of the on-disk log."""
        return self._size

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """fsync, release the writer lock and close the file (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                if self.mode == "a":
                    try:
                        # yoso-lint: disable=lock-discipline -- final flush at
                        # close; the lock must stay held so no append can land
                        # between the fsync and releasing the flock
                        os.fsync(self._fd)
                    except OSError:  # pragma: no cover - fsync on odd fs
                        pass
                    if fcntl is not None:
                        try:
                            fcntl.flock(self._fd, fcntl.LOCK_UN)
                        except OSError:  # pragma: no cover
                            pass
            finally:
                os.close(self._fd)

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def stats(self) -> dict:
        """A JSON-ready snapshot (service ``stats`` verb, report CLI)."""
        return {
            "path": self.path,
            "mode": self.mode,
            "records": len(self._index),
            "loaded_records": self.loaded_records,
            "appends": self.appends,
            "retried_appends": self.retried_appends,
            "lookups": self.lookups,
            "hits": self.hits,
            "size_bytes": self._size,
            "recovered_bytes": self.recovered_bytes,
        }
