"""Versioned wire codec for the search-evaluation service.

The service speaks newline-delimited JSON (NDJSON) over a stream: one
request object per line in, one response object per line out.  Every
message carries the wire version (``"v"``) and requests carry a caller
``"id"`` that the matching response echoes, so a client can pipeline.

Co-design points travel as their canonical 44-token action sequence
(:attr:`repro.nas.encoding.CoDesignPoint.tokens`) plus the genotype name
— the exact key the evaluator caches on.  The server keys a request
straight from its token lists (:func:`wire_keys`) and decodes a point
(:func:`points_from_wire`) only when the evaluator's caches miss it; a
decoded point scores *bit-identically* to the caller's original and is
never encoded again.  Tokens must be JSON integers; ``true``/``false``
are rejected, not read as 1/0, on both paths.  Evaluations
travel as their three floats; ``json`` serialises Python floats with
``repr`` (shortest round-tripping form), so values survive the wire
without any loss — the parity tests assert ``==`` across the socket, no
tolerances.

Requests::

    {"v": 1, "id": 7, "op": "evaluate",      "point": {...}}
    {"v": 1, "id": 8, "op": "evaluate_many", "points": [{...}, ...]}
    {"v": 1, "id": 9, "op": "stats"}
    {"v": 1, "id": 10, "op": "health"}
    {"v": 1, "id": 11, "op": "shutdown"}

Responses::

    {"v": 1, "id": 8, "ok": true,  "evaluations": [{...}, ...]}
    {"v": 1, "id": 9, "ok": true,  "stats": {...}}
    {"v": 1, "id": 7, "ok": false, "error": {"type": "...", "message": "..."}}

Any request may additionally carry an OPTIONAL ``"trace"`` field —
``{"id": "<trace-id>", "span": "<parent-span-id>"}`` — linking the
server-side spans into the caller's trace; the matching response echoes
``{"id": "<trace-id>"}`` back.  Absent means untraced.  Because
:func:`decode_message` checks the version and ignores unknown fields,
the field is wire-version-compatible in both directions: an old peer
simply never sees it.
"""

from __future__ import annotations

import json
from typing import Sequence

from ..nas.encoding import CoDesignPoint, decode
from ..search.evaluator import BatchEvaluator, Evaluation

__all__ = [
    "WIRE_VERSION",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "point_to_wire",
    "point_from_wire",
    "points_from_wire",
    "wire_keys",
    "evaluation_to_wire",
    "evaluation_from_wire",
    "encode_message",
    "decode_message",
    "error_response",
    "ok_response",
    "trace_from_message",
]

#: Bump when a message shape changes incompatibly; both peers reject
#: mismatched versions instead of mis-parsing each other.
WIRE_VERSION = 1

#: Frame bound: one NDJSON line may not exceed this many bytes (a 4096
#: point request is ~1.3 MB, so this leaves generous headroom while still
#: bounding a malformed or hostile sender).
MAX_LINE_BYTES = 16 * 1024 * 1024

_key_of_tokens = BatchEvaluator.key_of_tokens


class ProtocolError(ValueError):
    """A message violates the wire protocol (shape, version or framing)."""


# ---------------------------------------------------------------------------
# Payload codecs
# ---------------------------------------------------------------------------


def point_to_wire(point: CoDesignPoint) -> dict:
    """Serialise a co-design point as its token sequence + genotype name."""
    return {"tokens": list(point.tokens), "name": point.genotype.name}


def point_from_wire(obj: object) -> CoDesignPoint:
    """Reconstruct a co-design point from its wire form (validating)."""
    if not isinstance(obj, dict) or "tokens" not in obj:
        raise ProtocolError(f"point must be an object with 'tokens', got {obj!r}")
    tokens = obj["tokens"]
    # Exact type: bool is an int subclass, and JSON true/false are no tokens.
    if not isinstance(tokens, list) or not set(map(type, tokens)) <= {int}:
        raise ProtocolError("point 'tokens' must be a list of integers")
    name = obj.get("name", "wire")
    if not isinstance(name, str):
        raise ProtocolError("point 'name' must be a string")
    try:
        return decode(tokens, name=name)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def evaluation_to_wire(evaluation: Evaluation) -> dict:
    return {
        "accuracy": evaluation.accuracy,
        "latency_ms": evaluation.latency_ms,
        "energy_mj": evaluation.energy_mj,
    }


def evaluation_from_wire(obj: object) -> Evaluation:
    if not isinstance(obj, dict):
        raise ProtocolError(f"evaluation must be an object, got {obj!r}")
    try:
        return Evaluation(
            accuracy=float(obj["accuracy"]),
            latency_ms=float(obj["latency_ms"]),
            energy_mj=float(obj["energy_mj"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed evaluation: {exc}") from exc


# ---------------------------------------------------------------------------
# Message framing
# ---------------------------------------------------------------------------


def encode_message(message: dict) -> bytes:
    """One NDJSON frame: compact JSON + newline."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one NDJSON frame, checking shape and wire version."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame must be a JSON object")
    version = message.get("v")
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"wire version mismatch: peer speaks {version!r}, "
            f"this end speaks {WIRE_VERSION}"
        )
    return message


def ok_response(request_id: object, **payload) -> dict:
    return {"v": WIRE_VERSION, "id": request_id, "ok": True, **payload}


def error_response(request_id: object, kind: str, message: str) -> dict:
    return {
        "v": WIRE_VERSION,
        "id": request_id,
        "ok": False,
        "error": {"type": kind, "message": message},
    }


def trace_from_message(message: dict) -> tuple[str, str | None] | None:
    """The optional ``(trace_id, parent_span_id)`` a request carries.

    ``None`` when the request is untraced (no ``"trace"`` field — the
    default, and everything an old client sends).  A present-but-
    malformed field is a protocol error: silently dropping it would break
    the trace without telling anyone.
    """
    trace = message.get("trace")
    if trace is None:
        return None
    if not isinstance(trace, dict) or not isinstance(trace.get("id"), str):
        raise ProtocolError(
            "'trace' must be an object with a string 'id'"
        )
    parent = trace.get("span")
    if parent is not None and not isinstance(parent, str):
        raise ProtocolError("'trace' 'span' must be a string when present")
    return trace["id"], parent


def points_from_wire(objs: Sequence[object]) -> list[CoDesignPoint]:
    """Decode a request's point list (helper shared by server paths)."""
    if not isinstance(objs, (list, tuple)):
        raise ProtocolError("'points' must be a list")
    return [point_from_wire(obj) for obj in objs]


def wire_keys(objs: object) -> list[tuple[int, ...]] | None:
    """A request's cache keys, read from its wire points without decoding.

    Each key is :meth:`BatchEvaluator.key_of_tokens
    <repro.search.evaluator.BatchEvaluator.key_of_tokens>` of a point's
    ``tokens``.  The keys are returned only when every point is
    well-formed on its face: an object whose ``name``, if present, is a
    string, and whose tokens have a key.  Otherwise this returns
    ``None``, and the caller decodes with :func:`points_from_wire`, which
    raises the precise error.  A key with an out-of-range token is in no
    cache, so the warm read misses it and the decode rejects it.
    """
    if not isinstance(objs, list):
        return None
    keys = []
    for obj in objs:
        if not isinstance(obj, dict) or not isinstance(obj.get("name", ""), str):
            return None
        key = _key_of_tokens(obj.get("tokens"))
        if key is None:
            return None
        keys.append(key)
    return keys
