"""Shared schema for the ``BENCH_*.json`` benchmark reports.

Every bench writer stamps host context through
``repro.obs.host.host_info`` — the schema here is what keeps them from
drifting: each file must carry the common ``benchmark`` /
``cpu_count`` / ``degraded_host`` triple (without ``degraded_host`` a
sub-1x speedup on a throttled CI host reads as a regression) plus the
headline keys the README and report CLI quote.  The lint CI job runs
this over the checked-in files; ``yoso lint BENCH_foo.json`` validates
one by hand.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from .engine import Finding, _display_path

__all__ = ["BENCH_SCHEMAS", "COMMON_REQUIRED", "validate_bench_file"]

#: Required in every bench report: what ran, and on what kind of host.
#: ``bool`` is checked before ``int`` below — a bool *is* an int in
#: Python, and a ``"cpu_count": true`` typo must not validate.
COMMON_REQUIRED: Dict[str, type] = {
    "benchmark": str,
    "cpu_count": int,
    "degraded_host": bool,
}

#: Per-file headline keys (beyond the common triple) with their types.
BENCH_SCHEMAS: Dict[str, Dict[str, type]] = {
    "BENCH_parallel.json": {
        "scale": str,
        "population": int,
        "runs": list,
        "scheduler": dict,
    },
    "BENCH_training.json": {
        "shards": dict,
    },
    "BENCH_service.json": {
        "scale": str,
        "population": int,
        "tick_s": float,
        "runs": list,
    },
    "BENCH_store.json": {
        "scale": str,
        "warm_speedup": float,
        "bit_identical": bool,
    },
    "BENCH_obs.json": {
        "scale": str,
        "overhead_ratio": float,
        "tracing_enabled": bool,
    },
    "BENCH_resilience.json": {
        "scale": str,
        "overhead_ratio": float,
        "recovery_retries": int,
        "bit_identical": bool,
    },
}


def _type_ok(value, expected: type) -> bool:
    if expected is bool:
        return isinstance(value, bool)
    if expected in (int, float):
        # bools pass isinstance(..., int); a bench key typed int must not
        # accept true/false.  Ints are fine where floats are expected.
        if isinstance(value, bool):
            return False
        if expected is float:
            return isinstance(value, (int, float))
        return isinstance(value, int)
    return isinstance(value, expected)


def validate_bench_file(path) -> List[Finding]:
    """Validate one ``BENCH_*.json`` file, returning bench-schema findings."""
    p = Path(path)
    display = _display_path(p)

    def finding(message: str) -> Finding:
        return Finding(path=display, line=1, col=0, rule="bench-schema", message=message)

    schema = BENCH_SCHEMAS.get(p.name)
    if schema is None:
        known = ", ".join(sorted(BENCH_SCHEMAS))
        return [finding(f"unknown bench report {p.name}; known reports: {known}")]
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return [finding("bench report is missing")]
    except (OSError, json.JSONDecodeError) as exc:
        return [finding(f"bench report is not valid JSON: {exc}")]
    if not isinstance(data, dict):
        return [finding("bench report must be a JSON object")]

    findings: List[Finding] = []
    required: List[Tuple[str, type]] = sorted({**COMMON_REQUIRED, **schema}.items())
    for key, expected in required:
        if key not in data:
            origin = "common bench key" if key in COMMON_REQUIRED else "headline key"
            findings.append(finding(f"missing {origin} {key!r} ({expected.__name__})"))
        elif not _type_ok(data[key], expected):
            findings.append(
                finding(
                    f"key {key!r} must be {expected.__name__}, "
                    f"got {type(data[key]).__name__}"
                )
            )
    return findings
