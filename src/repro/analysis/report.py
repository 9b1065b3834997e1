"""Rendering findings for humans (text) and CI (stable JSON).

The JSON schema is versioned and the finding list is sorted by
``(path, line, col, rule, message)``, so two lint runs over the same
tree produce byte-identical output — CI can diff reports across
commits.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from .engine import Finding

__all__ = ["render_findings_json", "render_findings_text"]

JSON_SCHEMA_VERSION = 1


def _sorted(findings: Sequence[Finding]) -> List[Finding]:
    return sorted(findings, key=Finding.sort_key)


def render_findings_text(findings: Sequence[Finding]) -> str:
    ordered = _sorted(findings)
    lines = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.rule}: {f.message}" for f in ordered
    ]
    if ordered:
        rules = sorted({f.rule for f in ordered})
        lines.append("")
        lines.append(
            f"{len(ordered)} finding(s) across {len({f.path for f in ordered})} "
            f"file(s) [{', '.join(rules)}]"
        )
    else:
        lines.append("clean: no findings")
    return "\n".join(lines)


def render_findings_json(findings: Sequence[Finding]) -> str:
    ordered = _sorted(findings)
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "count": len(ordered),
        "findings": [f.to_dict() for f in ordered],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
