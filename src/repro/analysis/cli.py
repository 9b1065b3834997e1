"""CLI adapter for ``yoso lint``.

Kept separate from :mod:`repro.cli` so the argparse layer stays a thin
dispatcher: it parses flags and calls :func:`run_lint`, which is also
what the self-hosting test drives directly.  Exit codes: 0 clean,
1 findings, 2 usage/IO error — the lint CI job is just this command.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .engine import LintEngine
from .report import render_findings_json, render_findings_text

__all__ = ["DEFAULT_PATHS", "default_lint_paths", "run_lint"]

#: What a bare ``yoso lint`` covers: the self-hosted tree.
DEFAULT_PATHS = ("src", "tests", "benchmarks")


def default_lint_paths(root=".") -> List[str]:
    """The directories of :data:`DEFAULT_PATHS` that exist under ``root``."""
    base = Path(root)
    return [str(base / p) for p in DEFAULT_PATHS if (base / p).is_dir()]


def run_lint(
    paths: Sequence,
    json_output: bool = False,
    rules: Optional[Iterable[str]] = None,
    out=None,
) -> int:
    out = out if out is not None else sys.stdout
    try:
        engine = LintEngine(only=rules)
    except ValueError as exc:
        print(f"yoso lint: {exc}", file=sys.stderr)
        return 2
    try:
        findings = engine.lint_paths(list(paths) or default_lint_paths())
    except OSError as exc:
        print(f"yoso lint: {exc}", file=sys.stderr)
        return 2
    if json_output:
        print(render_findings_json(findings), file=out)
    else:
        print(render_findings_text(findings), file=out)
    return 1 if findings else 0
