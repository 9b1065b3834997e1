"""repro.analysis — AST-based invariant checker for the YOSO stack.

Every layer of this repository leans on invariants that ordinary tests
cannot guard exhaustively: bit-identical results need seeded RNG and no
wall-clock reads in evaluation paths, metric handles must stay
module-level, threading code must never block under a held
lock, every error crossing the client/service boundary must be
classified in the retry taxonomy, and wire floats must round-trip by
``repr``.  This package turns each of those docstring rules into a
machine-checked lint rule, run self-hosted over ``src/ tests/
benchmarks/`` and blocking in CI (the ``lint`` job) — the same way
``tests/test_docs_consistency.py`` already guards documentation drift.

Entry points:

* ``yoso lint [PATHS] [--json] [--rule ID]`` — the CLI verb
  (:mod:`repro.analysis.cli`); exits non-zero on any un-suppressed
  finding.
* :func:`lint_paths` / :func:`lint_source` — the library API the tests
  use.

Deliberate exceptions are annotated in place::

    something_flagged()  # yoso-lint: disable=rule-id -- why it is safe

The reason is mandatory; a bare ``disable=`` is itself a finding.  See
``docs/ANALYSIS.md`` for the rule catalogue and the suppression
contract.
"""

from .engine import Finding, LintEngine, ModuleInfo, Rule, lint_paths, lint_source
from .registry import RULE_IDS
from .report import render_findings_json, render_findings_text
from .rules import ALL_RULES
from .suppressions import Suppressions, parse_suppressions

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintEngine",
    "ModuleInfo",
    "RULE_IDS",
    "Rule",
    "Suppressions",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
    "render_findings_json",
    "render_findings_text",
]
