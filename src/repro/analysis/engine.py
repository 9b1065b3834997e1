"""Lint engine: files in, sorted :class:`Finding` objects out.

The engine owns everything rule-agnostic — walking path arguments into
files, parsing, applying the suppression contract, and producing one
stable sorted finding list.  Rules are plug-in objects (:class:`Rule`) that
receive a parsed :class:`ModuleInfo` and yield findings; the repo's
rule set lives in :mod:`repro.analysis.rules` and its facts in
:mod:`repro.analysis.registry`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence

from .registry import RULE_IDS, module_matches
from .suppressions import parse_suppressions

__all__ = [
    "Finding",
    "LintEngine",
    "ModuleInfo",
    "Rule",
    "lint_paths",
    "lint_source",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to ``path:line:col``."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }


class ModuleInfo:
    """A parsed module handed to rules: display path + source + AST."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree

    def matches(self, prefixes: Sequence[str]) -> bool:
        return module_matches(self.path, tuple(prefixes))


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id`` (must appear in ``registry.RULE_IDS``)
    and ``summary``, and implement :meth:`check_module`.  Rules are
    stateless across modules — any per-module bookkeeping belongs in
    local visitors inside ``check_module``.
    """

    rule_id: str = ""
    summary: str = ""

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
        )


def _display_path(path) -> str:
    s = str(path).replace(os.sep, "/")
    if os.path.isabs(s):
        rel = os.path.relpath(s).replace(os.sep, "/")
        if not rel.startswith(".."):
            s = rel
    return s


class LintEngine:
    """Runs a rule set over sources and paths.

    ``only`` restricts to a subset of rule ids (``yoso lint --rule``);
    unknown ids raise ``ValueError`` immediately rather than silently
    checking nothing.
    """

    def __init__(self, rules: Optional[Sequence[Rule]] = None, only: Optional[Iterable[str]] = None):
        if rules is None:
            from .rules import ALL_RULES

            rules = ALL_RULES
        self._only = None if only is None else frozenset(only)
        if self._only is not None:
            unknown = self._only - set(RULE_IDS)
            if unknown:
                raise ValueError("unknown rule id(s): " + ", ".join(sorted(unknown)))
        self.rules: List[Rule] = [r for r in rules if self._enabled(r.rule_id)]

    def _enabled(self, rule_id: str) -> bool:
        return self._only is None or rule_id in self._only

    def lint_source(self, source: str, path: str = "<memory>") -> List[Finding]:
        display = _display_path(path)
        sup = parse_suppressions(source)
        findings: List[Finding] = []
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            if self._enabled("parse-error"):
                findings.append(
                    Finding(
                        path=display,
                        line=exc.lineno or 1,
                        col=max((exc.offset or 1) - 1, 0),
                        rule="parse-error",
                        message=f"could not parse: {exc.msg}",
                    )
                )
            tree = None
        if tree is not None:
            module = ModuleInfo(display, source, tree)
            for rule in self.rules:
                for finding in rule.check_module(module):
                    if not sup.covers(finding.rule, finding.line):
                        findings.append(finding)
        if self._enabled("suppression"):
            for line, col, message in sup.problems:
                findings.append(
                    Finding(path=display, line=line, col=col, rule="suppression", message=message)
                )
        return sorted(findings, key=Finding.sort_key)

    def lint_file(self, path) -> List[Finding]:
        source = Path(path).read_text(encoding="utf-8")
        return self.lint_source(source, path=str(path))

    def lint_paths(self, paths: Iterable) -> List[Finding]:
        findings: List[Finding] = []
        for path in paths:
            p = Path(path)
            if p.is_dir():
                for child in sorted(p.rglob("*.py")):
                    parts = child.parts
                    if "__pycache__" in parts or any(part.startswith(".") for part in parts if part not in (".", "..")):
                        continue
                    findings.extend(self.lint_file(child))
            else:
                findings.extend(self.lint_file(p))
        return sorted(findings, key=Finding.sort_key)


def lint_source(source: str, path: str = "<memory>", only: Optional[Iterable[str]] = None) -> List[Finding]:
    return LintEngine(only=only).lint_source(source, path=path)


def lint_paths(paths: Iterable, only: Optional[Iterable[str]] = None) -> List[Finding]:
    return LintEngine(only=only).lint_paths(paths)
