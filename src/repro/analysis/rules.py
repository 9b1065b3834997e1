"""The shipped rule set.

Each rule is lexical, not dataflow: it canonicalises imported names
through the module's alias table (``import numpy as np`` /
``from time import time`` both normalise onto the canonical dotted
name) and then pattern-matches AST shapes.  That keeps every rule a
screenful, fast, and — because the repo's conventions are themselves
lexical (``self._lock`` attributes, module-level metric handles,
blessed encoder functions by name) — precise enough to block CI on.

False positives are the suppression contract's job: annotate the line
with ``# yoso-lint: disable=<rule> -- <reason>`` and the reason is
reviewable forever.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import Finding, ModuleInfo, Rule
from .registry import (
    BLOCKING_ATTRS,
    BLOCKING_DOTTED,
    BLOCKING_DOTTED_PREFIXES,
    CLASSIFIED_ERRORS,
    CLIENT_PATH_MODULES,
    GLOBAL_RANDOM_FNS,
    LOCK_FACTORIES,
    LOCK_ORDER,
    METRIC_FACTORY_ATTRS,
    NP_SEEDED_CONSTRUCTORS,
    WALLCLOCK_ALLOWED_PREFIXES,
    WALLCLOCK_CALLS,
    WIRE_MODULES,
    module_matches,
)

__all__ = ["ALL_RULES"]


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted name, from the module's imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname:
                    aliases[item.asname] = item.name
                else:
                    root = item.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue  # relative imports never hit the canonical tables
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def _dotted_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of an attribute chain rooted at a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _assign_targets(stmt: ast.stmt) -> List[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        return [stmt.target]
    return []


class DeterminismRngRule(Rule):
    rule_id = "determinism-rng"
    summary = "no unseeded or process-global RNG: seed random.Random / numpy default_rng"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func, aliases)
            if not name:
                continue
            if name == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "random.Random() without a seed is OS-seeded; pass an explicit "
                        'seed (the repo idiom is random.Random(f"{seed}:{tag}"))',
                    )
            elif name == "random.SystemRandom":
                yield self.finding(
                    module, node, "random.SystemRandom draws OS entropy and can never replay"
                )
            elif name.startswith("random.") and name.split(".", 1)[1] in GLOBAL_RANDOM_FNS:
                yield self.finding(
                    module,
                    node,
                    f"{name}() mutates the process-global RNG; "
                    "use an explicit seeded random.Random instance",
                )
            elif name.startswith("numpy.random."):
                attr = name.split(".")[2]
                if attr not in NP_SEEDED_CONSTRUCTORS:
                    yield self.finding(
                        module,
                        node,
                        f"{name}() uses numpy's global RNG state; "
                        "use numpy.random.default_rng(seed)",
                    )
                elif attr == "default_rng" and not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "numpy.random.default_rng() without a seed is OS-seeded; "
                        "pass the run's seed explicitly",
                    )


class DeterminismWallclockRule(Rule):
    rule_id = "determinism-wallclock"
    summary = "wall-clock reads only in obs/resilience/bench modules"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module_matches(module.path, WALLCLOCK_ALLOWED_PREFIXES):
            return
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func, aliases)
            if name in WALLCLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"{name}() reads the wall clock outside the obs/resilience/bench "
                    "allowlist; use time.perf_counter()/time.monotonic() for durations "
                    "or let repro.obs record the timestamp",
                )


class MetricHandlesRule(Rule):
    rule_id = "metric-handles"
    summary = "metric handles stay module-level, never instance attributes"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            # Instance-level metric handles are forbidden in every class:
            # metric objects hold locks.
            for stmt in ast.walk(cls):
                targets = _assign_targets(stmt)
                value = getattr(stmt, "value", None)
                if (
                    targets
                    and isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr in METRIC_FACTORY_ATTRS
                ):
                    for target in targets:
                        attr = _self_attr(target)
                        if attr:
                            yield self.finding(
                                module,
                                stmt,
                                f"self.{attr} holds a .{value.func.attr}(...) metric handle; "
                                "metric handles must be module-level "
                                "(metric objects hold locks)",
                            )


def _blocking_label(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """Human label if this call can block; None when it cannot."""
    name = _dotted_name(node.func, aliases)
    if name:
        if name in BLOCKING_DOTTED:
            return f"{name}()"
        for prefix in BLOCKING_DOTTED_PREFIXES:
            if name.startswith(prefix):
                return f"{name}()"
    if isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        if attr in BLOCKING_ATTRS:
            return f".{attr}()"
        if attr == "join" and not node.args and not node.keywords:
            return ".join()"  # zero-arg join is a thread/process join, not str.join
        if (
            attr == "run"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "retry"
        ):
            return ".retry.run()"  # the retry driver sleeps between attempts
    return None


class _LockBodyVisitor(ast.NodeVisitor):
    """Walks one method tracking which ``self.<lock>`` locks are held lexically."""

    def __init__(self, rule, module, lock_types, method_locks):
        self.rule = rule
        self.module = module
        self.lock_types = lock_types
        self.method_locks = method_locks
        self.aliases = _import_aliases(module.tree)
        self.held: List[str] = []
        self.pairs: List[Tuple[str, str, ast.AST]] = []
        self.findings: List[Finding] = []

    def visit_With(self, node: ast.With) -> None:
        acquired = []
        for item in node.items:
            attr = _self_attr(item.context_expr)
            if attr in self.lock_types:
                for outer in self.held:
                    self.pairs.append((outer, attr, node))
                acquired.append(attr)
        self.held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        if acquired:
            del self.held[-len(acquired) :]

    visit_AsyncWith = visit_With

    def _visit_deferred(self, node: ast.AST) -> None:
        # A nested def/lambda body runs later, not under the current lock.
        saved, self.held = self.held, []
        self.generic_visit(node)
        self.held = saved

    visit_FunctionDef = _visit_deferred
    visit_AsyncFunctionDef = _visit_deferred
    visit_Lambda = _visit_deferred

    def visit_Call(self, node: ast.Call) -> None:
        if self.held:
            label = _blocking_label(node, self.aliases)
            if label:
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        node,
                        f"blocking call {label} while holding self.{self.held[-1]}; "
                        "move it outside the lock or annotate why it is safe",
                    )
                )
            method = _self_attr(node.func)
            if method and method in self.method_locks:
                reacquired = sorted(
                    lock
                    for lock in self.method_locks[method]
                    if lock in self.held and self.lock_types.get(lock) == "threading.Lock"
                )
                for lock in reacquired:
                    self.findings.append(
                        self.rule.finding(
                            self.module,
                            node,
                            f"self.{method}() re-acquires self.{lock} already held here; "
                            "threading.Lock is not reentrant — this self-deadlocks",
                        )
                    )
        self.generic_visit(node)


class LockDisciplineRule(Rule):
    rule_id = "lock-discipline"
    summary = "no blocking calls under a held lock; consistent lock acquisition order"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        aliases = _import_aliases(module.tree)
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            lock_types: Dict[str, str] = {}
            for stmt in ast.walk(cls):
                value = getattr(stmt, "value", None)
                if not isinstance(value, ast.Call):
                    continue
                factory = _dotted_name(value.func, aliases)
                if factory in LOCK_FACTORIES:
                    for target in _assign_targets(stmt):
                        attr = _self_attr(target)
                        if attr:
                            lock_types[attr] = factory
            if not lock_types:
                continue
            methods = [item for item in cls.body if isinstance(item, ast.FunctionDef)]
            # First pass: which locks does each method acquire anywhere?
            method_locks: Dict[str, Set[str]] = {}
            for fn in methods:
                acquired: Set[str] = set()
                for node in ast.walk(fn):
                    if isinstance(node, (ast.With, ast.AsyncWith)):
                        for item in node.items:
                            attr = _self_attr(item.context_expr)
                            if attr in lock_types:
                                acquired.add(attr)
                if acquired:
                    method_locks[fn.name] = acquired
            # Second pass: lexical held-lock analysis.
            pairs: List[Tuple[str, str, ast.AST]] = []
            for fn in methods:
                visitor = _LockBodyVisitor(self, module, lock_types, method_locks)
                for stmt in fn.body:
                    visitor.visit(stmt)
                yield from visitor.findings
                pairs.extend(visitor.pairs)
            observed = {(outer, inner) for outer, inner, _ in pairs}
            for outer, inner, node in pairs:
                if (inner, outer) in observed:
                    yield self.finding(
                        module,
                        node,
                        f"inconsistent lock order: self.{outer} and self.{inner} are "
                        "nested both ways in this class — pick one order",
                    )
                for order_cls, first, second in LOCK_ORDER:
                    if cls.name == order_cls and (outer, inner) == (second, first):
                        yield self.finding(
                            module,
                            node,
                            f"self.{inner} acquired while holding self.{outer}; "
                            f"the canonical order in {order_cls} is "
                            f"self.{first} before self.{second}",
                        )


class ErrorTaxonomyRule(Rule):
    rule_id = "error-taxonomy"
    summary = "raises in client-path modules use retryable-or-terminal classified types"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module_matches(module.path, CLIENT_PATH_MODULES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            if not isinstance(node.exc, ast.Call):
                continue  # bare re-raise / `raise err` keep the original class
            func = node.exc.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            if name not in CLASSIFIED_ERRORS:
                yield self.finding(
                    module,
                    node,
                    f"raise {name} in a client-path module, but {name} is not "
                    "classified retryable-or-terminal (register it in "
                    "repro.analysis.registry.CLASSIFIED_ERRORS and the RetryPolicy tables)",
                )


_FIXED_PRECISION = (".", "e", "E", "f", "F", "g", "G", "%")


class WireFloatRule(Rule):
    rule_id = "wire-float"
    summary = "wire/durable float encoding only via the blessed repr-round-trip helpers"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        blessed = None
        for wire_path, fns in WIRE_MODULES.items():
            if module_matches(module.path, (wire_path,)):
                blessed = fns
                break
        if blessed is None:
            return
        aliases = _import_aliases(module.tree)
        rule = self
        findings: List[Finding] = []

        class V(ast.NodeVisitor):
            def __init__(self) -> None:
                self.stack: List[str] = []

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self.stack.append(node.name)
                self.generic_visit(node)
                self.stack.pop()

            visit_AsyncFunctionDef = visit_FunctionDef

            def visit_Call(self, node: ast.Call) -> None:
                name = _dotted_name(node.func, aliases)
                if name in ("json.dump", "json.dumps"):
                    if not (self.stack and self.stack[-1] in blessed):
                        where = self.stack[-1] if self.stack else "module level"
                        findings.append(
                            rule.finding(
                                module,
                                node,
                                f"{name} in {where}: wire/durable encoding must go "
                                "through the blessed helper(s) "
                                f"({', '.join(sorted(blessed))}) so floats "
                                "round-trip by repr",
                            )
                        )
                self.generic_visit(node)

            def visit_FormattedValue(self, node: ast.FormattedValue) -> None:
                spec = node.format_spec
                if isinstance(spec, ast.JoinedStr):
                    text = "".join(
                        part.value
                        for part in spec.values
                        if isinstance(part, ast.Constant) and isinstance(part.value, str)
                    )
                    if any(ch in text for ch in _FIXED_PRECISION):
                        findings.append(
                            rule.finding(
                                module,
                                node,
                                f"fixed-precision float format {text!r} in a wire module "
                                "truncates; floats must round-trip by repr",
                            )
                        )
                self.generic_visit(node)

        V().visit(module.tree)
        yield from findings


ALL_RULES: Tuple[Rule, ...] = (
    DeterminismRngRule(),
    DeterminismWallclockRule(),
    MetricHandlesRule(),
    LockDisciplineRule(),
    ErrorTaxonomyRule(),
    WireFloatRule(),
)
