"""Tests for ``repro.analysis`` — the AST-based invariant checker.

Layout mirrors the package: engine/suppression mechanics first, then
one fixture trio per rule (a snippet that fires, one that passes, one
where a suppression silences it), then report rendering, the CLI
adapter, and finally the self-hosting test asserting the repo's own
``src/ tests/ benchmarks/`` tree lints clean — the same check the CI
``lint`` job blocks on.

Fixture snippets live in string literals on purpose: the suppression
parser is token-based, so markers inside these strings are data to the
linter linting *this* file, not annotations.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    RULE_IDS,
    Finding,
    LintEngine,
    lint_paths,
    lint_source,
    parse_suppressions,
    render_findings_json,
    render_findings_text,
)
from repro.analysis.cli import default_lint_paths
from repro.analysis.registry import CLASSIFIED_ERRORS, CLIENT_PATH_MODULES

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(src: str, path: str = "<memory>", only=None):
    return lint_source(textwrap.dedent(src), path=path, only=only)


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# engine mechanics
# ---------------------------------------------------------------------------


def test_every_rule_id_is_registered():
    assert {r.rule_id for r in ALL_RULES} <= set(RULE_IDS)
    # engine-emitted pseudo-rules are registered too
    assert {"suppression", "parse-error"} <= set(RULE_IDS)


def test_findings_are_sorted_and_stable():
    src = """
    import time
    import random
    b = time.time()
    a = random.random()
    """
    first = lint(src, path="src/x.py")
    second = lint(src, path="src/x.py")
    assert first == second
    assert [f.line for f in first] == sorted(f.line for f in first)
    assert rules_of(first) == ["determinism-rng", "determinism-wallclock"]


def test_parse_error_is_a_finding_not_a_crash():
    findings = lint("def broken(:\n")
    assert rules_of(findings) == ["parse-error"]
    assert findings[0].line == 1


def test_unknown_rule_filter_raises():
    with pytest.raises(ValueError, match="no-such-rule"):
        LintEngine(only={"no-such-rule"})


def test_rule_filter_restricts_findings():
    src = """
    import time
    import random
    t = time.time()
    r = random.random()
    """
    only = lint(src, path="src/x.py", only={"determinism-rng"})
    assert rules_of(only) == ["determinism-rng"]


def test_lint_paths_walks_directories(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "import random\nx = random.random()\n"
    )
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("import random\nrandom.random()\n")
    findings = lint_paths([tmp_path / "pkg"])
    assert len(findings) == 1
    assert findings[0].rule == "determinism-rng"


# ---------------------------------------------------------------------------
# suppression contract
# ---------------------------------------------------------------------------


def test_suppression_silences_same_line():
    src = """
    import random
    x = random.random()  # yoso-lint: disable=determinism-rng -- test fixture
    """
    assert lint(src) == []


def test_standalone_suppression_covers_next_code_line():
    src = """
    import random
    # yoso-lint: disable=determinism-rng -- test fixture
    x = random.random()
    """
    assert lint(src) == []


def test_suppression_only_covers_named_rule():
    src = """
    import random, time
    x = random.random()  # yoso-lint: disable=determinism-wallclock -- wrong rule
    """
    assert rules_of(lint(src, path="src/x.py")) == ["determinism-rng"]


def test_missing_reason_is_a_finding_and_does_not_suppress():
    src = """
    import random
    x = random.random()  # yoso-lint: disable=determinism-rng
    """
    findings = lint(src)
    assert rules_of(findings) == ["determinism-rng", "suppression"]
    assert any("mandatory" in f.message for f in findings)


def test_unknown_rule_id_in_suppression_is_a_finding():
    src = "x = 1  # yoso-lint: disable=not-a-rule -- whatever\n"
    findings = lint(src)
    assert rules_of(findings) == ["suppression"]
    assert "not-a-rule" in findings[0].message


def test_malformed_marker_is_a_finding():
    findings = lint("x = 1  # yoso-lint: enable=stuff\n")
    assert rules_of(findings) == ["suppression"]


def test_multiple_rules_one_comment():
    src = """
    import random, time
    # yoso-lint: disable=determinism-rng,determinism-wallclock -- test fixture
    x = random.random() + time.time()
    """
    assert lint(src, path="src/x.py") == []


def test_marker_inside_string_is_not_a_suppression():
    src = """
    import random
    doc = "# yoso-lint: disable=determinism-rng -- not a comment"
    x = random.random()
    """
    assert rules_of(lint(src)) == ["determinism-rng"]


def test_parse_suppressions_maps_lines():
    sup = parse_suppressions(
        "a = 1  # yoso-lint: disable=wire-float -- reason here\n"
    )
    assert sup.covers("wire-float", 1)
    assert not sup.covers("wire-float", 2)
    assert not sup.covers("lock-discipline", 1)


# ---------------------------------------------------------------------------
# determinism-rng
# ---------------------------------------------------------------------------


def test_rng_rule_fires():
    fired = lint(
        """
        import random
        import numpy as np
        a = random.random()
        b = random.Random()
        c = np.random.default_rng()
        d = np.random.rand(3)
        """
    )
    assert rules_of(fired) == ["determinism-rng"]
    assert len(fired) == 4


def test_rng_rule_passes_on_seeded_idioms():
    assert (
        lint(
            """
            import random
            import numpy as np
            a = random.Random(f"{0}:tag")
            b = np.random.default_rng(7)
            rng = object()
            """
        )
        == []
    )


def test_rng_rule_suppressed():
    src = """
    import random
    b = random.Random()  # yoso-lint: disable=determinism-rng -- test fixture
    """
    assert lint(src) == []


def test_rng_alias_resolution():
    fired = lint(
        """
        from random import shuffle
        import numpy.random as npr
        shuffle([1, 2])
        npr.normal()
        """
    )
    assert len(fired) == 2


# ---------------------------------------------------------------------------
# determinism-wallclock
# ---------------------------------------------------------------------------


def test_wallclock_rule_fires_outside_allowlist():
    fired = lint(
        """
        import time
        from datetime import datetime
        t = time.time()
        d = datetime.now()
        """,
        path="src/repro/search/strategies.py",
    )
    assert rules_of(fired) == ["determinism-wallclock"]
    assert len(fired) == 2


def test_wallclock_rule_passes_in_allowlisted_modules():
    src = """
    import time
    t = time.time()
    """
    for path in (
        "src/repro/obs/tracing.py",
        "src/repro/resilience/policy.py",
        "benchmarks/test_x.py",
    ):
        assert lint(src, path=path) == []


def test_wallclock_rule_passes_on_monotonic_clocks():
    src = """
    import time
    a = time.perf_counter()
    b = time.monotonic()
    """
    assert lint(src, path="src/repro/search/strategies.py") == []


def test_wallclock_rule_suppressed():
    src = """
    import time
    t = time.time()  # yoso-lint: disable=determinism-wallclock -- test fixture
    """
    assert lint(src, path="src/repro/search/strategies.py") == []


# ---------------------------------------------------------------------------
# metric-handles
# ---------------------------------------------------------------------------


def test_instance_metric_handle_fires_in_any_class():
    fired = lint(
        """
        class Anything:
            def __init__(self, registry):
                self._calls = registry.counter("x.calls")
        """
    )
    assert rules_of(fired) == ["metric-handles"]
    assert "module-level" in fired[0].message


def test_module_level_metric_handle_passes():
    assert (
        lint(
            """
            _M_CALLS = get_registry().counter("x.calls")
            class Anything:
                def __init__(self):
                    self.n = 0
            """
        )
        == []
    )


def test_metric_handle_rule_suppressed():
    # The metric-handle finding anchors at the assignment, so that is
    # where the annotation goes.
    src = """
    class Anything:
        def __init__(self, registry):
            # yoso-lint: disable=metric-handles -- test fixture
            self._calls = registry.counter("x.calls")
    """
    assert lint(src) == []


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------


def test_lock_rule_fires_on_blocking_call_under_lock():
    fired = lint(
        """
        import threading, time
        class S:
            def __init__(self):
                self._lock = threading.Lock()
            def bad(self, fut, t):
                with self._lock:
                    time.sleep(0.1)
                    fut.result()
                    t.join()
        """
    )
    assert rules_of(fired) == ["lock-discipline"]
    assert len(fired) == 3


def test_lock_rule_fires_on_lock_reacquire_self_deadlock():
    fired = lint(
        """
        import threading
        class S:
            def __init__(self):
                self._lock = threading.Lock()
            def outer(self):
                with self._lock:
                    self.inner()
            def inner(self):
                with self._lock:
                    pass
        """
    )
    assert any("not reentrant" in f.message for f in fired)


def test_lock_rule_passes_outside_lock_and_on_safe_calls():
    assert (
        lint(
            """
            import threading, time
            class S:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition()
                def fine(self, t, parts):
                    time.sleep(0.1)
                    with self._lock:
                        s = ",".join(parts)   # str.join has an argument
                        t.join(5.0)           # bounded join
                    with self._cond:
                        self._cond.wait()     # releases the lock while waiting
                def deferred(self):
                    with self._lock:
                        fn = lambda: time.sleep(1)  # runs later, not under lock
                    return fn
            """
        )
        == []
    )


def test_lock_rule_fires_on_inconsistent_order():
    fired = lint(
        """
        import threading
        class S:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()
            def one(self):
                with self._a:
                    with self._b:
                        pass
            def two(self):
                with self._b:
                    with self._a:
                        pass
        """
    )
    assert any("nested both ways" in f.message for f in fired)


def test_lock_rule_enforces_a_registered_order(monkeypatch):
    monkeypatch.setattr(
        "repro.analysis.rules.LOCK_ORDER", (("Dispatcher", "_dispatch", "_cond"),)
    )
    fired = lint(
        """
        import threading
        class Dispatcher:
            def __init__(self):
                self._dispatch = threading.Lock()
                self._cond = threading.Condition()
            def inverted(self):
                with self._cond:
                    with self._dispatch:
                        pass
        """
    )
    assert any("canonical order" in f.message for f in fired)


def test_lock_rule_suppressed():
    src = """
    import threading, time
    class S:
        def __init__(self):
            self._lock = threading.Lock()
        def bad(self):
            with self._lock:
                time.sleep(0.1)  # yoso-lint: disable=lock-discipline -- test fixture
    """
    assert lint(src) == []


# ---------------------------------------------------------------------------
# error-taxonomy
# ---------------------------------------------------------------------------


def test_taxonomy_rule_fires_on_unclassified_raise():
    fired = lint(
        "def f():\n    raise FrobnicationError('x')\n",
        path="src/repro/service/client.py",
    )
    assert rules_of(fired) == ["error-taxonomy"]


def test_taxonomy_rule_passes_on_classified_and_reraise():
    assert (
        lint(
            """
            def f(err):
                try:
                    g()
                except ConnectionError:
                    raise
                raise ValueError("bad endpoint")
                raise err
            """,
            path="src/repro/service/client.py",
        )
        == []
    )


def test_taxonomy_rule_only_applies_to_client_path_modules():
    src = "def f():\n    raise FrobnicationError('x')\n"
    assert lint(src, path="src/repro/search/strategies.py") == []


def test_taxonomy_rule_suppressed():
    src = """
    def f():
        raise FrobnicationError("x")  # yoso-lint: disable=error-taxonomy -- test fixture
    """
    assert lint(src, path="src/repro/service/client.py") == []


def test_registry_taxonomy_matches_live_retry_policy():
    """The lint registry and the runtime RetryPolicy tables must agree."""
    from repro.resilience import RetryPolicy
    from repro.service.client import DEFAULT_RETRY

    for exc_type in RetryPolicy.DEFAULT_RETRYABLE:
        assert CLASSIFIED_ERRORS.get(exc_type.__name__) == "retryable", exc_type
    for exc_type in RetryPolicy.DEFAULT_TERMINAL:
        assert CLASSIFIED_ERRORS.get(exc_type.__name__) == "terminal", exc_type
    for exc_type in DEFAULT_RETRY.retryable:
        assert CLASSIFIED_ERRORS.get(exc_type.__name__) == "retryable", exc_type
    for exc_type in DEFAULT_RETRY.terminal:
        assert CLASSIFIED_ERRORS.get(exc_type.__name__) == "terminal", exc_type


def test_client_path_modules_exist():
    for module in CLIENT_PATH_MODULES:
        assert (REPO_ROOT / module).is_file(), module


# ---------------------------------------------------------------------------
# wire-float
# ---------------------------------------------------------------------------


def test_wire_rule_fires_outside_blessed_helper():
    fired = lint(
        """
        import json
        def rogue(m):
            return json.dumps(m)
        """,
        path="src/repro/service/protocol.py",
    )
    assert rules_of(fired) == ["wire-float"]
    assert "encode_message" in fired[0].message


def test_wire_rule_fires_on_fixed_precision_format():
    fired = lint(
        'def fmt(x):\n    return f"{x:.6f}"\n',
        path="src/repro/store/result_store.py",
    )
    assert rules_of(fired) == ["wire-float"]


def test_wire_rule_passes_in_blessed_helper_and_other_modules():
    blessed = """
    import json
    def encode_message(m):
        return json.dumps(m, separators=(",", ":"))
    """
    assert lint(blessed, path="src/repro/service/protocol.py") == []
    rogue_elsewhere = """
    import json
    def anything(m):
        return json.dumps(m)
    """
    assert lint(rogue_elsewhere, path="src/repro/report/render.py") == []


def test_wire_rule_suppressed():
    src = """
    import json
    def rogue(m):
        return json.dumps(m)  # yoso-lint: disable=wire-float -- test fixture
    """
    assert lint(src, path="src/repro/service/protocol.py") == []


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def test_json_report_is_stable_and_schema_versioned():
    findings = [
        Finding("b.py", 2, 0, "wire-float", "later"),
        Finding("a.py", 1, 0, "determinism-rng", "earlier"),
    ]
    payload = json.loads(render_findings_json(findings))
    assert payload["version"] == 1
    assert payload["count"] == 2
    assert [f["path"] for f in payload["findings"]] == ["a.py", "b.py"]
    assert render_findings_json(findings) == render_findings_json(list(reversed(findings)))


def test_text_report_mentions_location_and_rule():
    text = render_findings_text([Finding("a.py", 3, 4, "wire-float", "msg")])
    assert "a.py:3:5: wire-float: msg" in text
    assert render_findings_text([]) == "clean: no findings"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_exits_nonzero_on_findings(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")
    proc = _run_cli(str(dirty))
    assert proc.returncode == 1
    assert "determinism-rng" in proc.stdout


def test_cli_json_output_is_parseable(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")
    proc = _run_cli("--json", str(dirty))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "determinism-rng"


def test_cli_rule_filter_and_bad_rule(tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")
    clean = _run_cli("--rule", "wire-float", str(dirty))
    assert clean.returncode == 0
    bad = _run_cli("--rule", "nope", str(dirty))
    assert bad.returncode == 2
    assert "unknown rule" in bad.stderr


def test_default_lint_paths_are_the_source_tree():
    assert default_lint_paths(REPO_ROOT) == [
        str(REPO_ROOT / name) for name in ("src", "tests", "benchmarks")
    ]


# ---------------------------------------------------------------------------
# self-hosting: the repo must lint clean (what the CI lint job blocks on)
# ---------------------------------------------------------------------------


def test_repo_lints_clean():
    paths = [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
    findings = lint_paths(paths)
    rendered = render_findings_text(findings)
    assert findings == [], f"repo must lint clean:\n{rendered}"
