"""Start-up cost and the import surface of ``repro``.

``scipy.stats`` (Spearman/Pearson correlations) is imported by the
functions that use it, so search, service and benchmark processes never
pay its import time or memory.  The third-party packages ``src/repro``
imports are exactly the ones ``pyproject.toml`` declares.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_import_repro_loads_neither_scipy_stats_nor_networkx():
    probe = (
        "import sys, repro, repro.cli; "
        "print(sorted(m for m in ('scipy.stats', 'networkx') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_every_public_name_resolves():
    """Each ``__all__`` entry of every ``repro`` module is an attribute of
    it, so ``from <module> import *`` cannot raise ``AttributeError``."""
    import repro

    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        missing += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert missing == []


def test_declared_dependencies_match_src_imports():
    """A dependency nothing imports, or an import nothing declares, fails."""
    tomllib = pytest.importorskip("tomllib")
    imported: set[str] = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "repro"}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower() for r in requirements}
    assert third_party == declared
