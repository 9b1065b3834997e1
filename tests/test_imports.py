"""Start-up cost: ``import repro`` loads only what every process needs.

``scipy.stats`` (Spearman/Pearson correlations) and ``networkx`` (cell
graphs) are imported by the functions that use them, so search, service
and benchmark processes never pay their import time or memory.
"""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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
