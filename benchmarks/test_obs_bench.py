"""Micro-benchmark: what does the observability layer cost on the warm path?

Times the same warm ``BatchEvaluator.evaluate_many`` (64 points, every key
in the LRU) twice — once with the metrics registry enabled (the default)
and once with it disabled via the kill switch — and prints the ratio.  The
claim under test is the "zero-cost by default" contract from
``docs/OBSERVABILITY.md``: with tracing off, the registry's counter
increments and one histogram observe per call are the *entire*
instrumentation cost, and on the warm path that cost sits within noise.

Timing is never asserted (CI runners are too noisy for a <= 3% bound to be
a stable gate); what IS asserted is value parity — both arms must return
bit-identical evaluations, because instrumentation that changes results is
a bug regardless of its speed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.accel.config import random_config
from repro.nas.encoding import CoDesignPoint
from repro.nas.space import DnnSpace
from repro.obs import get_registry, get_tracer
from repro.search.evaluator import BatchEvaluator

POINTS = 64
REPEATS = 30


def _population(n: int) -> list[CoDesignPoint]:
    rng = np.random.default_rng(4242)
    space = DnnSpace()
    return [
        CoDesignPoint(genotype=space.sample(rng), config=random_config(rng))
        for _ in range(n)
    ]


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_obs_overhead(demo_context):
    """Warm evaluate_many with the registry on vs off: parity, printed ratio."""
    registry = get_registry()
    tracer = get_tracer()
    assert not tracer.enabled, "tracing must be off for the default arm"

    evaluator = BatchEvaluator(demo_context.fast_evaluator)
    points = _population(POINTS)
    evaluator.evaluate_many(points)  # warm the LRU: both arms are all-hits

    instrumented_s, instrumented = _best_of(
        lambda: evaluator.evaluate_many(points), REPEATS
    )
    registry.set_enabled(False)
    try:
        uninstrumented_s, uninstrumented = _best_of(
            lambda: evaluator.evaluate_many(points), REPEATS
        )
    finally:
        registry.set_enabled(True)

    # Parity is the hard gate: the kill switch must not change values
    # (Evaluation is a frozen dataclass, so == compares every field).
    assert instrumented == uninstrumented

    overhead = (
        instrumented_s / uninstrumented_s if uninstrumented_s else float("nan")
    )
    print(
        f"\nobs overhead: instrumented {instrumented_s * 1e6:.0f} us, "
        f"uninstrumented {uninstrumented_s * 1e6:.0f} us -> "
        f"ratio {overhead:.3f}"
    )
