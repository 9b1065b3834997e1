"""Benchmark: the sharded thread engine vs the single-threaded one.

Times a COLD 256-candidate population (256 unique genotypes, a fresh
evaluator per worker count) through
``create_evaluator(workers=1/2/4)`` and prints the wall times, the
speedups vs the single-threaded engine and the micro-batch scheduler's
coalescing stats.  Nothing is written to disk; perfbench's
``population_cold`` workload is where evaluation throughput is recorded.

Three kinds of checks:

* **Parity is always asserted** — every worker count must return results
  ``==`` (bit-identical) to the single-threaded engine.  Runner noise
  cannot fail this.
* **Coalescing is always asserted** — eight concurrent requests gathered
  on one event loop by a :class:`MicroBatchScheduler` drain in one tick.
* **The >= 2x speedup floor is asserted only when >= 4 CPUs are
  available** (the sharded work is CPU-bound numpy; on a core-starved
  host threads cannot beat in-process, so only the ratio is printed).

`docs/PERFORMANCE.md` ("Parallel execution model") explains what is
sharded, what stays in the parent, and when workers lose to in-process.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.accel.config import random_config
from repro.nas.encoding import CoDesignPoint
from repro.nas.space import DnnSpace
from repro.obs import cpu_budget
from repro.parallel import MicroBatchScheduler, create_evaluator

POPULATION = 256
WORKER_COUNTS = (1, 2, 4)


def _cold_population(n: int) -> list[CoDesignPoint]:
    rng = np.random.default_rng(77)
    space = DnnSpace()
    return [
        CoDesignPoint(genotype=space.sample(rng), config=random_config(rng))
        for _ in range(n)
    ]


def test_bench_parallel_sharded_speedup(demo_context):
    """Cold-population wall clock vs worker count; parity and coalescing."""
    fast = demo_context.fast_evaluator
    points = _cold_population(POPULATION)
    # Pool warm-up sentinels from a disjoint seed, so thread start-up can
    # be timed separately without warming any of the 256 cold keys.
    rng = np.random.default_rng(88)
    space = DnnSpace()
    warmup = [
        CoDesignPoint(genotype=space.sample(rng), config=random_config(rng))
        for _ in range(4)
    ]

    # Each engine is a fresh evaluator over the uncached fast evaluator,
    # so every worker count scores the population cold.
    evaluate_s: dict[int, float] = {}
    reference = None
    for workers in WORKER_COUNTS:
        with create_evaluator(fast, workers=workers) as evaluator:
            t0 = time.perf_counter()
            if workers > 1:
                evaluator.evaluate_many(warmup)  # thread start-up, off the clock
            setup_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            results = evaluator.evaluate_many(points)
            evaluate_s[workers] = time.perf_counter() - t0
        if reference is None:
            reference = results
        assert results == reference, f"workers={workers} diverged (bit parity)"
        print(
            f"\nparallel cold batch-{POPULATION}: workers={workers} "
            f"setup {setup_s:.2f} s, evaluate {evaluate_s[workers]:.2f} s, "
            f"speedup {evaluate_s[1] / evaluate_s[workers]:.2f}x"
        )

    # Scheduler coalescing on the warm single-threaded engine: 8
    # concurrent requests gathered on one loop, one coalesced batch.
    evaluator = create_evaluator(fast, workers=1)
    base = evaluator.evaluate_many(points)  # warm
    scheduler = MicroBatchScheduler(evaluator)
    chunks = [points[i::8] for i in range(8)]

    async def gather() -> list:
        results = await asyncio.gather(*map(scheduler.evaluate, chunks))
        await scheduler.aclose()
        return results

    for i, results in enumerate(asyncio.run(gather())):
        assert results == base[i::8]
    assert scheduler.requests == len(chunks)
    assert scheduler.points_in == POPULATION
    assert scheduler.ticks == 1 and scheduler.largest_batch == POPULATION
    print(
        f"scheduler: {scheduler.requests} concurrent requests "
        f"({scheduler.points_in} points) -> {scheduler.ticks} tick(s), "
        f"largest batch {scheduler.largest_batch}"
    )

    cpus = cpu_budget()
    best_parallel = max(evaluate_s[1] / evaluate_s[w] for w in WORKER_COUNTS if w > 1)
    if cpus >= 4:
        assert best_parallel >= 2.0, (
            f"expected >= 2x on {cpus} CPUs, measured {best_parallel:.2f}x"
        )
    else:
        print(
            f"cpu_count={cpus}: skipping the 2x floor (CPU-bound sharding "
            f"cannot beat in-process without cores); measured "
            f"{best_parallel:.2f}x"
        )
