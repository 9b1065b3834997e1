"""Benchmark: the sharded thread engine vs the single-threaded one.

Times a COLD 256-candidate population (256 unique genotypes, fresh
accuracy/feature/evaluation caches everywhere) through
``create_evaluator(workers=1/2/4)`` and records a machine-readable trace
in ``BENCH_parallel.json`` at the repo root: wall times, speedups vs the
single-threaded engine, pool start-up cost, CPU budget and the
micro-batch scheduler's coalescing stats.

Two kinds of checks:

* **Parity is always asserted** — every worker count must return results
  ``==`` (bit-identical) to the single-process engine.  Runner noise
  cannot fail this.
* **The >= 2x speedup floor is asserted only when >= 4 CPUs are
  available** (the sharded work is CPU-bound numpy; on a core-starved
  host threads cannot beat in-process and the JSON records that
  honestly instead of failing the job).

`docs/PERFORMANCE.md` ("Parallel execution model") explains what is
sharded, what stays in the parent, and when workers lose to in-process.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np

from repro.accel.config import random_config
from repro.nas.encoding import CoDesignPoint
from repro.nas.space import DnnSpace
from repro.obs import cpu_budget, host_info
from repro.parallel import MicroBatchScheduler, ParallelEvaluator, create_evaluator

POPULATION = 256
WORKER_COUNTS = (1, 2, 4)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_PATH = os.path.join(ROOT, "BENCH_parallel.json")


def _cold_population(n: int) -> list[CoDesignPoint]:
    rng = np.random.default_rng(77)
    space = DnnSpace()
    return [
        CoDesignPoint(genotype=space.sample(rng), config=random_config(rng))
        for _ in range(n)
    ]


def test_bench_parallel_sharded_speedup(demo_context):
    """Cold-population wall clock vs worker count, recorded to JSON."""
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

    # The fast evaluator's own dicts are shared session state; snapshot
    # them so every engine starts cold and the other benchmark modules get
    # their warm caches back.
    saved_acc, saved_eval = dict(fast._acc_cache), dict(fast._cache)
    runs: list[dict] = []
    reference = None
    try:
        for workers in WORKER_COUNTS:
            fast._acc_cache.clear()
            fast._cache.clear()
            evaluator = create_evaluator(fast, workers=workers)
            t0 = time.perf_counter()
            if isinstance(evaluator, ParallelEvaluator):
                evaluator.evaluate_many(warmup)  # thread start-up, off the clock
            setup_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            results = evaluator.evaluate_many(points)
            evaluate_s = time.perf_counter() - t0
            if hasattr(evaluator, "close"):
                evaluator.close()
            if reference is None:
                reference = results
            assert results == reference, f"workers={workers} diverged (bit parity)"
            runs.append(
                {
                    "workers": workers,
                    "engine": type(evaluator).__name__,
                    "setup_s": round(setup_s, 4),
                    "evaluate_s": round(evaluate_s, 4),
                    "bit_identical": True,
                }
            )
            print(
                f"\nparallel cold batch-{POPULATION}: workers={workers} "
                f"setup {setup_s:.2f} s, evaluate {evaluate_s:.2f} s"
            )
    finally:
        fast._acc_cache.clear()
        fast._acc_cache.update(saved_acc)
        fast._cache.clear()
        fast._cache.update(saved_eval)

    serial_s = runs[0]["evaluate_s"]
    for run in runs:
        run["speedup_vs_single_thread"] = round(serial_s / run["evaluate_s"], 3)

    cpus = cpu_budget()
    record = {
        "benchmark": "parallel_sharded_evaluator",
        "scale": "demo",
        "population": POPULATION,
        "unique_genotypes": POPULATION,
        # degraded_host is an explicit flag so nobody reads a sub-1x ratio
        # measured on a core-starved host as a regression: CPU-bound
        # sharding CANNOT beat in-process without cores, and this record
        # says so instead of leaving the reader to cross-check cpu_count
        # by hand.
        **host_info(max(WORKER_COUNTS)),
        "runs": runs,
        "notes": (
            "speedup_vs_single_thread compares the thread-pool evaluate "
            "wall time against the in-process BatchEvaluator on the same "
            "cold population; pool start-up is reported separately as "
            "setup_s.  Threads share the parent's evaluator, so only "
            "numpy kernels that release the GIL run concurrently.  "
            "degraded_host: true means some worker counts exceed the "
            "cores; those runs cannot scale past the core count, and "
            "only parity is asserted."
        ),
    }

    # Scheduler coalescing stats on the warm single-process engine: 8
    # concurrent submitters, one coalesced batch per tick.
    evaluator = create_evaluator(fast, workers=1)
    base = evaluator.evaluate_many(points)  # warm
    scheduler = MicroBatchScheduler(evaluator, auto_start=False)
    chunks = [points[i::8] for i in range(8)]
    futures: list = [None] * len(chunks)

    def submit(i: int) -> None:
        futures[i] = scheduler.submit(chunks[i])

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(len(chunks))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    scheduler.flush()
    for i, chunk in enumerate(chunks):
        assert futures[i].result() == base[i::8]
    record["scheduler"] = {
        "submitters": len(chunks),
        "requests": scheduler.requests,
        "ticks": scheduler.ticks,
        "points": scheduler.points_in,
        "largest_batch": scheduler.largest_batch,
    }
    print(
        f"scheduler: {scheduler.requests} concurrent requests "
        f"({scheduler.points_in} points) -> {scheduler.ticks} tick(s), "
        f"largest batch {scheduler.largest_batch}"
    )

    with open(RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {RECORD_PATH}")

    best_parallel = max(
        (r["speedup_vs_single_thread"] for r in runs if r["workers"] > 1),
        default=0.0,
    )
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
