"""Benchmark: warm requests while a cold batch runs (mixed traffic).

Many searches share one evaluator in Step 2, so a cache hit can arrive
while another search's cold batch runs its HyperNet forward.  This
times, through a default :class:`MicroBatchScheduler` over one
:class:`BatchEvaluator` on one event loop, serving each request as the
service does (one warm read, else queued):

* a warm 4-point request on an idle evaluator;
* the same request served while a cold batch of 4 fresh points runs
  (the batch task has taken the request and its worker thread has not
  finished);
* the cold throughput of two closed-loop clients sending 4 fresh points
  per request.

It prints the latencies and the throughput and writes no file.  It
asserts parity (every warm answer is ``==`` its cached value) and that
every warm request was answered before the cold batch it arrived
during had finished: the warm read runs on the loop and takes the
evaluator's short cache lock, and a cold batch on the worker thread
holds that lock only to look its keys up and to insert its results.
perfbench's ``serve_warm`` workload sends only warm requests, so it does
not see this traffic.
"""

from __future__ import annotations

import asyncio
import statistics
import time

import numpy as np

from repro.accel.config import random_config
from repro.nas.encoding import CoDesignPoint
from repro.nas.space import DnnSpace
from repro.parallel import MicroBatchScheduler
from repro.search import BatchEvaluator

IDLE_REQUESTS = 200
ROUNDS = 8
POINTS = 4


def _fresh(rng: np.random.Generator, space: DnnSpace, n: int) -> list[CoDesignPoint]:
    return [CoDesignPoint(space.sample(rng), random_config(rng)) for _ in range(n)]


def _ms(seconds: list[float]) -> str:
    """The median and, from 40 samples on, the highest percentile with
    ten samples beyond it."""
    ordered, n = sorted(seconds), len(seconds)
    text = f"p50 {1e3 * statistics.median(ordered):.3f} ms"
    if n >= 40:
        text += f", p{100 * (n - 10) / n:g} {1e3 * ordered[n - 11]:.3f} ms"
    return f"{text} (n={n})"


async def _serve(scheduler: MicroBatchScheduler, points: list) -> list:
    """The service's path for a request: one warm read, else queue it."""
    results = scheduler.read([p.tokens for p in points])
    if results is None:
        results = await scheduler.evaluate(points)
    return results


def test_bench_warm_requests_under_a_cold_batch(demo_context):
    space = DnnSpace()
    rng = np.random.default_rng(41)
    evaluator = BatchEvaluator(demo_context.fast_evaluator)
    warm = _fresh(rng, space, POINTS)
    reference = evaluator.evaluate_many(warm)
    scheduler = MicroBatchScheduler(evaluator)
    idle, busy, cold_s = [], [], []
    answered_during = 0

    async def client(mine: list) -> None:
        for points in mine:
            await _serve(scheduler, points)

    async def body() -> float:
        nonlocal answered_during
        for _ in range(IDLE_REQUESTS):
            t0 = time.perf_counter()
            assert await _serve(scheduler, warm) == reference
            idle.append(time.perf_counter() - t0)

        for _ in range(ROUNDS):
            t_cold = time.perf_counter()
            cold = asyncio.ensure_future(_serve(scheduler, _fresh(rng, space, POINTS)))
            # The batch runs once the batch task has taken the request.
            await asyncio.sleep(0)
            while scheduler.queue_depth:
                await asyncio.sleep(0.0005)
            t0 = time.perf_counter()
            assert await _serve(scheduler, warm) == reference
            busy.append(time.perf_counter() - t0)
            answered_during += not cold.done()
            await cold
            cold_s.append(time.perf_counter() - t_cold)

        requests = [[_fresh(rng, space, POINTS) for _ in range(3)] for _ in range(2)]
        t0 = time.perf_counter()
        await asyncio.gather(*map(client, requests))
        throughput_s = time.perf_counter() - t0
        await scheduler.aclose()
        return throughput_s

    throughput_s = asyncio.run(body())

    print(f"\nwarm {POINTS}-point request, idle evaluator: {_ms(idle)}")
    print(f"warm {POINTS}-point request during a cold batch: {_ms(busy)}")
    print(f"cold {POINTS}-point batch, submit to answer: {_ms(cold_s)}")
    print(
        f"cold throughput, 2 closed-loop clients: "
        f"{2 * 3 * POINTS / throughput_s:.2f} points/s ({throughput_s:.2f} s)"
    )
    assert answered_during == ROUNDS, (
        f"{ROUNDS - answered_during} of {ROUNDS} warm requests waited out "
        "the cold batch"
    )
