"""A persistent thread executor over the parent's own evaluator objects.

:class:`WorkerPool` runs a task function over deterministic shards on a
:class:`~concurrent.futures.ThreadPoolExecutor` and returns the results
in shard order (so an order-preserving merge is plain concatenation).
Nothing is copied: every thread works on the caller's objects.  Two task
types build on it:

* :class:`EvaluatorPool` (here) computes the cold genotypes' HyperNet
  accuracies and feature prefixes against the parent's
  :class:`~repro.search.evaluator.FastEvaluator`
  (:meth:`~repro.search.evaluator.FastEvaluator.genotype_inputs`, the
  same code the in-process path runs).
* :func:`repro.parallel.training.train_accuracies` runs Step-3
  ``train_accuracy`` jobs against the parent's
  :class:`~repro.search.evaluator.AccurateEvaluator`.

Each task runs under a copy of the dispatching thread's
:mod:`contextvars` context, so a ``pool.shard`` span nests under the
``pool.dispatch`` span.  Why sharing the evaluators
between threads is safe is set out in docs/PERFORMANCE.md ("Parallel
execution model").
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Sequence

from ..obs.registry import get_registry
from ..obs.tracing import get_tracer
from ..resilience import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..nas.genotype import Genotype
    from ..search.evaluator import FastEvaluator

__all__ = ["WorkerPool", "EvaluatorPool"]

_REGISTRY = get_registry()
_M_BATCHES = _REGISTRY.counter("pool.batches")
_M_ITEMS = _REGISTRY.counter("pool.items")


def _run_task(fn, shard: list):
    """One shard on a worker thread: the ``pool.worker`` fault site, then
    ``fn(shard)`` under a ``pool.shard`` span."""
    with get_tracer().span("pool.shard", items=len(shard)):
        faults.hit("pool.worker")
        return fn(shard)


class WorkerPool:
    """A persistent pool of ``workers`` threads.

    The executor starts lazily on the first :meth:`run_tasks` call and
    persists across calls; :meth:`close` shuts it down and a later call
    starts a fresh one.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._executor: ThreadPoolExecutor | None = None
        #: Lifetime counters: dispatches and shard items run.
        self.batches = 0
        self.items = 0

    def worker_pids(self) -> list[int]:
        """PIDs of worker processes: always empty, the workers are threads
        of this process."""
        return []

    def run_tasks(self, fn, shards: Sequence[list]) -> list:
        """Run ``fn(shard)`` for every shard across the pool; results come
        back in shard order.

        A raising shard is contained: every future is harvested before the
        first error propagates, so no shard is still running when the
        caller sees it and the pool is immediately reusable.
        """
        shard_lists = [list(shard) for shard in shards]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-pool"
            )
        with get_tracer().span(
            "pool.dispatch", shards=len(shard_lists), workers=self.workers
        ):
            # One context copy per task, taken inside the dispatch span: a
            # context cannot be entered by two threads at once.
            futures = [
                self._executor.submit(
                    contextvars.copy_context().run, _run_task, fn, shard
                )
                for shard in shard_lists
            ]
            results: list = []
            task_error: Exception | None = None
            for future in futures:
                try:
                    results.append(future.result())
                except Exception as exc:
                    # Genuine task errors only — a KeyboardInterrupt /
                    # SystemExit delivered mid-harvest must abort NOW.
                    if task_error is None:
                        task_error = exc
            if task_error is not None:
                raise task_error
        items = sum(len(shard) for shard in shard_lists)
        self.batches += 1
        self.items += items
        _M_BATCHES.inc()
        _M_ITEMS.inc(items)
        return results

    def close(self) -> None:
        """Shut the threads down (idempotent; a later dispatch starts a
        fresh executor)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class EvaluatorPool(WorkerPool):
    """A thread pool resolving genotype shards against one fast evaluator."""

    def __init__(self, fast: "FastEvaluator", workers: int) -> None:
        super().__init__(workers)
        self.fast = fast

    def run_shards(self, shards: Sequence[list["Genotype"]]) -> list[list]:
        """``fast.genotype_inputs`` of every shard across the pool, in
        shard order."""
        return self.run_tasks(self.fast.genotype_inputs, shards)
