"""Sharded multi-threaded evaluation with a micro-batching scheduler.

The batched co-design scorer (:class:`~repro.search.evaluator.
BatchEvaluator`) makes a population cost one grouped HyperNet forward
and one GP prediction.  This subsystem holds the threads it shards cold
genotypes over at ``workers > 1``, shards Step-3 training, and coalesces
concurrent request traffic, keeping results bit-identical to the
single-threaded engine.

* :mod:`repro.parallel.pool` — :class:`WorkerPool`: a persistent thread
  executor that runs a task over deterministic shards, each under a copy
  of the caller's context, and harvests every shard before an error
  propagates; :class:`EvaluatorPool` runs
  :meth:`~repro.search.evaluator.FastEvaluator.genotype_inputs` on shards
  of cold genotypes for a ``BatchEvaluator`` with ``workers > 1``.
* :mod:`repro.parallel.sharder` — deterministic contiguous chunking of
  genotype populations and flat hardware sweeps, with an
  order-preserving merge (``merge(shard(xs, k)) == xs`` for every k).
* :mod:`repro.parallel.scheduler` — :class:`MicroBatchScheduler`:
  on the service's event loop, serves warm requests from the caches and
  coalesces concurrent cold requests into one sharded batch per tick,
  run on one worker thread.
* :mod:`repro.parallel.training` — :func:`train_accuracies` runs
  independent Step-3 ``train_accuracy`` jobs on threads over one
  :class:`~repro.search.evaluator.AccurateEvaluator`, bit-identical to
  the serial loop at any worker count.

Every search strategy reaches this engine through the ``workers`` knob on
:class:`~repro.search.yoso.YosoConfig`, ``get_context(...)`` or the
``--workers`` CLI flags (which also shard Step-3 top-N training); see
docs/PERFORMANCE.md for the execution model and where the GIL caps the
speedup.  :mod:`repro.service` exposes the whole stack as a long-lived
TCP endpoint (``yoso serve``), with the scheduler coalescing concurrent
network clients.
:func:`create_evaluator` is a plain ``BatchEvaluator`` constructor, kept
for the perfbench workloads.
"""

from ..search.evaluator import BatchEvaluator, FastEvaluator
from .pool import EvaluatorPool, WorkerPool
from .scheduler import MicroBatchScheduler
from .sharder import merge_shards, shard_bounds, shard_sequence
from .training import train_accuracies

__all__ = [
    "create_evaluator",
    "EvaluatorPool",
    "WorkerPool",
    "MicroBatchScheduler",
    "shard_bounds",
    "shard_sequence",
    "merge_shards",
    "train_accuracies",
]


def create_evaluator(
    fast: FastEvaluator, workers: int = 1, cache_size: int = 16384
) -> BatchEvaluator:
    """A :class:`~repro.search.evaluator.BatchEvaluator` sharding over
    ``workers`` threads (``<= 1``: in process)."""
    return BatchEvaluator(fast, workers=workers, cache_size=cache_size)
