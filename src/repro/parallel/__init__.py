"""Sharded multi-threaded evaluation with a micro-batching scheduler.

The batched co-design scorer (:mod:`repro.search.evaluator`) made a
population cost one grouped HyperNet forward and one GP prediction — on
one core.  This subsystem spreads that work across threads over the
parent's own evaluators and coalesces concurrent request traffic, while
keeping results bit-identical to the single-threaded engine.

* :mod:`repro.parallel.pool` — :class:`WorkerPool`: a persistent thread
  executor that runs a task over deterministic shards, each under a copy
  of the caller's context, and harvests every shard before an error
  propagates; :class:`EvaluatorPool` runs the cold-genotype work items
  against one :class:`~repro.search.evaluator.FastEvaluator`.
* :mod:`repro.parallel.sharder` — deterministic contiguous chunking of
  genotype populations and flat hardware sweeps, with an
  order-preserving merge (``merge(shard(xs, k)) == xs`` for every k).
* :mod:`repro.parallel.evaluator` — :class:`ParallelEvaluator`, a
  drop-in ``BatchEvaluator`` that keeps the LRU caches, the store and the
  GP prediction as they are and shards only the cold genotypes'
  accuracies and feature prefixes.  :func:`create_evaluator` picks the
  right engine for a worker count.
* :mod:`repro.parallel.scheduler` — :class:`MicroBatchScheduler`:
  coalesces concurrent ``evaluate`` requests from many search threads or
  service clients into one sharded batch per tick.
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
network clients exactly as it coalesces in-process threads.
"""

from ..search.evaluator import ShardResult, WorkItem
from .evaluator import ParallelEvaluator, create_evaluator
from .pool import EvaluatorPool, WorkerPool
from .scheduler import MicroBatchScheduler
from .sharder import merge_shards, shard_bounds, shard_sequence
from .training import train_accuracies

__all__ = [
    "ParallelEvaluator",
    "create_evaluator",
    "EvaluatorPool",
    "WorkerPool",
    "WorkItem",
    "ShardResult",
    "MicroBatchScheduler",
    "shard_bounds",
    "shard_sequence",
    "merge_shards",
    "train_accuracies",
]
