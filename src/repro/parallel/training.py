"""Sharded Step-3 training: independent ``train_accuracy`` jobs on threads.

Step-3 rescoring trains every top-N candidate from scratch — by far the
most expensive per-candidate work in a YOSO run, and embarrassingly
parallel: each training is a deterministic pure function of (genotype,
seed, dataset, recipe).  :func:`train_accuracies` is the entry point the
stack uses (:meth:`~repro.search.evaluator.AccurateEvaluator.
train_accuracies`, ``YosoSearch.finalize``, table2's ``_yoso_row``):
``workers <= 1`` trains serially, anything larger shards the candidate
list deterministically (:mod:`repro.parallel.sharder`) across a
:class:`~repro.parallel.pool.WorkerPool` of threads that all call the
serial code path, ``AccurateEvaluator.train_accuracy``, on the same
evaluator.

**Bit-exactness.**  Every candidate carries its own deterministic seed
and builds its own network, the dataset is only read, and the
order-preserving merge never lets the worker count influence which
candidate trains with which seed — so sharded results are ``==`` to
serial results at any worker count (``tests/test_training_shard.py``).
A durable store attached to the evaluator is consulted inside
``train_accuracy`` on every path; :class:`~repro.store.ResultStore` is
thread-safe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .pool import WorkerPool
from .sharder import merge_shards, shard_sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..nas.encoding import CoDesignPoint
    from ..search.evaluator import AccurateEvaluator

__all__ = ["train_accuracies"]


def train_accuracies(
    accurate: "AccurateEvaluator",
    points: Sequence["CoDesignPoint"],
    workers: int = 1,
    seeds: Sequence[int] | None = None,
) -> list[float]:
    """Stand-alone training accuracies for ``points``, serial or sharded.

    ``seeds`` optionally assigns one deterministic seed per candidate
    (``None`` means the evaluator's own seed); results are bit-identical
    to the serial loop at any worker count.
    """
    if seeds is not None and len(seeds) != len(points):
        raise ValueError("seeds must match points one-to-one")
    jobs = [
        (point, None if seeds is None else int(seeds[i]))
        for i, point in enumerate(points)
    ]

    def train(shard: list) -> list[float]:
        return [accurate.train_accuracy(point, seed=seed) for point, seed in shard]

    if workers <= 1 or len(jobs) < 2:
        return train(jobs)
    with WorkerPool(workers) as pool:
        return merge_shards(pool.run_tasks(train, shard_sequence(jobs, workers)))
