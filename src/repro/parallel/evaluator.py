"""ParallelEvaluator: sharded, drop-in batched candidate scoring.

A :class:`~repro.search.evaluator.BatchEvaluator` subclass that overrides
one thing: how the unique cold genotypes of a call get their HyperNet
accuracies and feature prefixes.  Fewer than two run inline; more are
sharded across the threads of an :class:`~repro.parallel.pool.
EvaluatorPool` working on this evaluator's own
:class:`~repro.search.evaluator.FastEvaluator`.  Everything else is
inherited unchanged:

* the encoding-keyed LRU caches (evaluations, accuracies, feature
  prefixes) — only cache *misses* are ever sharded;
* the durable tier-2 store consult/append (``attach_store``), so
  persisted results short-circuit before any dispatch;
* the cheap hardware feature suffix (``config_features``);
* the batched GP latency/energy prediction over the full merged feature
  matrix;
* :class:`~repro.search.evaluator.Evaluation` assembly and accounting.

**Bit-exactness.**  Sharded accuracies equal the scalar oracle exactly
(the ``evaluate_many`` parity property), feature rows are a deterministic
pure function of the genotype, sharding is deterministic with an
order-preserving merge (:mod:`repro.parallel.sharder`), and the GP sees
the identical stacked matrix either way — so results are ``==``
:class:`~repro.search.evaluator.BatchEvaluator` at any worker count
(``tests/test_parallel.py``).

At ``workers <= 1`` no pool is ever created; :func:`create_evaluator`
returns a plain ``BatchEvaluator`` in that case.
"""

from __future__ import annotations

from ..search.evaluator import BatchEvaluator, FastEvaluator, ShardResult, WorkItem
from .pool import EvaluatorPool
from .sharder import shard_sequence

__all__ = ["ParallelEvaluator", "create_evaluator"]


class ParallelEvaluator(BatchEvaluator):
    """Drop-in ``BatchEvaluator`` that shards cold genotypes across threads.

    Parameters mirror :class:`~repro.search.evaluator.BatchEvaluator`
    plus ``workers``, the number of concurrent shards (``<= 1`` means
    strict in-process execution, behaviourally identical to the parent
    class).
    """

    def __init__(
        self, fast: FastEvaluator, workers: int = 2, cache_size: int = 16384
    ) -> None:
        super().__init__(fast, cache_size=cache_size)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool: EvaluatorPool | None = None

    @property
    def pool(self) -> EvaluatorPool | None:
        """The thread pool, or ``None`` before the first dispatch."""
        return self._pool

    def close(self) -> None:
        """Shut the pool's threads down (idempotent; the evaluator stays
        usable and a later cold batch starts them again)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _compute_fresh(self, items: list[WorkItem]) -> ShardResult:
        if self.workers <= 1 or len(items) < 2:
            return super()._compute_fresh(items)
        if self._pool is None:
            self._pool = EvaluatorPool(self.fast, self.workers)
        results = self._pool.run_shards(shard_sequence(items, self.workers))
        return ShardResult(
            accuracies=[a for r in results for a in r.accuracies],
            features=[f for r in results for f in r.features],
        )


def create_evaluator(
    fast: FastEvaluator, workers: int = 1, cache_size: int = 16384
) -> BatchEvaluator:
    """Build the right batched evaluator for a worker count.

    ``workers <= 1`` returns a plain in-process
    :class:`~repro.search.evaluator.BatchEvaluator`; anything larger
    returns a :class:`ParallelEvaluator`.  Both are drop-in compatible
    scorers.
    """
    if workers <= 1:
        return BatchEvaluator(fast, cache_size=cache_size)
    return ParallelEvaluator(fast, workers=workers, cache_size=cache_size)
