"""Random-search baseline (the comparison of Fig. 6(a)).

Uniformly samples co-design points from the same combined space and scores
them with the same evaluator and reward; the only difference from the RL
search is the absence of a learned policy.  ``batch_size`` controls how
many candidates are drawn and scored per batched evaluator call — token
sampling is the only RNG consumer, so the history is identical for every
batch size.
"""

from __future__ import annotations

from typing import Callable

from ..nas.encoding import CoDesignPoint, random_sequence
from .evaluator import Evaluation
from .reinforce import Searcher, SearchSample
from .reward import RewardSpec

__all__ = ["RandomSearch"]


class RandomSearch(Searcher):
    """Uniform sampling over the 44-token action space."""

    prefix = "rand"

    def __init__(
        self,
        evaluate: Callable[[CoDesignPoint], Evaluation],
        reward_spec: RewardSpec,
        seed: int = 0,
        batch_size: int = 1,
        evaluate_batch: Callable[[list[CoDesignPoint]], list[Evaluation]] | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        super().__init__(evaluate, reward_spec, seed, evaluate_batch)
        self.batch_size = batch_size

    # ------------------------------------------------------------------
    def step(self) -> SearchSample:
        return self.step_batch(1)[0]

    def step_batch(self, n: int) -> list[SearchSample]:
        """Draw and score ``n`` candidates in one batched evaluator call."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return self._score_proposals([random_sequence(self.rng) for _ in range(n)])

    def _advance(self, remaining: int) -> None:
        self.step_batch(min(self.batch_size, remaining))
