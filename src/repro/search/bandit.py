"""Per-position multi-armed-bandit search baseline.

The second comparator the paper dismisses for high-dimensional spaces
(Sec. III-B): each of the 44 sequence positions is treated as an
independent UCB1 bandit over its token vocabulary.  The factorised
assumption is exactly what breaks in a coupled space — architecture and
hardware tokens interact — which is why the LSTM policy (which conditions
on the whole prefix) wins.  Implemented so that claim is measurable.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..nas.encoding import CoDesignPoint, token_vocab_sizes
from .evaluator import Evaluation
from .reinforce import Searcher, SearchSample
from .reward import RewardSpec

__all__ = ["BanditSearch"]


class BanditSearch(Searcher):
    """Factorised UCB1 over token positions."""

    prefix = "bandit"

    def __init__(
        self,
        evaluate: Callable[[CoDesignPoint], Evaluation],
        reward_spec: RewardSpec,
        exploration: float = 0.5,
        seed: int = 0,
    ) -> None:
        if exploration < 0:
            raise ValueError("exploration must be non-negative")
        super().__init__(evaluate, reward_spec, seed)
        self.exploration = exploration
        self.vocab = token_vocab_sizes()
        #: per-position arm statistics.
        self._counts = [np.zeros(v) for v in self.vocab]
        self._sums = [np.zeros(v) for v in self.vocab]

    # ------------------------------------------------------------------
    def _pick(self, position: int, total_pulls: int) -> int:
        counts = self._counts[position]
        # Play every untried arm first (random order).
        untried = np.flatnonzero(counts == 0)
        if len(untried):
            return int(self.rng.choice(untried))
        means = self._sums[position] / counts
        bonus = self.exploration * np.sqrt(np.log(max(total_pulls, 2)) / counts)
        scores = means + bonus
        best = np.flatnonzero(scores == scores.max())
        return int(self.rng.choice(best))

    def step(self) -> SearchSample:
        t = len(self.history) + 1
        tokens = [self._pick(i, t) for i in range(len(self.vocab))]
        sample = self._score_proposals([tokens])[0]
        for i, tok in enumerate(tokens):
            self._counts[i][tok] += 1
            self._sums[i][tok] += sample.reward
        return sample

    def greedy_tokens(self) -> list[int]:
        """The current per-position empirical-mean argmax sequence."""
        tokens = []
        for counts, sums in zip(self._counts, self._sums):
            with np.errstate(invalid="ignore", divide="ignore"):
                means = np.where(counts > 0, sums / np.maximum(counts, 1), -np.inf)
            tokens.append(int(np.argmax(means)))
        return tokens
