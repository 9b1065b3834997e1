"""Bayesian-optimisation baseline search.

Sec. III-B motivates the LSTM/RL searcher by noting that *"typical search
methods such as Bayesian Optimization [and] Bandit algorithms behave like
random search in high-dimensional search spaces."*  This module implements
that comparator so the claim is testable: a GP surrogate over the reward
with an expected-improvement acquisition, maximised by scoring a pool of
random candidate sequences per iteration (the standard discrete-space BO
loop).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..nas.encoding import CoDesignPoint, decode, random_sequence
from ..predict.features import feature_vector
from ..predict.gp import GaussianProcessRegressor
from .evaluator import Evaluation
from .reinforce import Searcher, SearchSample
from .reward import RewardSpec

__all__ = ["BayesianOptSearch", "expected_improvement"]


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """EI acquisition for maximisation: E[max(f - best - xi, 0)]."""
    std = np.maximum(std, 1e-12)
    z = (mean - best - xi) / std
    cdf = 0.5 * (1.0 + _erf_vec(z / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return (mean - best - xi) * cdf + std * pdf


def _erf_vec(x: np.ndarray) -> np.ndarray:
    from scipy.special import erf

    return erf(x)


class BayesianOptSearch(Searcher):
    """GP + expected-improvement search over the joint co-design space.

    The surrogate works on the same feature encoding the performance
    predictors use; candidates are proposed by uniformly sampling a pool of
    token sequences and picking the EI maximiser.  The first
    ``n_initial`` iterations are pure random exploration.

    ``batch_size`` > 1 proposes the top-B EI candidates of each pool and
    scores them in one batched evaluator call (greedy q-EI).
    """

    prefix = "bo"

    def __init__(
        self,
        evaluate: Callable[[CoDesignPoint], Evaluation],
        reward_spec: RewardSpec,
        n_initial: int = 10,
        pool_size: int = 64,
        refit_every: int = 5,
        seed: int = 0,
        feature_kwargs: dict | None = None,
        batch_size: int = 1,
        evaluate_batch: Callable[[list[CoDesignPoint]], list[Evaluation]] | None = None,
    ) -> None:
        if n_initial < 2:
            raise ValueError("n_initial must be >= 2 (the GP needs data)")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        super().__init__(evaluate, reward_spec, seed, evaluate_batch)
        self.n_initial = n_initial
        self.pool_size = pool_size
        self.refit_every = max(1, refit_every)
        self.batch_size = batch_size
        self.feature_kwargs = feature_kwargs or {}
        self._features: list[np.ndarray] = []
        self._rewards: list[float] = []
        self._gp: GaussianProcessRegressor | None = None
        self._since_fit = 0

    # ------------------------------------------------------------------
    def _propose_batch(self, n: int) -> list[list[int]]:
        """Top-``n`` EI candidates from one scored pool (n=1: the maximiser)."""
        if len(self._rewards) < self.n_initial or self._gp is None:
            return [random_sequence(self.rng) for _ in range(n)]
        pool = [random_sequence(self.rng) for _ in range(self.pool_size)]
        feats = np.stack(
            [
                feature_vector(decode(tokens), **self.feature_kwargs)
                for tokens in pool
            ]
        )
        mean, std = self._gp.predict_with_std(feats)
        ei = expected_improvement(mean, std, best=max(self._rewards))
        if n == 1:
            return [pool[int(np.argmax(ei))]]
        order = np.argsort(ei)[::-1][: min(n, len(pool))]
        picked = [pool[int(i)] for i in order]
        while len(picked) < n:  # pool smaller than the batch: pad randomly
            picked.append(random_sequence(self.rng))
        return picked

    def _maybe_refit(self) -> None:
        self._since_fit += 1
        have_enough = len(self._rewards) >= self.n_initial
        stale = self._gp is None or self._since_fit >= self.refit_every
        if have_enough and stale and np.ptp(self._rewards) > 0:
            gp = GaussianProcessRegressor(optimise=False, length_scale=3.0,
                                          noise_var=0.05)
            gp.fit(np.stack(self._features), np.asarray(self._rewards))
            self._gp = gp
            self._since_fit = 0

    def step(self) -> SearchSample:
        return self.step_batch(1)[0]

    def step_batch(self, n: int) -> list[SearchSample]:
        """Propose, score and absorb ``n`` candidates in one round."""
        if n < 1:
            raise ValueError("n must be >= 1")
        samples = self._score_proposals(self._propose_batch(n))
        for sample in samples:
            self._features.append(
                feature_vector(sample.point(), **self.feature_kwargs)
            )
            self._rewards.append(sample.reward)
            self._maybe_refit()
        return samples

    def _advance(self, remaining: int) -> None:
        self.step_batch(min(self.batch_size, remaining))
