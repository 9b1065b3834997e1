"""REINFORCE training of the controller (Eq. 3-4, Sec. IV-C).

The policy gradient uses a moving-average baseline to reduce variance
*"while keeping the bias unchanged"*, an entropy bonus of 1e-4 added to the
reward to sustain exploration, and Adam with learning rate 0.0035.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..nas.encoding import CoDesignPoint, decode
from ..nn.optim import Adam, clip_grad_norm
from .controller import Controller
from .evaluator import Evaluation
from .reward import RewardSpec

__all__ = ["SearchSample", "SearchHistory", "Searcher", "ReinforceSearch"]


@dataclass(frozen=True)
class SearchSample:
    """One evaluated search iteration."""

    iteration: int
    tokens: tuple[int, ...]
    reward: float
    accuracy: float
    latency_ms: float
    energy_mj: float

    def point(self) -> CoDesignPoint:
        return decode(list(self.tokens), name=f"iter{self.iteration}")


@dataclass
class SearchHistory:
    """Full search trace plus convenience accessors."""

    samples: list[SearchSample] = field(default_factory=list)

    def append(self, sample: SearchSample) -> None:
        self.samples.append(sample)

    def record(
        self, tokens: Sequence[int], evaluation: Evaluation, reward_spec: RewardSpec
    ) -> SearchSample:
        """Append the next iteration: ``tokens`` scored by ``reward_spec``."""
        sample = SearchSample(
            iteration=len(self.samples),
            tokens=tuple(tokens),
            reward=reward_spec.reward(
                evaluation.accuracy, evaluation.latency_ms, evaluation.energy_mj
            ),
            accuracy=evaluation.accuracy,
            latency_ms=evaluation.latency_ms,
            energy_mj=evaluation.energy_mj,
        )
        self.samples.append(sample)
        return sample

    def __len__(self) -> int:
        return len(self.samples)

    def rewards(self) -> np.ndarray:
        return np.asarray([s.reward for s in self.samples])

    def best(self) -> SearchSample:
        if not self.samples:
            raise ValueError("empty history")
        return max(self.samples, key=lambda s: s.reward)

    def top(self, n: int) -> list[SearchSample]:
        """Top-n by reward with distinct token sequences."""
        if n < 1:
            raise ValueError("n must be >= 1")
        ranked = sorted(self.samples, key=lambda s: s.reward, reverse=True)
        seen: set[tuple[int, ...]] = set()
        out: list[SearchSample] = []
        for s in ranked:
            if s.tokens in seen:
                continue
            seen.add(s.tokens)
            out.append(s)
            if len(out) == n:
                break
        return out

    def every(self, k: int) -> list[SearchSample]:
        """Every k-th sample (how the paper subsamples its Fig. 6 plots)."""
        return self.samples[:: max(k, 1)]

    def running_best_rewards(self) -> np.ndarray:
        return np.maximum.accumulate(self.rewards())


class Searcher:
    """The scoring path and run loop every searcher shares.

    Subclasses differ only in their policy: how they propose token
    sequences and what they learn from the scored samples.
    :meth:`_score_proposals` decodes proposals (candidate ``i`` of a
    search is named ``f"{prefix}{i}"``), scores them in ONE
    ``evaluate_batch`` call when one is given and with one ``evaluate``
    call per point otherwise (both give the same :class:`Evaluation`
    values), and records them in order.  Scoring never touches ``rng``,
    so the choice changes wall-clock only.  :meth:`run` repeats
    :meth:`_advance` (one :meth:`step` unless a subclass batches).
    """

    prefix = "iter"

    def __init__(
        self,
        evaluate: Callable[[CoDesignPoint], Evaluation],
        reward_spec: RewardSpec,
        seed: int,
        evaluate_batch: Callable[[list[CoDesignPoint]], list[Evaluation]] | None = None,
    ) -> None:
        self.evaluate = evaluate
        self.evaluate_batch = evaluate_batch
        self.reward_spec = reward_spec
        self.rng = np.random.default_rng(seed)
        self.history = SearchHistory()

    def _score_proposals(
        self, token_lists: Sequence[Sequence[int]]
    ) -> list[SearchSample]:
        base = len(self.history)
        points = [
            decode(list(tokens), name=f"{self.prefix}{base + j}")
            for j, tokens in enumerate(token_lists)
        ]
        if self.evaluate_batch is not None:
            evaluations = list(self.evaluate_batch(points))
        else:
            evaluations = [self.evaluate(point) for point in points]
        return [
            self.history.record(tokens, evaluation, self.reward_spec)
            for tokens, evaluation in zip(token_lists, evaluations)
        ]

    def _advance(self, remaining: int) -> None:
        """One round of the run loop (``remaining`` candidates to go)."""
        self.step()

    def run(self, iterations: int) -> SearchHistory:
        """Score candidates until the history holds ``iterations``."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        while len(self.history) < iterations:
            self._advance(iterations - len(self.history))
        return self.history


class ReinforceSearch(Searcher):
    """The RL search loop of YOSO Step 2.

    ``batch_episodes`` rollouts are sampled per policy update; when an
    ``evaluate_batch`` callable is given (e.g.
    :meth:`repro.search.evaluator.BatchEvaluator.evaluate_many`) all
    rollouts of a step are scored in one batched call instead of one
    evaluator round-trip per rollout.  Candidate evaluation never touches
    the controller or the RNG, so batching changes wall-clock only — the
    sampled tokens, baseline updates and gradients are identical.
    """

    def __init__(
        self,
        controller: Controller,
        evaluate: Callable[[CoDesignPoint], Evaluation],
        reward_spec: RewardSpec,
        lr: float = 0.0035,
        baseline_decay: float = 0.95,
        entropy_weight: float = 1e-4,
        batch_episodes: int = 1,
        grad_clip: float = 10.0,
        seed: int = 0,
        evaluate_batch: Callable[[list[CoDesignPoint]], list[Evaluation]] | None = None,
    ) -> None:
        if batch_episodes < 1:
            raise ValueError("batch_episodes must be >= 1")
        super().__init__(evaluate, reward_spec, seed, evaluate_batch)
        self.controller = controller
        self.optimiser = Adam(controller.parameters(), lr=lr)
        self.baseline_decay = baseline_decay
        self.entropy_weight = entropy_weight
        self.batch_episodes = batch_episodes
        self.grad_clip = grad_clip
        self.baseline: float | None = None

    # ------------------------------------------------------------------
    def step(self) -> SearchSample:
        """Sample, evaluate and learn from ``batch_episodes`` episodes."""
        self.optimiser.zero_grad()
        episodes = [
            self.controller.sample(self.rng) for _ in range(self.batch_episodes)
        ]
        samples = self._score_proposals([episode.tokens for episode in episodes])
        for episode, sample in zip(episodes, samples):
            # Entropy bonus added to the reward (Sec. IV-C).
            shaped_reward = sample.reward + self.entropy_weight * episode.entropy
            if self.baseline is None:
                self.baseline = shaped_reward
            advantage = shaped_reward - self.baseline
            self.baseline = (
                self.baseline_decay * self.baseline
                + (1.0 - self.baseline_decay) * shaped_reward
            )
            self.controller.accumulate_policy_gradient(episode, advantage)
        clip_grad_norm(self.controller.parameters(), self.grad_clip)
        self.optimiser.step()
        return samples[-1]
