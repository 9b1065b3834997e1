"""Regularised-evolution search baseline (Real et al., AAAI'19).

The search strategy behind AmoebaNet-A — one of the two-stage baselines in
Table 2 — applied to YOSO's *joint* token space: tournament selection over a
sliding population, mutation of one token per child, and age-based removal
(the oldest individual dies, which is the "regularisation").

Included as an extension comparator alongside RL, random search and
Bayesian optimisation (see ``repro.experiments.ablation``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..nas.encoding import CoDesignPoint, random_sequence
from ..nas.mutate import mutate_sequence
from .evaluator import Evaluation
from .reinforce import Searcher, SearchSample
from .reward import RewardSpec

__all__ = ["EvolutionSearch"]


class EvolutionSearch(Searcher):
    """Aging evolution over 44-token co-design sequences.

    With ``batch_size`` > 1 the loop runs generation-style: B children are
    bred from the *current* population snapshot, scored in one batched
    evaluator call, then inserted together while the B oldest individuals
    die.  ``batch_size=1`` (default) is the classic fully-sequential aging
    evolution of Real et al.
    """

    prefix = "evo"

    def __init__(
        self,
        evaluate: Callable[[CoDesignPoint], Evaluation],
        reward_spec: RewardSpec,
        population_size: int = 20,
        tournament_size: int = 5,
        mutations_per_child: int = 1,
        seed: int = 0,
        batch_size: int = 1,
        evaluate_batch: Callable[[list[CoDesignPoint]], list[Evaluation]] | None = None,
    ) -> None:
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 1 <= tournament_size <= population_size:
            raise ValueError("tournament_size must be in [1, population_size]")
        if not 1 <= batch_size <= population_size:
            raise ValueError("batch_size must be in [1, population_size]")
        super().__init__(evaluate, reward_spec, seed, evaluate_batch)
        self.population_size = population_size
        self.tournament_size = tournament_size
        self.mutations_per_child = mutations_per_child
        self.batch_size = batch_size
        #: (tokens, reward) pairs, oldest first.
        self._population: deque[tuple[list[int], float]] = deque()

    # ------------------------------------------------------------------
    def _select_parent(self) -> list[int]:
        """Tournament selection among a random subset of the population."""
        indices = self.rng.choice(
            len(self._population), size=self.tournament_size, replace=False
        )
        parent_tokens, _ = max(
            (self._population[int(i)] for i in indices), key=lambda tr: tr[1]
        )
        return parent_tokens

    def step(self) -> SearchSample:
        """One evaluation: seed the population, then evolve."""
        return self.step_batch(1)[0]

    def step_batch(self, n: int) -> list[SearchSample]:
        """Breed, score and insert ``n`` children from one snapshot.

        While the population is not full, up to ``n`` random individuals
        seed it instead and nobody dies.
        """
        if not 1 <= n <= self.population_size:
            raise ValueError("n must be in [1, population_size]")
        seeding = len(self._population) < self.population_size
        if seeding:
            n = min(n, self.population_size - len(self._population))
            token_lists = [random_sequence(self.rng) for _ in range(n)]
        else:
            token_lists = [
                mutate_sequence(
                    self._select_parent(), self.rng, self.mutations_per_child
                )
                for _ in range(n)
            ]
        samples = self._score_proposals(token_lists)
        for tokens, sample in zip(token_lists, samples):
            self._population.append((tokens, sample.reward))
            if not seeding:
                self._population.popleft()  # aging: the oldest dies
        return samples

    def _advance(self, remaining: int) -> None:
        self.step_batch(min(self.batch_size, remaining))

    @property
    def population_best(self) -> float:
        """Best reward currently alive in the population."""
        if not self._population:
            raise ValueError("population is empty")
        return max(r for _, r in self._population)
