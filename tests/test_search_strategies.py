"""Tests for the evolution and bandit search baselines plus mutation ops."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nas.encoding import CoDesignPoint, random_sequence, token_vocab_sizes
from repro.nas.mutate import hamming_distance, mutate_sequence
from repro.search.bandit import BanditSearch
from repro.search.evaluator import Evaluation
from repro.search.evolution import EvolutionSearch
from repro.search.reward import RewardSpec

SPEC = RewardSpec(0.5, -0.4, 0.5, -0.4, t_lat_ms=1.0, t_eer_mj=1.0)


def dataflow_evaluator(point: CoDesignPoint) -> Evaluation:
    """Learnable signal: WS dataflow is much better."""
    acc = 0.9 if point.config.dataflow == "WS" else 0.2
    return Evaluation(accuracy=acc, latency_ms=1.0, energy_mj=1.0)


class TestMutation:
    def test_single_mutation_changes_one_position(self, rng):
        tokens = random_sequence(rng)
        child = mutate_sequence(tokens, rng, n_mutations=1)
        assert hamming_distance(tokens, child) == 1

    def test_mutated_token_stays_in_vocab(self, rng):
        vocab = token_vocab_sizes()
        tokens = random_sequence(rng)
        for _ in range(20):
            tokens = mutate_sequence(tokens, rng)
            assert all(0 <= t < v for t, v in zip(tokens, vocab))

    def test_parent_not_modified(self, rng):
        tokens = random_sequence(rng)
        copy = list(tokens)
        mutate_sequence(tokens, rng)
        assert tokens == copy

    def test_multiple_mutations(self, rng):
        tokens = random_sequence(rng)
        child = mutate_sequence(tokens, rng, n_mutations=5)
        # Up to 5 (same position may be hit twice), at least 1.
        assert 1 <= hamming_distance(tokens, child) <= 5

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            mutate_sequence([0, 1], rng)
        with pytest.raises(ValueError):
            mutate_sequence(random_sequence(rng), rng, n_mutations=0)

    def test_hamming_requires_equal_length(self):
        with pytest.raises(ValueError):
            hamming_distance([0], [0, 1])


class TestEvolutionSearch:
    def test_seeds_population_then_evolves(self):
        search = EvolutionSearch(dataflow_evaluator, SPEC, population_size=6,
                                 tournament_size=3, seed=0)
        search.run(6)
        assert len(search._population) == 6
        search.run(10)
        assert len(search._population) == 6  # aging keeps size constant

    def test_improves_on_learnable_signal(self):
        search = EvolutionSearch(dataflow_evaluator, SPEC, population_size=10,
                                 tournament_size=4, seed=1)
        history = search.run(80)
        rewards = history.rewards()
        assert rewards[-20:].mean() > rewards[:10].mean()
        assert search.population_best == pytest.approx(rewards.max())

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            s = EvolutionSearch(dataflow_evaluator, SPEC, population_size=4,
                                tournament_size=2, seed=5)
            runs.append([x.tokens for x in s.run(10).samples])
        assert runs[0] == runs[1]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            EvolutionSearch(dataflow_evaluator, SPEC, population_size=1)
        with pytest.raises(ValueError):
            EvolutionSearch(dataflow_evaluator, SPEC, population_size=4,
                            tournament_size=9)
        search = EvolutionSearch(dataflow_evaluator, SPEC)
        with pytest.raises(ValueError):
            search.run(0)
        with pytest.raises(ValueError):
            _ = EvolutionSearch(dataflow_evaluator, SPEC).population_best


class TestBanditSearch:
    def test_tries_every_arm_first(self):
        search = BanditSearch(dataflow_evaluator, SPEC, seed=0)
        vocab = token_vocab_sizes()
        # After max(vocab) pulls every arm of every position has been tried.
        search.run(max(vocab))
        for counts in search._counts:
            assert np.all(counts >= 1)

    def test_converges_to_good_dataflow_arm(self):
        search = BanditSearch(dataflow_evaluator, SPEC, exploration=0.3, seed=1)
        search.run(100)
        from repro.nas.encoding import decode

        greedy = decode(search.greedy_tokens())
        assert greedy.config.dataflow == "WS"

    def test_history_and_rewards_recorded(self):
        search = BanditSearch(dataflow_evaluator, SPEC, seed=2)
        history = search.run(12)
        assert len(history) == 12
        assert set(np.round(history.rewards(), 6)) <= {
            round(SPEC.reward(0.9, 1, 1), 6), round(SPEC.reward(0.2, 1, 1), 6)
        }

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BanditSearch(dataflow_evaluator, SPEC, exploration=-1.0)
        with pytest.raises(ValueError):
            BanditSearch(dataflow_evaluator, SPEC).run(0)

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            s = BanditSearch(dataflow_evaluator, SPEC, seed=7)
            runs.append([x.tokens for x in s.run(8).samples])
        assert runs[0] == runs[1]
