"""Tests for REINFORCE search, random search and history utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nas.encoding import CoDesignPoint, SEQUENCE_LENGTH
from repro.search.controller import Controller
from repro.search.evaluator import Evaluation
from repro.search.random_search import RandomSearch
from repro.search.reinforce import ReinforceSearch, SearchHistory, SearchSample
from repro.search.reward import RewardSpec

SPEC = RewardSpec(0.5, -0.4, 0.5, -0.4, t_lat_ms=1.0, t_eer_mj=1.0)


def fake_eval_constant(point: CoDesignPoint) -> Evaluation:
    return Evaluation(accuracy=0.5, latency_ms=1.0, energy_mj=1.0)


class BanditEvaluator:
    """Deterministic evaluator whose 'accuracy' depends on one HW token.

    Co-design points whose dataflow is WS score much higher, giving the
    controller a clean learnable signal.
    """

    def __call__(self, point: CoDesignPoint) -> Evaluation:
        good = point.config.dataflow == "WS"
        return Evaluation(
            accuracy=0.9 if good else 0.2, latency_ms=1.0, energy_mj=1.0
        )


def make_sample(i, reward, tokens=None):
    return SearchSample(
        iteration=i,
        tokens=tokens or tuple(range(SEQUENCE_LENGTH)),
        reward=reward,
        accuracy=0.5,
        latency_ms=1.0,
        energy_mj=1.0,
    )


class TestSearchHistory:
    def test_best(self):
        h = SearchHistory()
        for i, r in enumerate([0.1, 0.9, 0.4]):
            h.append(make_sample(i, r, tokens=(i,) * SEQUENCE_LENGTH))
        assert h.best().reward == 0.9

    def test_best_empty_raises(self):
        with pytest.raises(ValueError):
            SearchHistory().best()

    def test_top_deduplicates_tokens(self):
        h = SearchHistory()
        same = (1,) * SEQUENCE_LENGTH
        h.append(make_sample(0, 0.9, same))
        h.append(make_sample(1, 0.9, same))
        h.append(make_sample(2, 0.5, (2,) * SEQUENCE_LENGTH))
        top = h.top(3)
        assert len(top) == 2
        assert top[0].reward == 0.9

    @pytest.mark.parametrize("n", [0, -1])
    def test_top_rejects_n_below_one(self, n):
        """``top(0)`` is not "everything": Step 3 would otherwise
        stand-alone-train the whole history."""
        h = SearchHistory()
        for i in range(3):
            h.append(make_sample(i, 0.1 * i, (i,) * SEQUENCE_LENGTH))
        with pytest.raises(ValueError):
            h.top(n)

    def test_every_subsamples(self):
        h = SearchHistory()
        for i in range(100):
            h.append(make_sample(i, 0.1, (i % 5,) * SEQUENCE_LENGTH))
        assert len(h.every(10)) == 10

    def test_running_best_monotone(self):
        h = SearchHistory()
        rng = np.random.default_rng(0)
        for i in range(50):
            h.append(make_sample(i, float(rng.random()), (i,) * SEQUENCE_LENGTH))
        rb = h.running_best_rewards()
        assert np.all(np.diff(rb) >= 0)

    def test_sample_point_roundtrip(self):
        rng = np.random.default_rng(1)
        from repro.nas.encoding import random_sequence

        tokens = tuple(random_sequence(rng))
        s = make_sample(0, 0.5, tokens)
        assert tuple(s.point().genotype.normal.nodes[0].__class__.__mro__) is not None
        assert s.point().config is not None


class TestReinforceSearch:
    def test_run_collects_requested_iterations(self):
        search = ReinforceSearch(Controller(seed=0), fake_eval_constant, SPEC, seed=0)
        history = search.run(8)
        assert len(history) == 8

    def test_invalid_iterations(self):
        search = ReinforceSearch(Controller(seed=0), fake_eval_constant, SPEC, seed=0)
        with pytest.raises(ValueError):
            search.run(0)

    @pytest.mark.parametrize("batch_episodes", [0, -1])
    def test_batch_episodes_below_one_rejected(self, batch_episodes):
        with pytest.raises(ValueError, match="batch_episodes"):
            ReinforceSearch(
                Controller(seed=0),
                fake_eval_constant,
                SPEC,
                batch_episodes=batch_episodes,
                seed=0,
            )

    def test_baseline_tracks_reward(self):
        search = ReinforceSearch(Controller(seed=1), fake_eval_constant, SPEC, seed=1)
        search.run(5)
        # Constant reward 0.5 (+tiny entropy bonus): baseline must be near it.
        assert search.baseline == pytest.approx(0.5, abs=0.1)

    def test_learns_bandit_signal(self):
        """After training, the policy must prefer the rewarded dataflow token."""
        evaluator = BanditEvaluator()
        search = ReinforceSearch(
            Controller(seed=2), evaluator, SPEC, lr=0.02, seed=2
        )
        search.run(150)
        rng = np.random.default_rng(3)
        from repro.nas.encoding import decode

        late_hits = 0
        n = 40
        for _ in range(n):
            tokens = search.controller.sample(rng).tokens
            if decode(tokens).config.dataflow == "WS":
                late_hits += 1
        # Uniform would give ~25%; trained policy should be well above.
        assert late_hits / n > 0.5

    def test_rl_beats_random_on_learnable_signal(self):
        evaluator = BanditEvaluator()
        rl = ReinforceSearch(Controller(seed=4), evaluator, SPEC, lr=0.02, seed=4)
        rl_hist = rl.run(150)
        rnd = RandomSearch(evaluator, SPEC, seed=4)
        rnd_hist = rnd.run(150)
        tail = 50
        rl_tail = rl_hist.rewards()[-tail:].mean()
        rnd_tail = rnd_hist.rewards()[-tail:].mean()
        assert rl_tail > rnd_tail

    def test_history_records_metrics(self):
        search = ReinforceSearch(Controller(seed=5), fake_eval_constant, SPEC, seed=5)
        sample = search.step()
        assert sample.accuracy == 0.5
        assert sample.latency_ms == 1.0
        assert sample.reward == pytest.approx(SPEC.reward(0.5, 1.0, 1.0))


class TestRandomSearch:
    def test_run_length(self):
        history = RandomSearch(fake_eval_constant, SPEC, seed=0).run(12)
        assert len(history) == 12

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            RandomSearch(fake_eval_constant, SPEC, seed=0).run(-1)

    def test_deterministic_given_seed(self):
        h1 = RandomSearch(fake_eval_constant, SPEC, seed=7).run(5)
        h2 = RandomSearch(fake_eval_constant, SPEC, seed=7).run(5)
        assert [s.tokens for s in h1.samples] == [s.tokens for s in h2.samples]

    def test_samples_diverse(self):
        history = RandomSearch(fake_eval_constant, SPEC, seed=8).run(10)
        assert len({s.tokens for s in history.samples}) > 5
