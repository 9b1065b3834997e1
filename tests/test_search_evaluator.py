"""Tests for the fast and accurate evaluators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.config import AcceleratorConfig
from repro.accel.simulator import SystolicArraySimulator
from repro.nas.encoding import CoDesignPoint
from repro.nas.hypernet import HyperNet
from repro.nas.space import DnnSpace
from repro.predict.dataset import collect_samples
from repro.search.evaluator import (
    AccurateEvaluator,
    BatchEvaluator,
    Evaluation,
    FastEvaluator,
)


@pytest.fixture(scope="module")
def fast_evaluator(tiny_dataset):
    hypernet = HyperNet(num_cells=3, stem_channels=4, num_classes=10,
                        rng=np.random.default_rng(0))
    samples = collect_samples(30, seed=0, num_cells=3, stem_channels=4, image_size=8)
    return FastEvaluator.from_samples(
        hypernet, tiny_dataset, samples,
        num_cells=3, stem_channels=4, image_size=8, eval_batch=48,
    )


def make_point(seed=0):
    rng = np.random.default_rng(seed)
    from repro.accel.config import random_config

    return CoDesignPoint(genotype=DnnSpace().sample(rng), config=random_config(rng))


class TestEvaluation:
    def test_valid(self):
        e = Evaluation(0.5, 1.0, 2.0)
        assert e.accuracy == 0.5

    def test_rejects_bad_accuracy(self):
        with pytest.raises(ValueError):
            Evaluation(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            Evaluation(-0.1, 1.0, 1.0)


class TestFastEvaluator:
    def test_returns_positive_metrics(self, fast_evaluator):
        result = fast_evaluator.evaluate(make_point(1))
        assert 0.0 <= result.accuracy <= 1.0
        assert result.latency_ms > 0
        assert result.energy_mj > 0

    def test_oracle_runs_after_batched_scoring(self, fast_evaluator, monkeypatch):
        """The scalar oracle caches nothing, so scoring a point through a
        BatchEvaluator first cannot turn a later ``evaluate`` into a read
        of the batched value: it still runs ``HyperNet.evaluate`` once."""
        point = make_point(5)
        batched = BatchEvaluator(fast_evaluator).evaluate_many([point])[0]
        calls = []
        original = HyperNet.evaluate
        monkeypatch.setattr(
            HyperNet,
            "evaluate",
            lambda self, *a, **k: calls.append(1) or original(self, *a, **k),
        )
        assert fast_evaluator.evaluate(point) == batched
        assert len(calls) == 1

    def test_accuracy_independent_of_hw_config(self, fast_evaluator):
        point = make_point(3)
        other_cfg = AcceleratorConfig(8, 8, 108, 64, "NLR")
        variant = CoDesignPoint(genotype=point.genotype, config=other_cfg)
        a = fast_evaluator.evaluate(point)
        b = fast_evaluator.evaluate(variant)
        assert a.accuracy == b.accuracy

    def test_hw_config_changes_performance_prediction(self, fast_evaluator):
        point = make_point(4)
        small = CoDesignPoint(point.genotype, AcceleratorConfig(8, 8, 108, 64, "NLR"))
        big = CoDesignPoint(point.genotype, AcceleratorConfig(16, 32, 1024, 1024, "WS"))
        a = fast_evaluator.evaluate(small)
        b = fast_evaluator.evaluate(big)
        assert (a.latency_ms, a.energy_mj) != (b.latency_ms, b.energy_mj)

    def test_gp_predictions_track_simulator(self, fast_evaluator, tiny_dataset):
        """Fast-evaluator latency/energy must correlate with ground truth."""
        from repro.predict.metrics import spearman

        sim = SystolicArraySimulator()
        preds, truths = [], []
        for seed in range(15):
            point = make_point(100 + seed)
            e = fast_evaluator.evaluate(point)
            report = sim.simulate_genotype(point.genotype, point.config,
                                           num_cells=3, stem_channels=4,
                                           image_size=8)
            preds.append(e.energy_mj)
            truths.append(report.energy_mj)
        assert spearman(truths, preds) > 0.7


def simulate(point: CoDesignPoint):
    """Step-3 ground truth of one point, at the evaluators' geometry."""
    return SystolicArraySimulator().simulate_genotype(
        point.genotype, point.config, num_cells=3, stem_channels=4, image_size=8
    )


class TestAccurateEvaluator:
    def test_end_to_end(self, tiny_dataset):
        evaluator = AccurateEvaluator(
            tiny_dataset, num_cells=3, stem_channels=4, train_epochs=1, seed=0
        )
        point = make_point(5)
        assert 0.0 <= evaluator.train_accuracy(point) <= 1.0
        report = simulate(point)
        assert report.latency_ms > 0
        assert report.energy_mj > 0

    def test_deterministic(self, tiny_dataset):
        point = make_point(6)
        kwargs = dict(num_cells=3, stem_channels=4, train_epochs=1, seed=3)
        a = AccurateEvaluator(tiny_dataset, **kwargs).train_accuracy(point)
        b = AccurateEvaluator(tiny_dataset, **kwargs).train_accuracy(point)
        assert a == b
        assert simulate(point).latency_ms == simulate(point).latency_ms
