"""Sharded Step-3 training (``repro.parallel.training``).

* **Bit-exact parity** — ``train_accuracies`` results are ``==`` to the
  serial loop at workers 1/2/3, with and without per-candidate seeds (no
  tolerances).  The threads all run the serial code path,
  ``AccurateEvaluator.train_accuracy``, on one evaluator.
* **Stack wiring** — the ``workers`` knob reaches ``YosoConfig`` and
  table2's rescore row.

CI runs this module inside the tier-1 suite and in the dedicated
parallel job, so the threaded training path is exercised on every push.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.config import random_config
from repro.nas.encoding import CoDesignPoint
from repro.nas.space import DnnSpace
from repro.search.evaluator import AccurateEvaluator


def _points(n: int, seed: int = 123) -> list[CoDesignPoint]:
    rng = np.random.default_rng(seed)
    space = DnnSpace()
    return [
        CoDesignPoint(space.sample(rng, name=f"train{seed}_{i}"), random_config(rng))
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def accurate(tiny_dataset) -> AccurateEvaluator:
    """A smoke-scale accurate evaluator (1-epoch trainings)."""
    return AccurateEvaluator(
        tiny_dataset, num_cells=3, stem_channels=4, train_epochs=1, seed=0
    )


@pytest.fixture(scope="module")
def serial_reference(accurate) -> tuple[list[CoDesignPoint], list[float]]:
    points = _points(3, seed=11)
    return points, accurate.train_accuracies(points, workers=1)


# ---------------------------------------------------------------------------
# Per-candidate seeds
# ---------------------------------------------------------------------------


class TestTrainingPayload:
    def test_per_candidate_seed_override(self, accurate):
        point = _points(1, seed=19)[0]
        default = accurate.train_accuracy(point)
        assert accurate.train_accuracy(point, seed=accurate.seed) == default
        # A different seed is a different (deterministic) training run.
        assert accurate.train_accuracy(point, seed=99) == accurate.train_accuracy(
            point, seed=99
        )


# ---------------------------------------------------------------------------
# Sharded vs serial bit-equality
# ---------------------------------------------------------------------------


class TestShardedTraining:
    def test_workers1_is_the_serial_loop(self, accurate, serial_reference):
        points, reference = serial_reference
        assert [accurate.train_accuracy(p) for p in points] == reference

    def test_two_workers_bit_identical(self, accurate, serial_reference):
        points, reference = serial_reference
        assert accurate.train_accuracies(points, workers=2) == reference

    @pytest.mark.slow
    def test_three_workers_bit_identical(self, accurate, serial_reference):
        points, reference = serial_reference
        assert accurate.train_accuracies(points, workers=3) == reference

    def test_seeded_jobs_bit_identical(self, accurate):
        points = _points(3, seed=23)
        seeds = [7, 8, 9]
        serial = accurate.train_accuracies(points, workers=1, seeds=seeds)
        assert serial == [
            accurate.train_accuracy(p, seed=s) for p, s in zip(points, seeds)
        ]
        assert accurate.train_accuracies(points, workers=2, seeds=seeds) == serial

    def test_empty_and_validation(self, accurate):
        assert accurate.train_accuracies([], workers=2) == []
        with pytest.raises(ValueError):
            accurate.train_accuracies(_points(2, seed=31), seeds=[1])

# ---------------------------------------------------------------------------
# Stack wiring
# ---------------------------------------------------------------------------


class TestStackWiring:
    def test_yoso_config_has_training_knobs(self):
        from repro.search.yoso import YosoConfig

        config = YosoConfig()
        assert config.workers == 1

    def test_table2_training_rescore_row(self, smoke_context):
        """The training-rescore path trains the pooled top-N stand-alone
        (serial here: the smoke context has workers=1) and yields a row."""
        from repro.experiments.table2 import _yoso_row
        from repro.search.reward import ENERGY_FOCUS

        rescorer = AccurateEvaluator(
            smoke_context.dataset,
            num_cells=smoke_context.scale.hypernet_cells,
            stem_channels=smoke_context.scale.hypernet_channels,
            train_epochs=1,
            seed=0,
        )
        row = _yoso_row(
            "Yoso_eer",
            ENERGY_FOCUS,
            5,
            smoke_context,
            8,  # iterations
            2,  # topn
            restarts=1,
            rescorer=rescorer,
        )
        assert row.method == "single-stage"
        assert 0.0 <= row.test_error <= 100.0

    @pytest.mark.slow
    def test_finalize_sharded_training_matches_serial(self):
        """The whole pipeline's Step 3 is worker-count invariant (the
        quick_codesign invariance test covers Steps 1-3; this pins the
        rescored accuracies specifically)."""
        from repro import quick_codesign

        serial = quick_codesign("smoke", seed=21, workers=1)
        sharded = quick_codesign("smoke", seed=21, workers=2)
        assert [c.accurate for c in sharded.rescored] == [
            c.accurate for c in serial.rescored
        ]
