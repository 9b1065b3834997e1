"""Tests for the threshold-sensitivity harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.config import random_config
from repro.experiments import get_context
from repro.experiments.thresholds import run_threshold_sweep
from repro.nas.space import DnnSpace


@pytest.fixture(scope="module")
def ctx():
    return get_context("smoke", 0)


@pytest.fixture(scope="module")
def sweep(ctx):
    return run_threshold_sweep("smoke", 0, context=ctx, pool_size=24,
                               accuracy_model="uniform")


class TestThresholdSweep:
    def test_grid_size(self, sweep):
        assert len(sweep.cells) == 9  # 3x3 factor grid

    def test_winner_metrics_positive(self, sweep):
        for cell in sweep.cells:
            assert cell.winner_latency_ms > 0
            assert cell.winner_energy_mj > 0
            assert cell.winner_reward > 0
            assert 0 <= cell.winner_index < sweep.pool_size

    def test_tight_energy_threshold_never_worse(self, sweep):
        """Tightening t_eer can only pull the winner's energy down (or tie)."""
        tight, loose = sweep.energy_under_tight_vs_loose_eer()
        assert tight <= loose + 1e-12

    def test_tight_latency_threshold_never_worse(self, sweep):
        tight, loose = sweep.latency_under_tight_vs_loose_lat()
        assert tight <= loose + 1e-12

    def test_thresholds_recorded(self, sweep, ctx):
        lats = {c.t_lat_ms for c in sweep.cells}
        eers = {c.t_eer_mj for c in sweep.cells}
        assert len(lats) == 3 and len(eers) == 3
        assert ctx.t_lat_ms in lats  # factor 1.0 present

    def test_hypernet_accuracy_model(self, ctx):
        sweep = run_threshold_sweep("smoke", 0, context=ctx, pool_size=4,
                                    accuracy_model="hypernet")
        assert all(0.0 <= c.winner_accuracy <= 1.0 for c in sweep.cells)

    def test_hypernet_sweep_matches_scalar_oracle(self, ctx):
        """The pool is scored by one ``simulate_genotypes`` and one
        ``evaluate_many`` call; every cell must ``==`` the cell rebuilt
        from a scalar ``simulate_genotype`` / ``HyperNet.evaluate`` pool."""
        sweep = run_threshold_sweep("smoke", 0, context=ctx, pool_size=8,
                                    accuracy_model="hypernet")
        scale, fast = ctx.scale, ctx.fast_evaluator
        rng = np.random.default_rng(0 + 77)
        space = DnnSpace()
        pool = []
        for i in range(8):
            genotype = space.sample(rng, name=f"sweep{i}")
            report = ctx.simulator.simulate_genotype(
                genotype, random_config(rng),
                num_cells=scale.hypernet_cells,
                stem_channels=scale.hypernet_channels,
                image_size=scale.image_size,
                num_classes=ctx.dataset.num_classes,
            )
            accuracy = ctx.hypernet.evaluate(
                genotype, fast.val_images, fast.val_labels, batch_size=fast.eval_batch
            )
            pool.append((accuracy, report.latency_ms, report.energy_mj))
        for cell in sweep.cells:
            spec = sweep.base_spec.scaled(cell.t_lat_ms, cell.t_eer_mj)
            feasible = [
                i for i, (_, lat, eer) in enumerate(pool)
                if spec.meets_thresholds(lat, eer)
            ] or range(len(pool))
            rewards = {
                i: spec.reward(*pool[i]) if pool[i][0] > 0 else 0.0 for i in feasible
            }
            winner = max(rewards, key=rewards.get)
            assert cell.winner_index == winner
            assert (
                cell.winner_accuracy, cell.winner_latency_ms, cell.winner_energy_mj
            ) == pool[winner]
            assert cell.winner_reward == rewards[winner]

    def test_invalid_args(self, ctx):
        with pytest.raises(ValueError):
            run_threshold_sweep("smoke", 0, context=ctx, pool_size=1)
        with pytest.raises(ValueError):
            run_threshold_sweep("smoke", 0, context=ctx, pool_size=4,
                                accuracy_model="oracle")

    def test_deterministic(self, ctx):
        a = run_threshold_sweep("smoke", 0, context=ctx, pool_size=8,
                                accuracy_model="uniform")
        b = run_threshold_sweep("smoke", 0, context=ctx, pool_size=8,
                                accuracy_model="uniform")
        assert [c.winner_index for c in a.cells] == [c.winner_index for c in b.cells]
