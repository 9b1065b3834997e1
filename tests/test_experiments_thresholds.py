"""Tests for the threshold-sensitivity harness."""

from __future__ import annotations

import pytest

from repro.experiments import get_context
from repro.experiments.thresholds import run_threshold_sweep


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
