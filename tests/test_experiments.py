"""Smoke-scale integration tests for the experiment harnesses.

These exercise every ``run_*`` entry point end to end at the smallest scale
and assert structural invariants; the quantitative shape claims are asserted
in ``benchmarks/`` at demo scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    demo_thresholds,
    format_table,
    get_context,
    mean_distance_to_front,
    pareto_front,
    run_fig4,
    run_fig5a,
    run_fig5b,
    run_fig6_tradeoff,
    run_fig6a,
    run_table2,
)
from repro.scale import SMOKE


@pytest.fixture(scope="module")
def ctx(smoke_context):
    return smoke_context


class TestContext:
    def test_cached(self, ctx):
        assert get_context("smoke", 0) is ctx

    def test_artifacts_present(self, ctx):
        assert ctx.hypernet is not None
        assert len(ctx.hypernet_history) == SMOKE.hypernet_epochs
        assert len(ctx.samples) == SMOKE.predictor_samples
        assert ctx.t_lat_ms > 0 and ctx.t_eer_mj > 0

    def test_demo_thresholds_midrange(self, ctx):
        t_lat, t_eer = demo_thresholds(SMOKE, simulator=ctx.simulator)
        assert 0 < t_lat < 10
        assert 0 < t_eer < 10

    def test_paper_scale_uses_paper_thresholds(self):
        from repro.scale import PAPER

        t_lat, t_eer = demo_thresholds(PAPER)
        assert (t_lat, t_eer) == (1.2, 9.0)


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])


class TestParetoUtilities:
    def test_front_of_dominated_set(self):
        pts = np.array([[1.0, 1.0], [2.0, 0.5], [0.5, 2.0], [3.0, 3.0]])
        front = pareto_front(pts)
        # (1,1) is dominated by nothing with lower cost & higher quality...
        # front must contain (0.5, 2.0) and (3.0, 3.0) boundary points.
        assert [0.5, 2.0] in front.tolist()
        assert [3.0, 3.0] in front.tolist()
        assert [2.0, 0.5] not in front.tolist()  # dominated by (1,1)? no --
        # (1,1) has lower cost and higher quality than (2.0, 0.5): dominated.

    def test_front_single_point(self):
        front = pareto_front(np.array([[1.0, 1.0]]))
        assert front.shape == (1, 2)

    def test_front_sorted_by_cost(self):
        rng = np.random.default_rng(0)
        pts = rng.random((50, 2))
        front = pareto_front(pts)
        assert np.all(np.diff(front[:, 0]) >= 0)
        # Quality strictly increases along the front.
        assert np.all(np.diff(front[:, 1]) > 0)

    def test_front_points_not_dominated(self):
        rng = np.random.default_rng(1)
        pts = rng.random((100, 2))
        front = pareto_front(pts)
        for f in front:
            dominated = np.any((pts[:, 0] < f[0]) & (pts[:, 1] > f[1]))
            assert not dominated

    def test_distance_zero_on_front(self):
        pts = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert mean_distance_to_front(pts, pts) == pytest.approx(0.0)

    def test_distance_positive_off_front(self):
        front = np.array([[1.0, 2.0]])
        pts = np.array([[2.0, 1.0]])
        assert mean_distance_to_front(pts, front) > 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            pareto_front(np.zeros((3,)))
        with pytest.raises(ValueError):
            mean_distance_to_front(np.zeros((2, 2)), np.zeros((0, 2)))


class TestFig4:
    def test_runs_and_reports_both_targets(self):
        result = run_fig4("smoke", seed=0)
        targets = {r.target for r in result.rows}
        assert targets == {"energy", "latency"}
        assert len(result.rows) == 12  # 6 models x 2 targets
        assert result.n_train == SMOKE.predictor_train
        assert result.sim_seconds_per_sample > 0

    def test_best_returns_lowest_mse(self):
        result = run_fig4("smoke", seed=0)
        best = result.best("energy")
        assert all(
            best.mse <= r.mse for r in result.rows if r.target == "energy"
        )

    def test_to_text_renders(self):
        result = run_fig4("smoke", seed=0)
        text = result.to_text()
        assert "gaussian_process" in text
        assert "MSE" in text


class TestFig5:
    def test_fig5a_curve(self, ctx):
        result = run_fig5a("smoke", 0)
        assert len(result.epochs) == SMOKE.hypernet_epochs
        assert all(0 <= a <= 1 for a in result.accuracy)

    @pytest.fixture(scope="class")
    def fig5b(self, ctx):
        return run_fig5b("smoke", 0, context=ctx, n_models=3)

    def test_fig5b_shapes(self, fig5b):
        assert len(fig5b.hypernet_accuracy) == 3
        assert len(fig5b.standalone_accuracy) == 3
        assert -1.0 <= fig5b.spearman_rho <= 1.0
        assert "pearson" in fig5b.to_text()

    def test_fig5b_hypernet_matches_scalar_oracle(self, ctx, fig5b):
        """One ``evaluate_many`` call scores the sampled sub-models; it
        must ``==`` a scalar ``HyperNet.evaluate`` per sub-model."""
        rng = np.random.default_rng(0 + 17)
        expected = [
            ctx.hypernet.evaluate(
                ctx.hypernet.sample_genotype(rng, name=f"corr{i}"),
                ctx.dataset.val.images,
                ctx.dataset.val.labels,
                batch_size=min(128, ctx.scale.val_size),
            )
            for i in range(3)
        ]
        assert fig5b.hypernet_accuracy.tolist() == expected


class TestFig6:
    def test_fig6a_structure(self, ctx):
        result = run_fig6a("smoke", 0, context=ctx, iterations=12)
        assert len(result.rl) == 12
        assert len(result.random) == 12
        assert result.rl_best > 0
        assert len(result.rl_curve()) == 2  # every 10th of 12

    def test_fig6_tradeoff_energy(self, ctx):
        result = run_fig6_tradeoff("energy", "smoke", 0, context=ctx, iterations=12)
        scatter = result.scatter()
        assert scatter.shape[1] == 2
        assert result.front().shape[1] == 2
        distances = result.front_distance_by_phase(phases=2)
        assert len(distances) == 2
        assert all(d >= 0 for d in distances)

    def test_fig6_tradeoff_latency_metric(self, ctx):
        result = run_fig6_tradeoff("latency", "smoke", 0, context=ctx, iterations=12)
        assert result.metric == "latency_ms"

    def test_invalid_which(self, ctx):
        with pytest.raises(ValueError):
            run_fig6_tradeoff("area", "smoke", 0, context=ctx, iterations=5)


@pytest.fixture(scope="module")
def table2_result(ctx):
    return run_table2("smoke", 0, context=ctx, iterations=8, topn=2)


class TestTable2:
    def test_structure(self, table2_result):
        result = table2_result
        models = [r.model for r in result.rows]
        assert "Yoso_lat" in models and "Yoso_eer" in models
        assert "TwoStage_energy" in models and "TwoStage_latency" in models
        assert len(result.rows) == 10
        assert len(result.two_stage_rows()) == 6
        assert len(result.nas_rows()) == 2
        assert len(result.energy_ratios()) == 6
        assert len(result.latency_ratios()) == 6
        assert all(v > 0 for v in result.energy_ratios().values())
        text = result.to_text()
        assert "Yoso_eer" in text and "Fig7" in text

    def test_nas_ratios_positive(self, table2_result):
        assert table2_result.nas_energy_ratio() > 0
        assert table2_result.nas_latency_ratio() > 0

    def test_reward_of_consistent(self, table2_result):
        from repro.search.reward import BALANCED

        spec = BALANCED.scaled(table2_result.t_lat_ms, table2_result.t_eer_mj)
        row = table2_result.row("Yoso_eer")
        expected = spec.reward(
            1.0 - row.test_error / 100.0, row.latency_ms, row.energy_mj
        )
        assert table2_result.reward_of("Yoso_eer", spec) == pytest.approx(expected)

    def test_row_lookup(self, table2_result):
        assert table2_result.row("yoso_lat").model == "Yoso_lat"
        with pytest.raises(KeyError):
            table2_result.row("ResNet")
