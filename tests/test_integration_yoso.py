"""End-to-end integration test: the full three-step YOSO pipeline."""

from __future__ import annotations

import pytest

from repro.nn.data import SyntheticCifar
from repro.search import BALANCED, YosoConfig, YosoSearch
from repro.search.reward import RewardSpec


@pytest.fixture(scope="module")
def pipeline_result():
    dataset = SyntheticCifar(image_size=8, train_size=96, val_size=48,
                             test_size=48, seed=0)
    config = YosoConfig(
        num_cells=3,
        stem_channels=4,
        hypernet_epochs=1,
        hypernet_batch=32,
        predictor_samples=30,
        search_iterations=15,
        topn=2,
        rescore_epochs=1,
        seed=0,
    )
    spec = BALANCED.scaled(t_lat_ms=0.05, t_eer_mj=0.02)
    search = YosoSearch(dataset, spec, config=config)
    return search.run(), search


class TestPipeline:
    def test_produces_best_candidate(self, pipeline_result):
        result, _ = pipeline_result
        assert result.best is not None
        assert 0.0 <= result.best.accurate.accuracy <= 1.0
        assert result.best.accurate.latency_ms > 0
        assert result.best.accurate.energy_mj > 0

    def test_history_length(self, pipeline_result):
        result, _ = pipeline_result
        assert len(result.history) == 15

    def test_rescored_count_and_order(self, pipeline_result):
        result, _ = pipeline_result
        assert 1 <= len(result.rescored) <= 2
        # Best-first ordering by (threshold pass, reward).
        keys = [(c.meets_thresholds, c.reward) for c in result.rescored]
        assert keys == sorted(keys, reverse=True)
        assert result.best is result.rescored[0]

    def test_wall_times_recorded(self, pipeline_result):
        result, _ = pipeline_result
        assert set(result.wall_seconds) == {
            "step1_fast_evaluator", "step2_search", "step3_rescoring",
        }
        assert all(t >= 0 for t in result.wall_seconds.values())

    def test_best_point_decodes(self, pipeline_result):
        result, _ = pipeline_result
        point = result.best.point()
        assert point.genotype.normal.loose_ends()
        assert point.config.num_pes > 0

    def test_step_order_enforced(self):
        dataset = SyntheticCifar(image_size=8, train_size=32, val_size=16,
                                 test_size=16, seed=1)
        search = YosoSearch(dataset, BALANCED.scaled(0.1, 0.1),
                            config=YosoConfig(num_cells=3, stem_channels=4))
        with pytest.raises(RuntimeError):
            search.run_search()
        with pytest.raises(RuntimeError):
            search.finalize()

    @pytest.mark.parametrize("topn", [0, -1])
    def test_topn_below_one_rejected_at_construction(self, topn):
        # Step 3 rescores the top-N: a bad topn must fail before Steps 1-2.
        with pytest.raises(ValueError, match="topn"):
            YosoConfig(topn=topn)

    @pytest.mark.parametrize("field", ["eval_batch", "search_batch", "hypernet_batch"])
    @pytest.mark.parametrize("size", [0, -1])
    def test_batch_size_below_one_rejected_at_construction(self, field, size):
        # eval_batch=0 would fail only after Step-1 training, and
        # search_batch=0 would be clamped to 1: reject them up front.
        with pytest.raises(ValueError, match=field):
            YosoConfig(**{field: size})

    def test_artifacts_exposed(self, pipeline_result):
        _, search = pipeline_result
        assert search.hypernet is not None
        assert search.samples is not None
        assert len(search.samples) == 30
        assert search.fast_evaluator is not None

    def test_finalize_batched_simulation_matches_scalar(self, pipeline_result):
        """Step 3 rescoring batches latency/energy into ONE simulator
        call; every candidate must match the scalar per-point oracle."""
        result, search = pipeline_result
        cfg = search.config
        for candidate in result.rescored:
            point = candidate.point()
            report = search.simulator.simulate_genotype(
                point.genotype,
                point.config,
                num_cells=cfg.num_cells,
                stem_channels=cfg.stem_channels,
                image_size=search.dataset.image_size,
                num_classes=cfg.num_classes,
            )
            assert candidate.accurate.latency_ms == report.latency_ms
            assert candidate.accurate.energy_mj == report.energy_mj


class TestTransferability:
    def test_pipeline_on_different_task(self):
        """Sec. I: the framework is "easily transferable to different
        applications" — run it on a 4-class task with a different image size."""
        dataset = SyntheticCifar(num_classes=4, image_size=8, train_size=64,
                                 val_size=32, test_size=32, seed=2)
        config = YosoConfig(
            num_cells=3, stem_channels=4, num_classes=4,
            hypernet_epochs=1, hypernet_batch=32,
            predictor_samples=20, search_iterations=8, topn=1,
            rescore_epochs=1, seed=2,
        )
        result = YosoSearch(dataset, BALANCED.scaled(0.1, 0.1), config=config).run()
        assert result.best.accurate.energy_mj > 0
        assert 0.0 <= result.best.accurate.accuracy <= 1.0


class TestQuickCodesign:
    def test_smoke_scale_entry_point(self):
        import repro

        result = repro.quick_codesign("smoke", seed=1)
        assert result.best.accurate.energy_mj > 0
        assert len(result.history) == repro.SMOKE.search_iterations
