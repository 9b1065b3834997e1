"""Tests for the two-stage baseline flow and the published-cell baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.config import AcceleratorConfig, enumerate_configs
from repro.accel.simulator import SystolicArraySimulator
from repro.baselines.genotypes import TWO_STAGE_BASELINES, baseline_by_name
from repro.search.reward import RewardSpec
from repro.search.two_stage import best_config_for, run_two_stage


@pytest.fixture(scope="module")
def sim():
    return SystolicArraySimulator()


SMALL = dict(num_cells=3, stem_channels=4, image_size=8)
SUBSET = list(enumerate_configs())[::37]  # 22 configs for speed


class TestBaselines:
    def test_six_baselines(self):
        assert len(TWO_STAGE_BASELINES) == 6

    def test_names_match_table2(self):
        names = {m.name for m in TWO_STAGE_BASELINES}
        assert names == {
            "NasNet-A", "Darts_v1", "Darts_v2", "AmoebaNet-A", "EnasNet", "PnasNet",
        }

    def test_all_genotypes_valid_and_distinct(self):
        jsons = {m.genotype.to_json() for m in TWO_STAGE_BASELINES}
        assert len(jsons) == 6
        for m in TWO_STAGE_BASELINES:
            assert m.genotype.normal.loose_ends()
            assert m.genotype.reduce.loose_ends()

    def test_paper_metadata_present(self):
        nasnet = baseline_by_name("NasNet-A")
        assert nasnet.search_gpu_days == 1800
        assert nasnet.paper_test_error == 3.41
        assert nasnet.paper_energy_mj == 15.24

    def test_lookup_case_insensitive(self):
        assert baseline_by_name("darts_v1").name == "Darts_v1"

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            baseline_by_name("ResNet50")

    def test_baselines_buildable_as_networks(self, rng):
        from repro.nas.network import CellNetwork

        x = rng.normal(size=(1, 3, 8, 8)).astype(np.float32)
        for m in TWO_STAGE_BASELINES:
            net = CellNetwork(m.genotype, num_cells=3, stem_channels=4, rng=rng)
            assert net(x).shape == (1, 10)


class TestBestConfigFor:
    def test_energy_objective_minimises_energy(self, sim, genotype):
        cfg, energy, _ = best_config_for(
            genotype, sim, objective="energy", configs=SUBSET, **SMALL
        )
        for other in SUBSET:
            report = sim.simulate_genotype(genotype, other, **SMALL)
            assert energy <= report.energy_mj + 1e-12

    def test_latency_objective_minimises_latency(self, sim, genotype):
        cfg, _, latency = best_config_for(
            genotype, sim, objective="latency", configs=SUBSET, **SMALL
        )
        for other in SUBSET:
            report = sim.simulate_genotype(genotype, other, **SMALL)
            assert latency <= report.latency_ms + 1e-12

    def test_objectives_can_disagree(self, sim, genotype):
        cfg_e, _, _ = best_config_for(genotype, sim, objective="energy",
                                      configs=SUBSET, **SMALL)
        cfg_l, _, _ = best_config_for(genotype, sim, objective="latency",
                                      configs=SUBSET, **SMALL)
        # Not a strict requirement for every genotype, but with this subset
        # the energy and latency winners differ (see simulator tradeoff test).
        assert cfg_e != cfg_l

    def test_reward_objective_requires_spec(self, sim, genotype):
        with pytest.raises(ValueError):
            best_config_for(genotype, sim, objective="reward", configs=SUBSET, **SMALL)

    def test_reward_objective_maximises_composite(self, sim, genotype):
        spec = RewardSpec(0.5, -0.4, 0.5, -0.4, t_lat_ms=0.05, t_eer_mj=0.02)
        cfg, energy, latency = best_config_for(
            genotype, sim, objective="reward", reward_spec=spec,
            configs=SUBSET, **SMALL
        )
        best = spec.reward(1.0, latency, energy)
        for other in SUBSET:
            report = sim.simulate_genotype(genotype, other, **SMALL)
            assert best >= spec.reward(1.0, report.latency_ms, report.energy_mj) - 1e-12

    def test_threshold_screening_prefers_passing_configs(self, sim, genotype):
        # Thresholds generous enough that some configs pass.
        reports = [sim.simulate_genotype(genotype, c, **SMALL) for c in SUBSET]
        lat_med = float(np.median([r.latency_ms for r in reports]))
        eer_med = float(np.median([r.energy_mj for r in reports]))
        spec = RewardSpec(0.5, -0.4, 0.5, -0.4, t_lat_ms=lat_med, t_eer_mj=eer_med)
        _, energy, latency = best_config_for(
            genotype, sim, objective="energy", reward_spec=spec,
            configs=SUBSET, **SMALL
        )
        assert latency <= lat_med and energy <= eer_med

    def test_unknown_objective_rejected(self, sim, genotype):
        with pytest.raises(ValueError):
            best_config_for(genotype, sim, objective="area", configs=SUBSET, **SMALL)

    def test_empty_configs_rejected(self, sim, genotype):
        with pytest.raises(ValueError):
            best_config_for(genotype, sim, objective="energy", configs=[], **SMALL)


def constant(value):
    """A batch accuracy callable scoring every genotype ``value``."""
    return lambda genotypes: [value] * len(genotypes)


class TestTwoStageNas:
    def test_executes_both_stages(self, sim):
        from repro.search.two_stage import two_stage_nas

        calls = []

        def accuracies_of(genotypes):
            calls.append([g.name for g in genotypes])
            return [0.1 + 0.8 * (hash(g.to_json()) % 100) / 100.0 for g in genotypes]

        [row] = two_stage_nas(accuracies_of, sim, ("energy",),
                              nas_samples=12, seed=0, configs=SUBSET, **SMALL)
        assert len(calls) == 1 and len(calls[0]) == 12  # one batched call
        assert row.model == "TwoStage_energy"
        assert row.genotype is not None
        assert row.energy_mj > 0 and row.latency_ms > 0

    def test_stage1_picks_highest_accuracy(self, sim):
        from repro.search.two_stage import two_stage_nas

        accuracies = {}

        def accuracies_of(genotypes):
            values = [(hash(g.to_json()) % 97) / 97.0 for g in genotypes]
            accuracies.update((g.to_json(), v) for g, v in zip(genotypes, values))
            return values

        [row] = two_stage_nas(accuracies_of, sim, ("latency",),
                              nas_samples=10, seed=1, configs=SUBSET, **SMALL)
        assert row.genotype is not None
        assert accuracies[row.genotype.to_json()] == max(accuracies.values())
        assert row.accuracy == max(accuracies.values())

    def test_ties_keep_the_first_maximum(self, sim):
        from repro.search.two_stage import two_stage_nas

        def accuracies_of(genotypes):
            return [0.9 if i in (2, 4) else 0.1 for i in range(len(genotypes))]

        [row] = two_stage_nas(accuracies_of, sim, ("energy",),
                              nas_samples=6, seed=2, configs=SUBSET, **SMALL)
        assert row.genotype.name == "two_stage_nas2"
        assert row.accuracy == 0.9
        [row] = two_stage_nas(constant(0.5), sim, ("energy",),
                              nas_samples=6, seed=2, configs=SUBSET, **SMALL)
        assert row.genotype.name == "two_stage_nas0"

    def test_deterministic(self, sim):
        from repro.search.two_stage import two_stage_nas

        rows = [
            two_stage_nas(constant(0.5), sim, ("energy",),
                          nas_samples=5, seed=3, configs=SUBSET, **SMALL)[0]
            for _ in range(2)
        ]
        assert rows[0].genotype.to_json() == rows[1].genotype.to_json()
        assert rows[0].config == rows[1].config

    def test_rows_run_stage1_once_for_all_objectives(self, sim):
        from repro.search.two_stage import two_stage_nas

        calls = []

        def accuracies_of(genotypes):
            calls.append(len(genotypes))
            return [(hash(g.to_json()) % 89) / 89.0 for g in genotypes]

        objectives = ("energy", "latency")
        rows = two_stage_nas(accuracies_of, sim, objectives,
                             nas_samples=7, seed=4, configs=SUBSET, **SMALL)
        assert calls == [7]
        assert [row.model for row in rows] == ["TwoStage_energy", "TwoStage_latency"]
        singles = [
            two_stage_nas(accuracies_of, sim, (objective,),
                          nas_samples=7, seed=4, configs=SUBSET, **SMALL)[0]
            for objective in objectives
        ]
        # repr, not ==: paper_test_error is NaN.
        assert repr(rows) == repr(singles)

    def test_invalid_samples(self, sim):
        from repro.search.two_stage import two_stage_nas

        with pytest.raises(ValueError):
            two_stage_nas(constant(0.5), sim, ("energy",),
                          nas_samples=0, configs=SUBSET, **SMALL)


class TestRunTwoStage:
    def test_produces_one_row_per_baseline(self, sim):
        rows = run_two_stage(sim, constant(0.8), objective="energy", configs=SUBSET, **SMALL)
        assert len(rows) == 6
        assert {r.model for r in rows} == {m.name for m in TWO_STAGE_BASELINES}

    def test_rows_carry_accuracy_and_metadata(self, sim):
        rows = run_two_stage(sim, constant(0.75), objective="latency", configs=SUBSET, **SMALL)
        for row in rows:
            assert row.accuracy == 0.75
            assert row.test_error == pytest.approx(25.0)
            assert row.search_gpu_days > 0
            assert row.energy_mj > 0 and row.latency_ms > 0

    def test_accuracy_callback_sees_each_genotype(self, sim):
        calls = []

        def accuracies_of(genotypes):
            calls.append([g.name for g in genotypes])
            return [0.5] * len(genotypes)

        run_two_stage(sim, accuracies_of, objective="energy", configs=SUBSET, **SMALL)
        assert calls == [[m.name for m in TWO_STAGE_BASELINES]]


class TestScalarOracleParity:
    """The flows score through the batched engines (``evaluate_many``,
    ``simulate_many``); every number must ``==`` the scalar
    ``HyperNet.evaluate`` / ``simulate_genotype`` oracles."""

    @pytest.fixture(scope="class")
    def setup(self, smoke_context):
        ctx = smoke_context
        scale = ctx.scale
        geometry = dict(
            num_cells=scale.hypernet_cells,
            stem_channels=scale.hypernet_channels,
            image_size=scale.image_size,
            num_classes=ctx.dataset.num_classes,
        )
        fast = ctx.fast_evaluator
        spec = RewardSpec(
            0.5, -0.4, 0.5, -0.4, t_lat_ms=ctx.t_lat_ms, t_eer_mj=ctx.t_eer_mj
        )

        def batched(genotypes):
            return ctx.hypernet.evaluate_many(
                genotypes, fast.val_images, fast.val_labels, batch_size=fast.eval_batch
            )

        def scalar(genotype):
            return ctx.hypernet.evaluate(
                genotype, fast.val_images, fast.val_labels, batch_size=fast.eval_batch
            )

        return ctx, geometry, spec, batched, scalar

    @staticmethod
    def scalar_best_config(ctx, genotype, objective, spec, geometry):
        """``best_config_for`` rebuilt from scalar ``simulate_genotype``."""
        reports = [
            (cfg, ctx.simulator.simulate_genotype(genotype, cfg, **geometry))
            for cfg in SUBSET
        ]
        passing = [
            (cfg, r) for cfg, r in reports
            if spec.meets_thresholds(r.latency_ms, r.energy_mj)
        ]
        key = {
            "energy": lambda item: item[1].energy_mj,
            "latency": lambda item: item[1].latency_ms,
            "reward": lambda item: -spec.reward(1.0, item[1].latency_ms, item[1].energy_mj),
        }[objective]
        cfg, report = min(passing or reports, key=key)
        return cfg, report.energy_mj, report.latency_ms

    def test_run_two_stage_matches_scalar_oracle(self, setup):
        ctx, geometry, spec, batched, scalar = setup
        rows = run_two_stage(ctx.simulator, batched, objective="reward",
                             reward_spec=spec, configs=SUBSET, **geometry)
        for model, row in zip(TWO_STAGE_BASELINES, rows):
            assert row.accuracy == scalar(model.genotype)
            expected = self.scalar_best_config(ctx, model.genotype, "reward", spec, geometry)
            assert (row.config, row.energy_mj, row.latency_ms) == expected

    @pytest.mark.parametrize("objective", ["energy", "latency"])
    def test_two_stage_nas_matches_scalar_oracle(self, setup, objective):
        from repro.nas.space import DnnSpace
        from repro.search.two_stage import two_stage_nas

        ctx, geometry, spec, batched, scalar = setup
        [row] = two_stage_nas(batched, ctx.simulator, (objective,),
                              reward_spec=spec, nas_samples=8, seed=21,
                              configs=SUBSET, **geometry)
        # Stage 1 as a scalar loop: the first strictly better genotype wins.
        rng = np.random.default_rng(21)
        space = DnnSpace()
        best, best_accuracy = None, -1.0
        for i in range(8):
            genotype = space.sample(rng, name=f"two_stage_nas{i}")
            accuracy = scalar(genotype)
            if accuracy > best_accuracy:
                best, best_accuracy = genotype, accuracy
        assert row.genotype == best
        assert row.accuracy == best_accuracy
        expected = self.scalar_best_config(ctx, best, objective, spec, geometry)
        assert (row.config, row.energy_mj, row.latency_ms) == expected
