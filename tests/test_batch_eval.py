"""Parity and cache-semantics tests for the batched evaluation engine.

The batch paths (``simulate_many`` / ``BatchEvaluator`` / batched searches)
must produce the same numbers as the scalar paths they accelerate — these
tests pin that with ``==`` — and the encoding-keyed LRU must serve repeats
without recomputation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.config import enumerate_configs, random_config
from repro.accel.simulator import SystolicArraySimulator
from repro.accel.workload import network_workloads
from repro.nas.encoding import CoDesignPoint, decode, encode
from repro.nas.hypernet import HyperNet
from repro.nas.space import DnnSpace
from repro.predict.dataset import collect_samples
from repro.predict.features import genotype_features
from repro.search.evaluator import BatchEvaluator, FastEvaluator
from repro.search.random_search import RandomSearch
from repro.search.reinforce import ReinforceSearch
from repro.search.reward import BALANCED

SMALL = dict(num_cells=3, stem_channels=4, image_size=8)


def random_points(n: int, seed: int = 0) -> list[CoDesignPoint]:
    rng = np.random.default_rng(seed)
    space = DnnSpace()
    return [
        CoDesignPoint(genotype=space.sample(rng), config=random_config(rng))
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def sim():
    return SystolicArraySimulator()


@pytest.fixture(scope="module")
def fast_evaluator(tiny_dataset):
    hypernet = HyperNet(
        num_cells=3, stem_channels=4, num_classes=10, rng=np.random.default_rng(0)
    )
    samples = collect_samples(30, seed=0, **SMALL)
    return FastEvaluator.from_samples(
        hypernet, tiny_dataset, samples, eval_batch=48, **SMALL
    )


class TestSimulateManyParity:
    def test_one_network_many_configs(self, sim, genotype):
        """Broadcast sweep must match per-config scalar simulation."""
        layers = network_workloads(genotype, **SMALL)
        configs = list(enumerate_configs())[::17]
        batch = sim.simulate_many(layers, configs)
        for i, config in enumerate(configs):
            report = sim.simulate_network(layers, config)
            assert batch.latency_ms[i] == report.latency_ms
            assert batch.energy_mj[i] == report.energy_mj
            assert batch.total_macs[i] == report.total_macs
            assert batch.total_dram_bytes[i] == report.total_dram_bytes

    def test_many_networks_many_configs(self, sim):
        """Ragged (per-point layer list) batches must match too."""
        points = random_points(24, seed=1)
        pairs = [(p.genotype, p.config) for p in points]
        batch = sim.simulate_genotypes(pairs, **SMALL)
        assert len(batch) == 24
        for i, point in enumerate(points):
            report = sim.simulate_genotype(point.genotype, point.config, **SMALL)
            assert batch.latency_ms[i] == report.latency_ms
            assert batch.energy_mj[i] == report.energy_mj

    def test_every_dataflow_covered(self, sim, genotype):
        """All four mapping models agree with their scalar branches."""
        layers = network_workloads(genotype, **SMALL)
        from repro.accel.config import AcceleratorConfig

        configs = [
            AcceleratorConfig(14, 16, 196, 128, flow)
            for flow in ("WS", "OS", "RS", "NLR")
        ]
        batch = sim.simulate_many(layers, configs)
        for i, config in enumerate(configs):
            report = sim.simulate_network(layers, config)
            assert batch.energy_mj[i] == report.energy_mj
            assert batch.latency_ms[i] == report.latency_ms

    def test_empty_batch_rejected(self, sim, genotype):
        layers = network_workloads(genotype, **SMALL)
        with pytest.raises(ValueError):
            sim.simulate_many(layers, [])

    def test_mismatched_lengths_rejected(self, sim, genotype):
        layers = network_workloads(genotype, **SMALL)
        configs = list(enumerate_configs())[:3]
        with pytest.raises(ValueError):
            sim.simulate_many([layers, layers], configs)


class TestPredictBatch:
    def test_matches_predict(self):
        from repro.predict.gp import GaussianProcessRegressor

        samples = collect_samples(40, seed=2, **SMALL)
        gp = GaussianProcessRegressor(optimise=False)
        gp.fit(samples.x[:30], samples.energy_mj[:30])
        single = np.array([float(gp.predict(x[None, :])[0]) for x in samples.x[30:]])
        batch = gp.predict_batch(samples.x[30:])
        assert batch.tolist() == single.tolist()


class TestBatchEvaluatorParity:
    def test_matches_fast_evaluator(self, fast_evaluator):
        batch = BatchEvaluator(fast_evaluator)
        points = random_points(16, seed=5)
        batched = batch.evaluate_many(points)
        for point, b in zip(points, batched):
            s = fast_evaluator.evaluate(point)
            assert b.accuracy == s.accuracy
            assert b.latency_ms == s.latency_ms
            assert b.energy_mj == s.energy_mj

    def test_scalar_entry_point(self, fast_evaluator):
        batch = BatchEvaluator(fast_evaluator)
        point = random_points(1, seed=6)[0]
        assert batch.evaluate(point) == batch.evaluate_many([point])[0]

    def test_decoded_points_share_cache_entries(self, fast_evaluator):
        """Results are keyed on the token encoding, so a point decoded from
        its tokens (a fresh object with another name) is a cache hit."""
        batch = BatchEvaluator(fast_evaluator)
        points = random_points(6, seed=7)
        by_points = batch.evaluate_many(points)
        decoded = [decode(encode(p), name=f"d{i}") for i, p in enumerate(points)]
        by_decoded = batch.evaluate_many(decoded)
        assert all(a is b for a, b in zip(by_points, by_decoded))
        assert batch.hits == len(points)


class TestBatchEvaluatorColdCache:
    def test_fresh_population_one_batched_hypernet_call(self, fast_evaluator):
        """A cold-cache batch of unique genotypes must trigger exactly ONE
        batched HyperNet evaluation, never per-candidate scalar runs."""
        batch = BatchEvaluator(fast_evaluator)
        points = random_points(12, seed=20)
        calls = {"many": 0, "scalar": 0}
        original_many = fast_evaluator.hypernet.evaluate_many
        original_scalar = fast_evaluator.hypernet.evaluate
        fast_evaluator.hypernet.evaluate_many = lambda *a, **k: (
            calls.__setitem__("many", calls["many"] + 1) or original_many(*a, **k)
        )
        fast_evaluator.hypernet.evaluate = lambda *a, **k: (
            calls.__setitem__("scalar", calls["scalar"] + 1)
            or original_scalar(*a, **k)
        )
        try:
            results = batch.evaluate_many(points)
        finally:
            fast_evaluator.hypernet.evaluate_many = original_many
            fast_evaluator.hypernet.evaluate = original_scalar
        assert len(results) == 12
        assert calls == {"many": 1, "scalar": 0}

    def test_accuracies_match_scalar_oracle(self, fast_evaluator):
        """Batched cold-cache accuracies equal scalar HyperNet.evaluate."""
        batch = BatchEvaluator(fast_evaluator)
        points = random_points(8, seed=21)
        results = batch.evaluate_many(points)
        for point, result in zip(points, results):
            oracle = fast_evaluator.hypernet.evaluate(
                point.genotype,
                fast_evaluator.val_images,
                fast_evaluator.val_labels,
                batch_size=fast_evaluator.eval_batch,
            )
            assert result.accuracy == oracle

    def test_fresh_insertions_evicting_cached_accuracies_mid_batch(
        self, fast_evaluator
    ):
        """A batch mixing cached genotypes with more fresh ones than the
        genotype LRU can hold must not lose the cached values to
        mid-batch eviction (regression: KeyError on the evicted key)."""
        batch = BatchEvaluator(fast_evaluator, cache_size=4)
        cached_points = random_points(3, seed=23)
        batch.evaluate_many(cached_points)  # genotypes now in the geno LRU
        fresh_points = random_points(6, seed=24)
        repaired = [
            CoDesignPoint(genotype=p.genotype, config=fresh_points[0].config)
            for p in cached_points
        ]
        results = batch.evaluate_many(repaired + fresh_points)
        assert len(results) == 9
        for point, result in zip(repaired, results[:3]):
            scalar = fast_evaluator.evaluate(point)
            assert result.accuracy == scalar.accuracy

    def test_genotype_inputs_match_scalar_oracle_in_order(self, fast_evaluator):
        """One batched call gives, per input genotype and in input order,
        the scalar HyperNet accuracy and the genotype feature prefix."""
        rng = np.random.default_rng(22)
        genotypes = [DnnSpace().sample(rng) for _ in range(6)]
        genotypes.append(genotypes[1])  # a duplicate keeps its slot
        inputs = fast_evaluator.genotype_inputs(genotypes)
        assert len(inputs) == len(genotypes)
        for genotype, (accuracy, prefix) in zip(genotypes, inputs):
            assert accuracy == fast_evaluator.hypernet.evaluate(
                genotype,
                fast_evaluator.val_images,
                fast_evaluator.val_labels,
                batch_size=fast_evaluator.eval_batch,
            )
            assert np.array_equal(
                prefix,
                genotype_features(
                    genotype,
                    num_cells=fast_evaluator.num_cells,
                    stem_channels=fast_evaluator.stem_channels,
                    image_size=fast_evaluator.image_size,
                    num_classes=fast_evaluator.num_classes,
                ),
            )


class TestBatchEvaluatorCache:
    def test_repeat_batch_hits(self, fast_evaluator):
        batch = BatchEvaluator(fast_evaluator)
        points = random_points(8, seed=8)
        first = batch.evaluate_many(points)
        assert batch.misses == 8 and batch.hits == 0
        second = batch.evaluate_many(points)
        assert batch.hits == 8
        assert all(a is b for a, b in zip(first, second))
        assert batch.hit_rate == pytest.approx(0.5)

    def test_duplicates_within_batch_counted_once(self, fast_evaluator):
        batch = BatchEvaluator(fast_evaluator)
        point = random_points(1, seed=9)[0]
        results = batch.evaluate_many([point, point, point])
        assert results[0] is results[1] is results[2]
        # One materialisation serves all three lookups: one miss, two hits.
        assert batch.misses == 1 and batch.hits == 2
        assert len(batch._lru) == 1

    def test_batch_larger_than_cache_still_returns_all(self, fast_evaluator):
        """A batch with more unique candidates than cache_size must not
        lose results to mid-batch eviction."""
        batch = BatchEvaluator(fast_evaluator, cache_size=2)
        points = random_points(5, seed=12)
        results = batch.evaluate_many(points)
        assert len(results) == 5
        for point, result in zip(points, results):
            scalar = fast_evaluator.evaluate(point)
            assert result.energy_mj == scalar.energy_mj
        assert len(batch._lru) == 2  # cache stayed bounded

    def test_off_grid_config_falls_back_gracefully(self, fast_evaluator):
        """A valid config off the Table 1 token grids must still evaluate
        (FastEvaluator handles it, so the drop-in batch path must too)."""
        from repro.accel.config import AcceleratorConfig

        batch = BatchEvaluator(fast_evaluator)
        rng = np.random.default_rng(13)
        point = CoDesignPoint(
            genotype=DnnSpace().sample(rng),
            config=AcceleratorConfig(10, 10, 300, 200, "OS"),
        )
        result = batch.evaluate(point)
        scalar = fast_evaluator.evaluate(point)
        assert result.energy_mj == scalar.energy_mj
        assert batch.evaluate(point) is result  # cached under the object key

    def test_lru_evicts_least_recent(self, fast_evaluator):
        batch = BatchEvaluator(fast_evaluator, cache_size=4)
        points = random_points(6, seed=10)
        batch.evaluate_many(points[:4])
        batch.evaluate_many(points[:1])  # refresh point 0
        batch.evaluate_many(points[4:])  # evicts points 1 and 2
        keys = list(batch._lru)
        assert tuple(encode(points[0])) in keys
        assert tuple(encode(points[1])) not in keys
        assert len(batch._lru) == 4

    def test_accuracy_shared_across_hw_variants(self, fast_evaluator):
        """Re-pairing a genotype with new hardware reuses its accuracy."""
        batch = BatchEvaluator(fast_evaluator)
        rng = np.random.default_rng(11)
        genotype = DnnSpace().sample(rng)
        variants = [
            CoDesignPoint(genotype=genotype, config=random_config(rng))
            for _ in range(5)
        ]
        results = batch.evaluate_many(variants)
        assert len({r.accuracy for r in results}) == 1
        assert len(batch._geno_lru) == 1

    def test_warm_genotypes_make_no_hypernet_call(self, fast_evaluator, monkeypatch):
        """New hardware for cached genotypes misses the result LRU only:
        no HyperNet call at all, not even an empty batched one."""
        batch = BatchEvaluator(fast_evaluator)
        points = random_points(3, seed=14)
        batch.evaluate_many(points)
        calls = []
        monkeypatch.setattr(
            HyperNet, "evaluate_many", lambda *a, **k: calls.append(1) or []
        )
        rng = np.random.default_rng(15)
        repaired = [CoDesignPoint(p.genotype, random_config(rng)) for p in points]
        batch.evaluate_many(repaired)
        assert batch.misses == 2 * len(points)
        assert calls == []

    def test_rejects_bad_cache_size(self, fast_evaluator):
        with pytest.raises(ValueError):
            BatchEvaluator(fast_evaluator, cache_size=0)


class TestBatchedSearchParity:
    def test_random_search_batch_invariant(self, fast_evaluator):
        """batch_size must not change the random-search trajectory."""
        shared = BatchEvaluator(fast_evaluator)
        scalar = RandomSearch(shared.evaluate, BALANCED, seed=3).run(10)
        batched = RandomSearch(
            shared.evaluate,
            BALANCED,
            seed=3,
            batch_size=4,
            evaluate_batch=shared.evaluate_many,
        ).run(10)
        assert [s.tokens for s in scalar.samples] == [
            s.tokens for s in batched.samples
        ]
        assert scalar.rewards().tolist() == batched.rewards().tolist()

    def test_reinforce_batch_eval_invariant(self, fast_evaluator):
        """Batched scoring must not change the RL trajectory or gradients."""
        from repro.search.controller import Controller

        shared = BatchEvaluator(fast_evaluator)
        plain = ReinforceSearch(
            Controller(seed=4), shared.evaluate, BALANCED, batch_episodes=2, seed=4
        ).run(8)
        batched = ReinforceSearch(
            Controller(seed=4),
            shared.evaluate,
            BALANCED,
            batch_episodes=2,
            seed=4,
            evaluate_batch=shared.evaluate_many,
        ).run(8)
        assert [s.tokens for s in plain.samples] == [s.tokens for s in batched.samples]
        assert plain.rewards().tolist() == batched.rewards().tolist()

    def test_reinforce_step_encodes_no_proposal(self, fast_evaluator, monkeypatch):
        """Proposals are keyed by the tokens they were decoded from: a
        REINFORCE step scores its episodes without re-encoding any."""
        from repro.nas import encoding
        from repro.search.controller import Controller

        calls = []
        encode_genotype = encoding.encode_genotype

        def counting(genotype):
            calls.append(genotype)
            return encode_genotype(genotype)

        monkeypatch.setattr(encoding, "encode_genotype", counting)
        shared = BatchEvaluator(fast_evaluator)
        search = ReinforceSearch(
            Controller(seed=6),
            shared.evaluate,
            BALANCED,
            batch_episodes=3,
            seed=6,
            evaluate_batch=shared.evaluate_many,
        )
        search.step()
        assert len(search.history) == 3
        assert calls == []

    def test_evolution_batch_runs_and_fills_population(self, fast_evaluator):
        """Scoring through ``evaluate_batch`` must not change the evolution
        trajectory at batch size 1 or above; the population stays full."""
        from repro.search.evolution import EvolutionSearch

        def run(batch_size: int, batched: bool) -> list:
            shared = BatchEvaluator(fast_evaluator)
            search = EvolutionSearch(
                shared.evaluate,
                BALANCED,
                population_size=6,
                tournament_size=2,
                seed=5,
                batch_size=batch_size,
                evaluate_batch=shared.evaluate_many if batched else None,
            )
            history = search.run(12)
            assert len(history) == 12
            assert len(search._population) == 6
            return [(s.tokens, s.reward) for s in history.samples]

        for batch_size in (1, 3):
            assert run(batch_size, batched=True) == run(batch_size, batched=False)

    def test_bayesopt_batch_runs(self, fast_evaluator):
        """Scoring through ``evaluate_batch`` must not change the BO
        trajectory at batch size 1 or above."""
        from repro.search.bayesopt import BayesianOptSearch

        def run(batch_size: int, batched: bool) -> list:
            shared = BatchEvaluator(fast_evaluator)
            history = BayesianOptSearch(
                shared.evaluate,
                BALANCED,
                n_initial=4,
                pool_size=8,
                seed=6,
                feature_kwargs=SMALL,
                batch_size=batch_size,
                evaluate_batch=shared.evaluate_many if batched else None,
            ).run(9)
            assert len(history) == 9
            return [(s.tokens, s.reward) for s in history.samples]

        for batch_size in (1, 3):
            assert run(batch_size, batched=True) == run(batch_size, batched=False)
