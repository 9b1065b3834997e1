"""Cross-module property-based tests (hypothesis) on system invariants."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import random_config
from repro.accel.simulator import SystolicArraySimulator
from repro.accel.workload import network_workloads
from repro.nas.encoding import CoDesignPoint, decode, random_sequence
from repro.nas.genotype import Genotype
from repro.nas.hypernet import HyperNet
from repro.nas.space import DnnSpace
from repro.nn.data import SyntheticCifar
from repro.parallel import MicroBatchScheduler
from repro.predict.dataset import collect_samples
from repro.predict.features import FEATURE_DIM, feature_vector
from repro.scale import SMOKE
from repro.search.evaluator import BatchEvaluator, FastEvaluator
from repro.search.reward import RewardSpec

_SIM = SystolicArraySimulator()
_SPACE = DnnSpace()


def _point(seed: int) -> CoDesignPoint:
    rng = np.random.default_rng(seed)
    return CoDesignPoint(genotype=_SPACE.sample(rng), config=random_config(rng))


class TestSimulatorInvariants:
    @given(seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=15)
    def test_positive_finite_outputs(self, seed):
        point = _point(seed)
        report = _SIM.simulate_genotype(point.genotype, point.config,
                                        num_cells=3, stem_channels=4, image_size=8)
        assert np.isfinite(report.latency_ms) and report.latency_ms > 0
        assert np.isfinite(report.energy_mj) and report.energy_mj > 0

    @given(seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=10)
    def test_energy_at_least_mac_floor(self, seed):
        """Total energy can never drop below the bare MAC energy."""
        point = _point(seed)
        report = _SIM.simulate_genotype(point.genotype, point.config,
                                        num_cells=3, stem_channels=4, image_size=8)
        mac_floor_mj = report.total_macs * _SIM.energy_model.mac_pj * 1e-9
        assert report.energy_mj >= mac_floor_mj

    @given(seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=10)
    def test_latency_at_least_ideal_compute(self, seed):
        """Latency can never beat MACs / peak-throughput."""
        point = _point(seed)
        report = _SIM.simulate_genotype(point.genotype, point.config,
                                        num_cells=3, stem_channels=4, image_size=8)
        ideal_cycles = report.total_macs / point.config.num_pes
        assert report.latency_ms >= _SIM.energy_model.cycles_to_ms(ideal_cycles)


    @given(
        seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=8),
        cuts=st.lists(st.booleans(), min_size=7, max_size=7),
    )
    @settings(deadline=None, max_examples=15)
    def test_any_partition_equals_scalar_simulation(self, seeds, cuts):
        """For any point list (duplicates included) and any split of it
        into consecutive ``simulate_many`` calls, every point's totals are
        ``==`` the scalar ``simulate_genotype`` of that point."""
        shape = dict(num_cells=3, stem_channels=4, image_size=8)
        for part in _split(seeds, cuts):
            points = [_point(s) for s in part]
            batch = _SIM.simulate_many(
                [network_workloads(p.genotype, **shape) for p in points],
                [p.config for p in points],
            )
            for i, point in enumerate(points):
                report = _SIM.simulate_genotype(point.genotype, point.config, **shape)
                assert (
                    batch.latency_ms[i],
                    batch.energy_mj[i],
                    batch.total_macs[i],
                    batch.total_dram_bytes[i],
                ) == (
                    report.latency_ms,
                    report.energy_mj,
                    report.total_macs,
                    report.total_dram_bytes,
                )


class TestFeatureInvariants:
    @given(seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=20)
    def test_finite_fixed_length(self, seed):
        vec = feature_vector(_point(seed), num_cells=3, stem_channels=4,
                             image_size=8)
        assert vec.shape == (FEATURE_DIM,)
        assert np.isfinite(vec).all()

    @given(seed=st.integers(0, 10_000))
    @settings(deadline=None, max_examples=10)
    def test_encoding_feature_consistency(self, seed):
        """decode(encode(p)) must map to the identical feature vector."""
        from repro.nas.encoding import encode

        point = _point(seed)
        roundtrip = decode(encode(point))
        a = feature_vector(point, num_cells=3, stem_channels=4, image_size=8)
        b = feature_vector(roundtrip, num_cells=3, stem_channels=4, image_size=8)
        assert np.array_equal(a, b)


def _specs():
    return st.builds(
        RewardSpec,
        alpha1=st.floats(0.1, 1.0),
        omega1=st.floats(-1.0, -0.05),
        alpha2=st.floats(0.1, 1.0),
        omega2=st.floats(-1.0, -0.05),
        t_lat_ms=st.floats(0.5, 2.0),
        t_eer_mj=st.floats(4.0, 16.0),
    )


class TestRewardInvariants:
    @given(spec=_specs(), acc=st.floats(0.01, 1.0))
    @settings(deadline=None, max_examples=40)
    def test_monotone_in_each_metric(self, spec, acc):
        base = spec.reward(acc, 1.0, 8.0)
        assert spec.reward(acc, 0.5, 8.0) > base  # faster is better
        assert spec.reward(acc, 1.0, 4.0) > base  # greener is better
        # More accurate is better — asserted strictly only when the bump
        # is resolvable: for acc within one ulp of 1.0 the clamped +0.1
        # bump changes the reward product by less than machine epsilon.
        bumped = min(1.0, acc + 0.1)
        if bumped - acc > 1e-9:
            assert spec.reward(bumped, 1.0, 8.0) > base

    @given(spec=_specs())
    @settings(deadline=None, max_examples=20)
    def test_positive_for_positive_accuracy(self, spec):
        assert spec.reward(0.5, 1.0, 5.0) > 0

    @given(spec=_specs())
    @settings(deadline=None, max_examples=20)
    def test_zero_accuracy_zero_reward(self, spec):
        assert spec.reward(0.0, 1.0, 5.0) == 0.0


class TestSequenceInvariants:
    @given(seed=st.integers(0, 100_000))
    @settings(deadline=None, max_examples=30)
    def test_random_sequences_simulate(self, seed):
        """Every decodable sequence must be a simulatable machine."""
        rng = np.random.default_rng(seed)
        point = decode(random_sequence(rng))
        report = _SIM.simulate_genotype(point.genotype, point.config,
                                        num_cells=3, stem_channels=4, image_size=8)
        assert report.energy_mj > 0


# A seeded smoke-scale HyperNet (3 cells, 4 stem channels, 8x8 images),
# its batch, and the scalar-forward logits of every genotype it is asked
# about (the oracle, computed once per genotype).
_HYPERNET = HyperNet(
    num_cells=SMOKE.hypernet_cells,
    stem_channels=SMOKE.hypernet_channels,
    rng=np.random.default_rng(0),
)
_IMAGES = (
    np.random.default_rng(1)
    .normal(size=(16, 3, SMOKE.image_size, SMOKE.image_size))
    .astype(np.float32)
)
_ORACLE: dict[int, np.ndarray] = {}


def _genotype(seed: int) -> Genotype:
    return _SPACE.sample(np.random.default_rng(seed))


def _scalar_logits(seed: int) -> np.ndarray:
    if seed not in _ORACLE:
        _ORACLE[seed] = _HYPERNET.forward(_IMAGES, _genotype(seed))
    return _ORACLE[seed]


def _split(items: list, cuts: list[bool]) -> list[list]:
    """Consecutive parts of ``items``, cut before item i when cuts[i-1]."""
    parts, start = [], 0
    for i in range(1, len(items)):
        if cuts[i - 1]:
            parts.append(items[start:i])
            start = i
    parts.append(items[start:])
    return parts


class TestForwardManyInvariants:
    @given(
        seeds=st.lists(st.integers(0, 40), min_size=1, max_size=6),
        cuts=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    @settings(deadline=None, max_examples=12)
    def test_any_partition_equals_scalar_forward(self, seeds, cuts):
        """For any genotype list (duplicates included) and any split of it
        into consecutive ``forward_many`` calls, every path's logits are
        bitwise equal to the scalar ``forward`` of that genotype."""
        for part in _split(seeds, cuts):
            logits = _HYPERNET.forward_many(_IMAGES, [_genotype(s) for s in part])
            for seed, got in zip(part, logits):
                assert np.array_equal(got, _scalar_logits(seed))


# A smoke-scale FastEvaluator: the per-point oracle (scalar HyperNet test
# run, one-row GP predictions) for the batched evaluators below.
_EVAL_SHAPE = dict(num_cells=3, stem_channels=4, image_size=8)
_FAST = FastEvaluator.from_samples(
    HyperNet(num_classes=10, rng=np.random.default_rng(2), num_cells=3, stem_channels=4),
    SyntheticCifar(image_size=8, train_size=16, val_size=24, test_size=8, seed=3),
    collect_samples(30, seed=4, **_EVAL_SHAPE),
    eval_batch=24,
    **_EVAL_SHAPE,
)


class TestEvaluateManyInvariants:
    @given(
        seeds=st.lists(st.integers(0, 30), min_size=1, max_size=6),
        cuts=st.lists(st.booleans(), min_size=5, max_size=5),
        engine=st.sampled_from(["inline", "threads", "scheduler"]),
    )
    @settings(deadline=None, max_examples=20)
    def test_any_partition_equals_per_point_evaluation(self, seeds, cuts, engine):
        """For any point multiset and any split of it into parts, every
        result is ``==`` the per-point oracle ``_FAST.evaluate``, whether
        the parts are consecutive ``evaluate_many`` calls on a fresh
        evaluator (in process, or sharded over two threads) or requests
        gathered on one event loop that the scheduler coalesces into one
        batch."""
        parts = _split(seeds, cuts)
        workers = 2 if engine == "threads" else 1
        with BatchEvaluator(_FAST, workers=workers) as evaluator:
            if engine == "scheduler":
                scheduler = MicroBatchScheduler(evaluator)

                async def coalesce() -> list:
                    outputs = await asyncio.gather(
                        *(
                            scheduler.evaluate([_point(s) for s in part])
                            for part in parts
                        )
                    )
                    await scheduler.aclose()
                    return outputs

                outputs = asyncio.run(coalesce())
                assert scheduler.ticks == 1, "all parts coalesce into one batch"
            else:
                outputs = [
                    evaluator.evaluate_many([_point(s) for s in part])
                    for part in parts
                ]
        for part, results in zip(parts, outputs):
            for seed, got in zip(part, results):
                assert got == _FAST.evaluate(_point(seed))
