"""Tests for regression metrics, feature extraction and sample collection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import AcceleratorConfig
from repro.nas.encoding import CoDesignPoint
from repro.predict.dataset import collect_samples
from repro.predict.features import FEATURE_DIM, feature_names, feature_vector
from repro.predict.metrics import mae, mean_relative_error, mse, r2, rmse, spearman


class TestMetrics:
    def test_mse_hand_computed(self):
        assert mse([1.0, 2.0], [1.0, 4.0]) == pytest.approx(2.0)

    def test_rmse_is_sqrt_mse(self):
        y, p = [0.0, 0.0], [3.0, 4.0]
        assert rmse(y, p) == pytest.approx(np.sqrt(mse(y, p)))

    def test_mae(self):
        assert mae([1.0, -1.0], [2.0, 1.0]) == pytest.approx(1.5)

    def test_r2_perfect_and_mean(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2(y, y) == pytest.approx(1.0)
        assert r2(y, np.full(3, y.mean())) == pytest.approx(0.0)

    def test_r2_negative_for_bad_model(self):
        assert r2([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) < 0

    def test_spearman_monotone_invariance(self):
        y = np.array([1.0, 5.0, 3.0, 2.0])
        assert spearman(y, np.exp(y)) == pytest.approx(1.0)

    def test_spearman_anticorrelation(self):
        y = np.array([1.0, 2.0, 3.0])
        assert spearman(y, -y) == pytest.approx(-1.0)

    def test_spearman_constant_input(self):
        assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_mean_relative_error(self):
        assert mean_relative_error([10.0, 100.0], [11.0, 90.0]) == pytest.approx(0.1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse([], [])

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=30))
    @settings(deadline=None, max_examples=30)
    def test_mse_nonnegative_and_zero_iff_equal(self, ys):
        y = np.asarray(ys)
        assert mse(y, y) == 0.0
        shifted = y + 1.0
        assert mse(y, shifted) == pytest.approx(1.0)


class TestFeatures:
    def test_dimension_matches_names(self, genotype, hw_config):
        point = CoDesignPoint(genotype=genotype, config=hw_config)
        vec = feature_vector(point)
        assert vec.shape == (FEATURE_DIM,)
        assert len(feature_names()) == FEATURE_DIM

    def test_dataflow_one_hot(self, genotype):
        names = feature_names()
        for flow in ("WS", "OS", "RS", "NLR"):
            cfg = AcceleratorConfig(16, 16, 256, 256, flow)
            vec = feature_vector(CoDesignPoint(genotype=genotype, config=cfg))
            onehot = {
                n.split(".")[1]: vec[i]
                for i, n in enumerate(names)
                if n.startswith("dataflow.")
            }
            assert onehot[flow] == 1.0
            assert sum(onehot.values()) == 1.0

    def test_op_counts_encoded(self, genotype, hw_config):
        vec = feature_vector(CoDesignPoint(genotype=genotype, config=hw_config))
        names = feature_names()
        counts = genotype.normal.op_counts()
        for i, n in enumerate(names):
            op = n.split(".", 1)[1] if n.startswith("normal.") else None
            if op in counts:
                assert vec[i] == counts[op]

    def test_hw_features_respond_to_config(self, genotype):
        small = AcceleratorConfig(8, 8, 108, 64, "WS")
        big = AcceleratorConfig(16, 32, 1024, 1024, "WS")
        v_small = feature_vector(CoDesignPoint(genotype=genotype, config=small))
        v_big = feature_vector(CoDesignPoint(genotype=genotype, config=big))
        assert not np.array_equal(v_small, v_big)

    def test_deterministic(self, genotype, hw_config):
        point = CoDesignPoint(genotype=genotype, config=hw_config)
        assert np.array_equal(feature_vector(point), feature_vector(point))


class TestCollectSamples:
    def test_shapes_and_positivity(self):
        ds = collect_samples(12, seed=0, image_size=8, stem_channels=4, num_cells=3)
        assert ds.x.shape == (12, FEATURE_DIM)
        assert len(ds) == 12
        assert np.all(ds.latency_ms > 0)
        assert np.all(ds.energy_mj > 0)

    def test_deterministic_given_seed(self):
        a = collect_samples(6, seed=3, image_size=8, stem_channels=4, num_cells=3)
        b = collect_samples(6, seed=3, image_size=8, stem_channels=4, num_cells=3)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.energy_mj, b.energy_mj)

    def test_split(self):
        ds = collect_samples(10, seed=1, image_size=8, stem_channels=4, num_cells=3)
        train, test = ds.split(7)
        assert len(train) == 7 and len(test) == 3
        assert np.array_equal(np.concatenate([train.x, test.x]), ds.x)

    def test_split_bounds(self):
        ds = collect_samples(4, seed=2, image_size=8, stem_channels=4, num_cells=3)
        with pytest.raises(ValueError):
            ds.split(0)
        with pytest.raises(ValueError):
            ds.split(4)

    def test_samples_are_diverse(self):
        ds = collect_samples(20, seed=4, image_size=8, stem_channels=4, num_cells=3)
        assert np.std(ds.energy_mj) > 0
        assert np.std(ds.latency_ms) > 0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            collect_samples(0)
