"""Tests for the non-GP regressors of the Fig. 4 comparison."""

from __future__ import annotations

import numpy as np
import pytest

from repro.predict.knn import KNNRegressor
from repro.predict.linear import (
    LinearRegressor,
    PolynomialRidgeRegressor,
    RidgeRegressor,
)
from repro.predict.metrics import r2
from repro.predict.tree import DecisionTreeRegressor, RandomForestRegressor


def linear_data(n=80, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = 2.0 * x[:, 0] - 1.0 * x[:, 1] + 0.5 + noise * rng.normal(size=n)
    return x, y


def quadratic_data(n=150, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = x[:, 0] ** 2 + x[:, 0] * x[:, 1]
    return x, y


class TestLinear:
    def test_recovers_exact_linear_function(self):
        x, y = linear_data()
        pred = LinearRegressor().fit(x, y).predict(x)
        assert r2(y, pred) > 0.9999

    def test_extrapolates_linearly(self):
        x, y = linear_data()
        model = LinearRegressor().fit(x, y)
        far = np.array([[10.0, 0.0, 0.0]])
        assert model.predict(far)[0] == pytest.approx(20.5, rel=1e-3)

    def test_cannot_fit_quadratic(self):
        x, y = quadratic_data()
        pred = LinearRegressor().fit(x, y).predict(x)
        assert r2(y, pred) < 0.6


class TestRidge:
    def test_matches_ols_at_zero_alpha(self):
        x, y = linear_data(noise=0.1)
        ols = LinearRegressor().fit(x, y).predict(x)
        ridge = RidgeRegressor(alpha=1e-10).fit(x, y).predict(x)
        assert np.allclose(ols, ridge, atol=1e-5)

    def test_shrinks_with_large_alpha(self):
        x, y = linear_data()
        pred = RidgeRegressor(alpha=1e6).fit(x, y).predict(x)
        # Heavy shrinkage: prediction collapses toward the mean.
        assert np.std(pred) < 0.1 * np.std(y)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            RidgeRegressor(alpha=-1.0)


class TestPolynomialRidge:
    def test_fits_quadratic(self):
        x, y = quadratic_data()
        pred = PolynomialRidgeRegressor(alpha=1e-6).fit(x, y).predict(x)
        assert r2(y, pred) > 0.99

    def test_beats_plain_linear_on_quadratic(self):
        x, y = quadratic_data()
        lin = r2(y, LinearRegressor().fit(x, y).predict(x))
        poly = r2(y, PolynomialRidgeRegressor().fit(x, y).predict(x))
        assert poly > lin


class TestKNN:
    def test_exact_on_training_points_k1(self):
        x, y = linear_data(n=30)
        pred = KNNRegressor(k=1).fit(x, y).predict(x)
        assert np.allclose(pred, y, atol=1e-6)

    def test_interpolates_locally(self):
        x = np.linspace(0, 1, 50)[:, None]
        y = np.sin(2 * np.pi * x[:, 0])
        model = KNNRegressor(k=3).fit(x, y)
        test = np.array([[0.25]])
        assert model.predict(test)[0] == pytest.approx(1.0, abs=0.1)

    def test_k_larger_than_dataset_clamped(self):
        x, y = linear_data(n=4)
        pred = KNNRegressor(k=100).fit(x, y).predict(x)
        assert np.isfinite(pred).all()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KNNRegressor(k=0)


class TestDecisionTree:
    def test_fits_step_function(self):
        x = np.linspace(0, 1, 100)[:, None]
        y = (x[:, 0] > 0.5).astype(float)
        pred = DecisionTreeRegressor(max_depth=3).fit(x, y).predict(x)
        assert r2(y, pred) > 0.95

    def test_depth_limit_respected(self):
        x, y = quadratic_data()
        shallow = DecisionTreeRegressor(max_depth=1).fit(x, y)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(shallow._root) <= 1

    def test_constant_target_single_leaf(self):
        x = np.random.default_rng(0).normal(size=(20, 2))
        y = np.full(20, 3.0)
        tree = DecisionTreeRegressor().fit(x, y)
        assert tree._root.is_leaf
        assert np.allclose(tree.predict(x), 3.0)

    def test_deeper_fits_better(self):
        x, y = quadratic_data()
        shallow = r2(y, DecisionTreeRegressor(max_depth=2).fit(x, y).predict(x))
        deep = r2(y, DecisionTreeRegressor(max_depth=8).fit(x, y).predict(x))
        assert deep >= shallow

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)


class TestRandomForest:
    def test_fits_nonlinear(self):
        x, y = quadratic_data()
        pred = RandomForestRegressor(n_trees=15, seed=0).fit(x, y).predict(x)
        assert r2(y, pred) > 0.8

    def test_deterministic_given_seed(self):
        x, y = quadratic_data()
        a = RandomForestRegressor(n_trees=5, seed=3).fit(x, y).predict(x[:5])
        b = RandomForestRegressor(n_trees=5, seed=3).fit(x, y).predict(x[:5])
        assert np.array_equal(a, b)

    def test_ensemble_smoother_than_single_tree(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(100, 2))
        y = x[:, 0] + 0.5 * rng.normal(size=100)
        x_test = rng.normal(size=(50, 2))
        y_test = x_test[:, 0]
        tree = DecisionTreeRegressor(max_depth=10, min_leaf=1).fit(x, y)
        forest = RandomForestRegressor(n_trees=20, seed=0).fit(x, y)
        tree_mse = np.mean((tree.predict(x_test) - y_test) ** 2)
        forest_mse = np.mean((forest.predict(x_test) - y_test) ** 2)
        assert forest_mse < tree_mse

    def test_rejects_bad_n_trees(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_trees=0)
