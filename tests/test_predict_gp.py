"""Tests for the Gaussian-process regressor (Eq. 7-8)."""

from __future__ import annotations

import numpy as np
import pytest

from scipy.linalg import cho_solve, cholesky

from repro.predict.gp import (
    GaussianProcessRegressor,
    _lml,
    neg_log_marginal_likelihood,
    rbf_kernel,
    sq_distances,
)
from repro.predict.metrics import r2


def make_data(n=60, d=4, seed=0, noise=0.01):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] ** 2 + x[:, 2] + noise * rng.normal(size=n)
    return x, y


class TestRbfKernel:
    def test_diagonal_is_signal_variance(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        k = rbf_kernel(x, x, length_scale=2.0, signal_var=1.7)
        assert np.allclose(np.diag(k), 1.7)

    def test_symmetry(self):
        x = np.random.default_rng(1).normal(size=(6, 2))
        k = rbf_kernel(x, x, 1.0, 1.0)
        assert np.allclose(k, k.T)

    def test_decays_with_distance(self):
        a = np.array([[0.0]])
        near = np.array([[0.1]])
        far = np.array([[5.0]])
        assert rbf_kernel(a, near, 1.0, 1.0)[0, 0] > rbf_kernel(a, far, 1.0, 1.0)[0, 0]

    def test_positive_semidefinite(self):
        x = np.random.default_rng(2).normal(size=(20, 3))
        k = rbf_kernel(x, x, 1.5, 1.0)
        eigvals = np.linalg.eigvalsh(k)
        assert eigvals.min() > -1e-8

    def test_rejects_bad_hyperparameters(self):
        x = np.ones((2, 2))
        with pytest.raises(ValueError):
            rbf_kernel(x, x, 0.0, 1.0)
        with pytest.raises(ValueError):
            rbf_kernel(x, x, 1.0, -1.0)


class TestGaussianProcess:
    def test_near_interpolation_on_training_points(self):
        x, y = make_data(noise=0.0)
        gp = GaussianProcessRegressor(optimise=False, noise_var=1e-6)
        gp.fit(x, y)
        pred = gp.predict(x)
        assert r2(y, pred) > 0.999

    def test_generalises_on_smooth_function(self):
        x, y = make_data(n=120, seed=3)
        xt, yt = make_data(n=40, seed=4)
        gp = GaussianProcessRegressor(seed=0)
        gp.fit(x, y)
        assert r2(yt, gp.predict(xt)) > 0.9

    def test_posterior_std_nonnegative_and_grows_offdata(self):
        x, y = make_data(n=40, seed=5)
        gp = GaussianProcessRegressor(optimise=False, length_scale=1.0)
        gp.fit(x, y)
        _, std_on = gp.predict_with_std(x)
        far = x + 100.0
        _, std_off = gp.predict_with_std(far)
        assert np.all(std_on >= 0)
        assert std_off.mean() > std_on.mean()

    def test_far_prediction_reverts_to_mean(self):
        x, y = make_data(n=40, seed=6)
        gp = GaussianProcessRegressor(optimise=False, length_scale=1.0)
        gp.fit(x, y)
        pred = gp.predict(x + 1000.0)
        assert np.allclose(pred, y.mean(), atol=0.2)

    def test_hyperparameter_optimisation_improves_lml(self):
        x, y = make_data(n=60, seed=7)
        fixed = GaussianProcessRegressor(optimise=False, length_scale=20.0,
                                         noise_var=0.5)
        fixed.fit(x, y)
        tuned = GaussianProcessRegressor(optimise=True, length_scale=20.0,
                                         noise_var=0.5, seed=0)
        tuned.fit(x, y)
        assert tuned.log_marginal_likelihood_ >= fixed.log_marginal_likelihood_ - 1e-6

    def test_optimised_hyperparameters_positive(self):
        x, y = make_data(n=50, seed=8)
        gp = GaussianProcessRegressor(seed=1)
        gp.fit(x, y)
        assert gp.length_scale > 0
        assert gp.signal_var > 0
        assert gp.noise_var > 0

    def test_predict_with_std_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().predict_with_std(np.ones((2, 2)))

    def test_deterministic_given_seed(self):
        x, y = make_data(n=40, seed=9)
        a = GaussianProcessRegressor(seed=5).fit(x, y).predict(x[:5])
        b = GaussianProcessRegressor(seed=5).fit(x, y).predict(x[:5])
        assert np.array_equal(a, b)

    def test_noisy_targets_not_overfit(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(80, 2))
        y_clean = x[:, 0]
        y = y_clean + 0.5 * rng.normal(size=80)
        gp = GaussianProcessRegressor(seed=0)
        gp.fit(x, y)
        # The GP should recover the clean signal better than the noisy one
        # reproduces itself (i.e. it smooths).
        pred = gp.predict(x)
        assert np.mean((pred - y_clean) ** 2) < np.mean((y - y_clean) ** 2)


# log(ell, sigma_f^2, sigma_n^2) points spanning the optimiser's start box.
THETAS = [
    np.log([3.0, 1.0, 0.01]),
    np.log([0.7, 0.2, 1e-4]),
    np.log([15.0, 4.0, 0.4]),
    np.log([8.4, 2.4, 9.6e-3]),
]


class TestLikelihoodObjective:
    """The fit objective works on distances computed once per fit."""

    @pytest.mark.parametrize("theta", THETAS)
    def test_cached_distances_equal_rbf_kernel_route_bitwise(self, theta):
        x, y = make_data(n=50, seed=11)
        ell, sf, sn = np.exp(theta)
        k = rbf_kernel(x, x, ell, sf)
        k[np.diag_indices_from(k)] += sn + 1e-10
        chol = cholesky(k, lower=True)
        reference = -_lml(chol, cho_solve((chol, True), y), y)
        value, _ = neg_log_marginal_likelihood(theta, -0.5 * sq_distances(x, x), y)
        assert value == reference

    @pytest.mark.parametrize("theta", THETAS)
    def test_gradient_matches_directional_finite_differences(self, theta):
        """Analytic gradient vs float64 central differences along random
        directions (the ``compare_grad_with_fd`` idiom: bound the maximum
        and the median relative deviation)."""
        x, y = make_data(n=50, seed=12)
        neg_half_sq = -0.5 * sq_distances(x, x)
        _, grad = neg_log_marginal_likelihood(theta, neg_half_sq, y)
        rng = np.random.default_rng(13)
        eps = 1e-5
        deviations = []
        for _ in range(8):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            plus, _ = neg_log_marginal_likelihood(theta + eps * direction, neg_half_sq, y)
            minus, _ = neg_log_marginal_likelihood(theta - eps * direction, neg_half_sq, y)
            fd = (plus - minus) / (2 * eps)
            analytic = float(grad @ direction)
            deviations.append(abs(analytic - fd) / max(abs(fd), 1e-3))
        assert max(deviations) < 1e-5
        assert float(np.median(deviations)) < 1e-6

    def test_gradient_is_zero_at_the_fitted_optimum(self):
        """L-BFGS-B stops where the analytic gradient (nearly) vanishes."""
        x, y = make_data(n=60, seed=7)
        gp = GaussianProcessRegressor(seed=0).fit(x, y)
        theta = np.log([gp.length_scale, gp.signal_var, gp.noise_var])
        xs = gp._x_scaler.transform(x)
        ys = (y - gp._y_mean) / gp._y_scale
        value, grad = neg_log_marginal_likelihood(theta, -0.5 * sq_distances(xs, xs), ys)
        assert value == pytest.approx(-gp.log_marginal_likelihood_, rel=1e-12)
        assert np.max(np.abs(grad)) < 1e-3

    def test_non_positive_definite_kernel_is_guarded(self):
        x = np.ones((4, 2))  # identical rows: K is rank one once the jitter rounds away
        y = np.arange(4.0)
        theta = np.log([1.0, 1e20, 1e-300])
        value, grad = neg_log_marginal_likelihood(theta, -0.5 * sq_distances(x, x), y)
        assert value == 1e12
        assert not grad.any()
