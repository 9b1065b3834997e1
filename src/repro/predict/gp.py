"""Gaussian-process regression with an RBF kernel (Sec. III-E, Eq. 7-8).

The paper's hardware performance predictor:

    y = f(lambda) + eps,   f ~ GP(mu, K),   eps ~ N(0, sigma_n^2)
    K(x, x') = sigma_f^2 * exp(-||x - x'||^2 / (2 * ell^2))

Hyper-parameters ``(ell, sigma_f, sigma_n)`` are fit by maximising the log
marginal likelihood with multi-start L-BFGS over log-parameters, driven by
its analytic gradient over one training distance matrix per fit.  Exact
inference via Cholesky factorisation; ``predict_with_std`` exposes the
posterior variance (useful for sampling-efficiency studies).
"""

from __future__ import annotations

import numpy as np
from scipy import optimize
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotri

from .base import Regressor

__all__ = ["GaussianProcessRegressor", "rbf_kernel"]


def rbf_kernel(
    xa: np.ndarray, xb: np.ndarray, length_scale: float, signal_var: float
) -> np.ndarray:
    """The RBF (squared-exponential) covariance of Eq. 8."""
    if length_scale <= 0 or signal_var <= 0:
        raise ValueError("kernel hyper-parameters must be positive")
    return signal_var * np.exp(-0.5 * sq_distances(xa, xb) / (length_scale**2))


def sq_distances(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at zero."""
    sq = (
        np.sum(xa * xa, axis=1)[:, None]
        + np.sum(xb * xb, axis=1)[None, :]
        - 2.0 * xa @ xb.T
    )
    np.maximum(sq, 0.0, out=sq)
    return sq


def _lml(chol: np.ndarray, alpha: np.ndarray, y: np.ndarray) -> float:
    """Log marginal likelihood of ``y`` from the lower Cholesky factor of K
    and ``alpha = K^-1 y``."""
    return float(
        -0.5 * y @ alpha - np.sum(np.log(np.diag(chol))) - 0.5 * len(y) * np.log(2 * np.pi)
    )


def neg_log_marginal_likelihood(
    log_params: np.ndarray, neg_half_sq: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """The fit objective and its gradient in ``log(ell, sigma_f^2, sigma_n^2)``.

    ``neg_half_sq`` holds ``-0.5 * ||x_i - x_j||^2`` over the training set,
    computed once per fit; the kernel built from it is bitwise the
    :func:`rbf_kernel` one.  The gradient is Rasmussen & Williams (2006),
    Eq. 5.9: ``dLML/dtheta = 1/2 tr((alpha alpha^T - K^-1) dK/dtheta)``
    with K^-1 from the Cholesky factor.  A non-positive-definite K scores
    ``1e12`` with a zero gradient.
    """
    ell, sf, sn = np.exp(log_params)
    scaled = neg_half_sq / ell**2
    kf = sf * np.exp(scaled)
    k = kf.copy()
    k[np.diag_indices_from(k)] += sn + 1e-10
    chol, info = dpotrf(k, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        return 1e12, np.zeros(3)
    alpha = cho_solve((chol, True), y, check_finite=False)
    lml = _lml(chol, alpha, y)
    k_inv, info = dpotri(chol, lower=1)
    if info != 0 or not np.isfinite(lml):
        return 1e12, np.zeros(3)
    # potri fills the lower triangle only; mirror it into the upper one.
    k_inv = np.tril(k_inv)
    k_inv += np.tril(k_inv, -1).T
    inner = np.outer(alpha, alpha) - k_inv
    weighted = inner * kf
    # dK/dlog(ell) = kf * ||xi-xj||^2 / ell^2, dK/dlog(sf) = kf, and
    # dK/dlog(sn) = sn * I (the 1e-10 jitter is not a hyperparameter).
    grad = np.array(
        [
            -np.sum(weighted * scaled),
            0.5 * np.sum(weighted),
            0.5 * sn * np.trace(inner),
        ]
    )
    return -lml, -grad


#: Query rows per block in :meth:`GaussianProcessRegressor._cross_kernel`.
_POSTERIOR_BLOCK_ROWS = 8


class GaussianProcessRegressor(Regressor):
    """Exact GP regressor; the model the paper selects for both predictors."""

    name = "gaussian_process"

    def __init__(
        self,
        length_scale: float = 3.0,
        signal_var: float = 1.0,
        noise_var: float = 0.01,
        optimise: bool = True,
        n_restarts: int = 2,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.length_scale = length_scale
        self.signal_var = signal_var
        self.noise_var = noise_var
        self.optimise = optimise
        self.n_restarts = n_restarts
        self.seed = seed
        self._x_train: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self.log_marginal_likelihood_: float = -np.inf

    # ------------------------------------------------------------------
    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        self._x_train = x
        # The training distances are fixed for the whole fit: every
        # likelihood evaluation and the final factorisation share them.
        neg_half_sq = -0.5 * sq_distances(x, x)
        if self.optimise:
            self._optimise_hyperparameters(neg_half_sq, y)
        k = self.signal_var * np.exp(neg_half_sq / self.length_scale**2)
        k[np.diag_indices_from(k)] += self.noise_var + 1e-10
        c, lower = cho_factor(k, lower=True)
        self._chol = c
        self._alpha = cho_solve((c, lower), y)
        self.log_marginal_likelihood_ = _lml(c, self._alpha, y)

    def _predict(self, x: np.ndarray) -> np.ndarray:
        mean, _ = self._posterior(x, with_std=False)
        return mean

    def predict_with_std(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation in original target units."""
        if not self._fitted:
            raise RuntimeError("GP used before fit")
        xs = self._x_scaler.transform(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        mean, std = self._posterior(xs, with_std=True)
        return mean * self._y_scale + self._y_mean, std * self._y_scale

    # ------------------------------------------------------------------
    def _cross_kernel(self, x: np.ndarray) -> np.ndarray:
        """k(x_i, X_train) for each row, computed row by row.

        Elementwise differences and last-axis reductions make every row a
        function of that row alone, so a prediction never depends on the
        rows it is batched with (a matrix product's blocking varies with
        the matrix height).  Blocks of ``_POSTERIOR_BLOCK_ROWS`` rows
        bound the (rows, n_train, d) difference tensor.
        """
        assert self._x_train is not None
        ks = np.empty((len(x), len(self._x_train)))
        for lo in range(0, len(x), _POSTERIOR_BLOCK_ROWS):
            rows = slice(lo, lo + _POSTERIOR_BLOCK_ROWS)
            diff = x[rows, None, :] - self._x_train
            sq = np.sum(diff * diff, axis=-1)
            ks[rows] = self.signal_var * np.exp(-0.5 * sq / self.length_scale**2)
        return ks

    def _posterior(self, x: np.ndarray, with_std: bool) -> tuple[np.ndarray, np.ndarray]:
        assert self._alpha is not None
        ks = self._cross_kernel(x)
        mean = np.sum(ks * self._alpha, axis=-1)
        if not with_std:
            return mean, np.zeros(0)
        assert self._chol is not None
        v = cho_solve((self._chol, True), ks.T)
        prior = self.signal_var
        var = prior - np.sum(ks * v.T, axis=1)
        np.maximum(var, 1e-12, out=var)
        return mean, np.sqrt(var)

    def _optimise_hyperparameters(self, neg_half_sq: np.ndarray, y: np.ndarray) -> None:
        """Multi-start L-BFGS over log(ell, sigma_f^2, sigma_n^2).

        ``neg_half_sq`` is ``-0.5 * ||x_i - x_j||^2`` over the training set.
        """
        rng = np.random.default_rng(self.seed)
        starts = [np.log([self.length_scale, self.signal_var, self.noise_var])]
        for _ in range(self.n_restarts):
            starts.append(
                np.log(
                    [
                        float(np.exp(rng.uniform(np.log(0.5), np.log(20.0)))),
                        float(np.exp(rng.uniform(np.log(0.1), np.log(5.0)))),
                        float(np.exp(rng.uniform(np.log(1e-4), np.log(0.5)))),
                    ]
                )
            )
        best_val, best_params = np.inf, starts[0]
        for start in starts:
            result = optimize.minimize(
                neg_log_marginal_likelihood,
                start,
                args=(neg_half_sq, y),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": 50},
            )
            if result.fun < best_val:
                best_val, best_params = float(result.fun), result.x
        self.length_scale, self.signal_var, self.noise_var = (
            float(v) for v in np.exp(best_params)
        )
