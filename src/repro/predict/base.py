"""Shared regressor interface and input/target standardisation."""

from __future__ import annotations

import numpy as np

__all__ = ["Regressor", "Standardizer"]


class Standardizer:
    """Per-feature affine normalisation fit on the training set."""

    def __init__(self) -> None:
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "Standardizer":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self.mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std < 1e-12] = 1.0  # constant features pass through unchanged
        self.std = std
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean is None or self.std is None:
            raise RuntimeError("Standardizer used before fit")
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)


class Regressor:
    """Common interface: ``fit(X, y)`` then ``predict(X) -> y_hat``.

    Subclasses implement ``_fit`` / ``_predict`` on standardised inputs and
    zero-mean targets; this base class handles the scaling bookkeeping so
    every model sees comparably conditioned data (important for GP/kNN).
    """

    #: Human-readable name used in the Fig. 4 comparison table.
    name: str = "base"

    def __init__(self) -> None:
        self._x_scaler = Standardizer()
        self._y_mean = 0.0
        self._y_scale = 1.0
        self._fitted = False

    # -- public API ------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "Regressor":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if len(x) != len(y):
            raise ValueError(f"X has {len(x)} rows but y has {len(y)}")
        if len(y) < 2:
            raise ValueError("need at least two training samples")
        xs = self._x_scaler.fit_transform(x)
        self._y_mean = float(y.mean())
        self._y_scale = float(y.std()) or 1.0
        ys = (y - self._y_mean) / self._y_scale
        self._fit(xs, ys)
        self._fitted = True
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError(f"{self.name} regressor used before fit")
        xs = self._x_scaler.transform(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        return self._predict(xs) * self._y_scale + self._y_mean

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """Predict a whole (n, d) batch in one call.

        This is the uniform batch entry point the evaluators use: every
        regressor accepts a matrix.
        """
        return self.predict(x)

    # -- subclass hooks ----------------------------------------------------
    def _fit(self, x: np.ndarray, y: np.ndarray) -> None:
        raise NotImplementedError

    def _predict(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError
