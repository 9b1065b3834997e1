"""Regression quality metrics used across the experiments."""

from __future__ import annotations

import numpy as np

__all__ = ["mse", "rmse", "mae", "r2", "spearman", "mean_relative_error"]


def _pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(y_true, dtype=np.float64).ravel()
    b = np.asarray(y_pred, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("empty inputs")
    return a, b


def mse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean squared error (the metric of Fig. 4)."""
    a, b = _pair(y_true, y_pred)
    return float(np.mean((a - b) ** 2))


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.sqrt(mse(y_true, y_pred)))


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    a, b = _pair(y_true, y_pred)
    return float(np.mean(np.abs(a - b)))


def r2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination."""
    a, b = _pair(y_true, y_pred)
    ss_res = float(np.sum((a - b) ** 2))
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot < 1e-300:
        return 1.0 if ss_res < 1e-300 else 0.0
    return 1.0 - ss_res / ss_tot


def spearman(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Spearman rank correlation (used for the Fig. 5(b) ranking claim)."""
    a, b = _pair(y_true, y_pred)
    if np.ptp(a) < 1e-300 or np.ptp(b) < 1e-300:
        return 0.0
    from scipy import stats  # heavy; loaded on first use, not by `import repro`

    rho = stats.spearmanr(a, b).statistic
    return float(rho) if np.isfinite(rho) else 0.0


def mean_relative_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean |pred - true| / |true| — the paper's "<4% accuracy loss" metric."""
    a, b = _pair(y_true, y_pred)
    denom = np.maximum(np.abs(a), 1e-12)
    return float(np.mean(np.abs(a - b) / denom))
