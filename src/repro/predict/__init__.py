"""Machine-learning performance predictors (Sec. III-E, Fig. 4).

Six regression families compared on simulator samples; the Gaussian process
(RBF kernel) wins on MSE and becomes YOSO's latency/energy predictor.
"""

from .base import Regressor, Standardizer
from .dataset import PerfDataset, collect_samples
from .features import (
    FEATURE_DIM,
    config_features,
    feature_names,
    feature_vector,
    genotype_features,
)
from .gp import GaussianProcessRegressor, rbf_kernel
from .knn import KNNRegressor
from .linear import LinearRegressor, PolynomialRidgeRegressor, RidgeRegressor
from .metrics import mae, mean_relative_error, mse, r2, rmse, spearman
from .tree import DecisionTreeRegressor, RandomForestRegressor

__all__ = [
    "Regressor",
    "Standardizer",
    "PerfDataset",
    "collect_samples",
    "feature_vector",
    "genotype_features",
    "config_features",
    "feature_names",
    "FEATURE_DIM",
    "GaussianProcessRegressor",
    "rbf_kernel",
    "KNNRegressor",
    "LinearRegressor",
    "RidgeRegressor",
    "PolynomialRidgeRegressor",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "mse",
    "rmse",
    "mae",
    "r2",
    "spearman",
    "mean_relative_error",
]


def all_regressors(seed: int = 0) -> list[Regressor]:
    """The six-model lineup of Fig. 4 (fresh instances)."""
    return [
        LinearRegressor(),
        RidgeRegressor(alpha=1.0),
        PolynomialRidgeRegressor(alpha=1.0),
        KNNRegressor(k=5),
        RandomForestRegressor(n_trees=20, seed=seed),
        GaussianProcessRegressor(seed=seed),
    ]
