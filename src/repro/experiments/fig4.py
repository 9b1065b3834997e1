"""Fig. 4 — comparison of regression models for hardware performance
prediction, plus the speed-vs-simulation study of Sec. III-E.

The paper collects 3600 simulator samples (3000 train / 600 test), fits six
regression families and reports MSE per model; the Gaussian process wins
and achieves "nearly 2000x speed improvement with less than 4% accuracy
loss" over the simulator.  :func:`run_fig4` reproduces the whole study on
both targets (energy and latency).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..accel.simulator import SystolicArraySimulator
from ..accel.workload import network_workloads
from ..predict import all_regressors
from ..predict.dataset import collect_samples
from ..predict.metrics import mean_relative_error, mse, r2, spearman
from ..scale import get_scale
from .common import format_table

__all__ = ["PredictorRow", "Fig4Result", "run_fig4"]


@dataclass(frozen=True)
class PredictorRow:
    """One bar of Fig. 4 (per target metric)."""

    model: str
    target: str  # "energy" or "latency"
    mse: float
    r2: float
    spearman: float
    relative_error: float
    fit_seconds: float
    predict_seconds_per_sample: float
    speedup_vs_simulator: float


@dataclass
class Fig4Result:
    """All rows plus the sampling statistics."""

    rows: list[PredictorRow]
    n_train: int
    n_test: int
    sim_seconds_per_sample: float

    def best(self, target: str) -> PredictorRow:
        """Lowest-MSE model for a target (the paper's selection criterion)."""
        candidates = [r for r in self.rows if r.target == target]
        if not candidates:
            raise ValueError(f"no rows for target {target!r}")
        return min(candidates, key=lambda r: r.mse)

    def to_text(self) -> str:
        headers = ["model", "target", "MSE", "R^2", "rho", "rel.err", "speedup"]
        rows = [
            [
                r.model,
                r.target,
                f"{r.mse:.3e}",
                f"{r.r2:.3f}",
                f"{r.spearman:.3f}",
                f"{100 * r.relative_error:.1f}%",
                f"{r.speedup_vs_simulator:.0f}x",
            ]
            for r in self.rows
        ]
        return format_table(headers, rows)


def run_fig4(scale_name: str = "demo", seed: int = 0) -> Fig4Result:
    """Regenerate Fig. 4: train/test every regressor on simulator samples."""
    scale = get_scale(scale_name)
    geometry = dict(
        num_cells=scale.hypernet_cells,
        stem_channels=scale.hypernet_channels,
        image_size=scale.image_size,
    )
    simulator = SystolicArraySimulator()
    samples = collect_samples(
        scale.predictor_samples, seed=seed, simulator=simulator, **geometry
    )
    # The Fig. 4 speedup's denominator: the scalar simulator call a
    # predictor replaces in a search loop, timed on a few samples (layer
    # expansion outside the clock).
    probe = [
        (network_workloads(point.genotype, **geometry), point.config)
        for point in samples.points[:8]
    ]
    t0 = time.perf_counter()
    for layers, config in probe:
        simulator.simulate_network(layers, config)
    sim_seconds = (time.perf_counter() - t0) / len(probe)
    train, test = samples.split(scale.predictor_train)
    rows: list[PredictorRow] = []
    for target, y_train, y_test in (
        ("energy", train.energy_mj, test.energy_mj),
        ("latency", train.latency_ms, test.latency_ms),
    ):
        for regressor in all_regressors(seed=seed):
            t0 = time.perf_counter()
            regressor.fit(train.x, y_train)
            fit_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            pred = regressor.predict(test.x)
            predict_s = (time.perf_counter() - t0) / len(test)
            rows.append(
                PredictorRow(
                    model=regressor.name,
                    target=target,
                    mse=mse(y_test, pred),
                    r2=r2(y_test, pred),
                    spearman=spearman(y_test, pred),
                    relative_error=mean_relative_error(y_test, pred),
                    fit_seconds=fit_s,
                    predict_seconds_per_sample=predict_s,
                    speedup_vs_simulator=sim_seconds / max(predict_s, 1e-12),
                )
            )
    return Fig4Result(
        rows=rows,
        n_train=len(train),
        n_test=len(test),
        sim_seconds_per_sample=sim_seconds,
    )
