"""Threshold-sensitivity study (an extension of Sec. IV-A).

The paper fixes one operating point — t_eer = 9 mJ, t_lat = 1.2 ms — and
notes that *"the coefficients in Eq. 2 can be adjusted to guide the search
toward different optimal regions, as preferred by different users and
scenarios."*  The thresholds are the other user knob: with negative
exponents, a tighter threshold steepens the penalty around it and drags the
optimum toward cheaper designs.

:func:`run_threshold_sweep` quantifies this *without* re-running searches:
it scores a fixed candidate pool (simulator ground truth) under a grid of
threshold settings and reports which co-design wins at each, plus summary
monotonicity statistics.  The harness doubles as a user tool for picking
thresholds before launching an expensive search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..accel.config import random_config
from ..nas.encoding import CoDesignPoint
from ..nas.space import DnnSpace
from ..search.reward import RewardSpec
from .common import ExperimentContext, get_context

__all__ = ["ThresholdCell", "ThresholdSweep", "run_threshold_sweep"]


@dataclass(frozen=True)
class ThresholdCell:
    """The winner at one (t_lat, t_eer) grid point."""

    t_lat_ms: float
    t_eer_mj: float
    winner_index: int
    winner_latency_ms: float
    winner_energy_mj: float
    winner_accuracy: float
    winner_reward: float


@dataclass
class ThresholdSweep:
    """Grid of winners plus the candidate pool statistics."""

    cells: list[ThresholdCell]
    pool_size: int
    base_spec: RewardSpec

    def winners(self) -> set[int]:
        return {c.winner_index for c in self.cells}

    def energy_under_tight_vs_loose_eer(self) -> tuple[float, float]:
        """Mean winner energy at the tightest vs loosest energy threshold."""
        eers = sorted({c.t_eer_mj for c in self.cells})
        tight = [c.winner_energy_mj for c in self.cells if c.t_eer_mj == eers[0]]
        loose = [c.winner_energy_mj for c in self.cells if c.t_eer_mj == eers[-1]]
        return float(np.mean(tight)), float(np.mean(loose))

    def latency_under_tight_vs_loose_lat(self) -> tuple[float, float]:
        """Mean winner latency at the tightest vs loosest latency threshold."""
        lats = sorted({c.t_lat_ms for c in self.cells})
        tight = [c.winner_latency_ms for c in self.cells if c.t_lat_ms == lats[0]]
        loose = [c.winner_latency_ms for c in self.cells if c.t_lat_ms == lats[-1]]
        return float(np.mean(tight)), float(np.mean(loose))


def run_threshold_sweep(
    scale_name: str = "demo",
    seed: int = 0,
    context: ExperimentContext | None = None,
    pool_size: int = 64,
    factors: tuple[float, ...] = (0.6, 1.0, 1.6),
    accuracy_model: str = "hypernet",
) -> ThresholdSweep:
    """Score a random candidate pool under a grid of threshold settings.

    ``factors`` scale the context's calibrated thresholds in both
    dimensions (a 3x3 grid by default).  ``accuracy_model`` is
    ``"hypernet"`` (inherited-weight evaluation; slower) or ``"uniform"``
    (all candidates share accuracy 1 — isolates the hardware side).
    """
    if pool_size < 2:
        raise ValueError("pool_size must be >= 2")
    if accuracy_model not in ("hypernet", "uniform"):
        raise ValueError("accuracy_model must be 'hypernet' or 'uniform'")
    context = context or get_context(scale_name, seed)
    scale = context.scale
    rng = np.random.default_rng(seed + 77)
    space = DnnSpace()
    points = [
        CoDesignPoint(
            genotype=space.sample(rng, name=f"sweep{i}"), config=random_config(rng)
        )
        for i in range(pool_size)
    ]
    sims = context.simulator.simulate_genotypes(
        [(point.genotype, point.config) for point in points],
        num_cells=scale.hypernet_cells,
        stem_channels=scale.hypernet_channels,
        image_size=scale.image_size,
        num_classes=context.dataset.num_classes,
    )
    if accuracy_model == "hypernet":
        fast = context.fast_evaluator
        accuracies = context.hypernet.evaluate_many(
            [point.genotype for point in points],
            fast.val_images,
            fast.val_labels,
            batch_size=fast.eval_batch,
        )
    else:
        accuracies = [1.0] * pool_size
    # (accuracy, latency, energy) per candidate.
    pool = [
        (accuracy, float(latency), float(energy))
        for accuracy, latency, energy in zip(accuracies, sims.latency_ms, sims.energy_mj)
    ]

    base = RewardSpec(
        0.5, -0.4, 0.5, -0.4,
        t_lat_ms=context.t_lat_ms, t_eer_mj=context.t_eer_mj, name="sweep",
    )
    cells: list[ThresholdCell] = []
    for f_lat in factors:
        for f_eer in factors:
            spec = base.scaled(context.t_lat_ms * f_lat, context.t_eer_mj * f_eer)
            # Hard screening first (Sec. IV-A: failing designs are screened
            # out); the composite reward ranks the survivors.  If nothing
            # survives, fall back to the full pool.
            feasible = [
                i for i, (_, lat, eer) in enumerate(pool)
                if spec.meets_thresholds(lat, eer)
            ]
            indices = feasible if feasible else list(range(len(pool)))
            rewards = {
                i: (spec.reward(pool[i][0], pool[i][1], pool[i][2])
                    if pool[i][0] > 0 else 0.0)
                for i in indices
            }
            idx = max(rewards, key=rewards.get)
            acc, lat, eer = pool[idx]
            cells.append(
                ThresholdCell(
                    t_lat_ms=spec.t_lat_ms,
                    t_eer_mj=spec.t_eer_mj,
                    winner_index=idx,
                    winner_latency_ms=lat,
                    winner_energy_mj=eer,
                    winner_accuracy=acc,
                    winner_reward=rewards[idx],
                )
            )
    return ThresholdSweep(cells=cells, pool_size=pool_size, base_spec=base)
