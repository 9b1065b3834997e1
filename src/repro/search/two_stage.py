"""The two-stage baseline flow (Sec. IV-D).

Stage 1 picks a high-accuracy network; Stage 2 enumerates *all* accelerator
configurations for that fixed network and keeps the best one under the
user's optimisation objective — exactly the paper's protocol: *"all the
possible accelerator configurations are enumerated to select the best
configuration for each network."*

Two stage-1 variants are provided:

* :func:`run_two_stage` — the published representative architectures
  (NASNet-A, DARTS, ...) re-expressed in the YOSO space, as in Table 2;
* :func:`two_stage_nas` — an *executed* accuracy-only architecture search
  with the same fast evaluator YOSO uses, so the two-stage and single-stage
  flows are compared at matched accuracy on any dataset (this is what
  "design an application-specific DNN model with the highest accuracy,
  then build an accelerator for it" means when the application is not
  CIFAR-10).

Both score accuracy through a batched callable (``Sequence[Genotype] ->
list[float]``, e.g. a bound
:meth:`~repro.nas.hypernet.HyperNet.evaluate_many`), called once for all
of a flow's networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..accel.config import AcceleratorConfig, enumerate_configs
from ..accel.simulator import SystolicArraySimulator
from ..accel.workload import network_workloads
from ..baselines.genotypes import TWO_STAGE_BASELINES, BaselineModel
from ..nas.genotype import Genotype
from ..nas.space import DnnSpace
from .reward import RewardSpec

__all__ = ["TwoStageRow", "best_config_for", "run_two_stage", "two_stage_nas"]


@dataclass(frozen=True)
class TwoStageRow:
    """One Table 2 row produced by the two-stage flow."""

    model: str
    search_gpu_days: float
    paper_test_error: float
    accuracy: float
    energy_mj: float
    latency_ms: float
    config: AcceleratorConfig
    genotype: Genotype | None = None

    @property
    def test_error(self) -> float:
        return 100.0 * (1.0 - self.accuracy)


def best_config_for(
    genotype: Genotype,
    simulator: SystolicArraySimulator,
    objective: str = "energy",
    reward_spec: RewardSpec | None = None,
    num_cells: int = 6,
    stem_channels: int = 16,
    image_size: int = 32,
    num_classes: int = 10,
    configs: Iterable[AcceleratorConfig] | None = None,
) -> tuple[AcceleratorConfig, float, float]:
    """Exhaustively find the best accelerator configuration for a network.

    ``objective`` is ``"energy"``, ``"latency"`` or ``"reward"`` (the Eq. 2
    composite — since accuracy is fixed for a given network, the composite
    ranking of configurations does not depend on the accuracy value, so it
    is evaluated at accuracy 1).  When a ``reward_spec`` is given,
    configurations violating its thresholds are screened out first
    (Sec. IV-A); if none survive, the screen is dropped so a best point is
    always returned.

    Returns ``(config, energy_mj, latency_ms)``.
    """
    if objective not in ("energy", "latency", "reward"):
        raise ValueError("objective must be 'energy', 'latency' or 'reward'")
    if objective == "reward" and reward_spec is None:
        raise ValueError("objective 'reward' requires a reward_spec")
    config_list = list(configs) if configs is not None else list(enumerate_configs())
    if not config_list:
        raise ValueError("no configurations to enumerate")
    # One vectorised sweep: the layer expansion is computed once and
    # broadcast over the whole hardware enumeration.
    layers = network_workloads(
        genotype,
        num_cells=num_cells,
        stem_channels=stem_channels,
        image_size=image_size,
        num_classes=num_classes,
    )
    batch = simulator.simulate_many(layers, config_list)
    results = [
        (config, float(energy), float(latency))
        for config, energy, latency in zip(config_list, batch.energy_mj, batch.latency_ms)
    ]
    candidates = results
    if reward_spec is not None:
        passing = [
            r for r in results if reward_spec.meets_thresholds(r[2], r[1])
        ]
        if passing:
            candidates = passing
    if objective == "energy":
        return min(candidates, key=lambda r: r[1])
    if objective == "latency":
        return min(candidates, key=lambda r: r[2])
    assert reward_spec is not None
    return max(candidates, key=lambda r: reward_spec.reward(1.0, r[2], r[1]))


def run_two_stage(
    simulator: SystolicArraySimulator,
    accuracies_of: Callable[[Sequence[Genotype]], list[float]],
    objective: str = "energy",
    reward_spec: RewardSpec | None = None,
    baselines: tuple[BaselineModel, ...] = TWO_STAGE_BASELINES,
    num_cells: int = 6,
    stem_channels: int = 16,
    image_size: int = 32,
    num_classes: int = 10,
    configs: Iterable[AcceleratorConfig] | None = None,
) -> list[TwoStageRow]:
    """Produce the two-stage side of Table 2.

    ``accuracies_of`` maps the baseline networks, in order, to their
    accuracies in one call (full training at paper scale;
    HyperNet-inherited weights at demo scale).  ``configs`` restricts the
    hardware enumeration (tests); default is the full space.
    """
    config_list = list(configs) if configs is not None else None
    accuracies = accuracies_of([model.genotype for model in baselines])
    rows: list[TwoStageRow] = []
    for model, accuracy in zip(baselines, accuracies):
        config, energy, latency = best_config_for(
            model.genotype,
            simulator,
            objective=objective,
            reward_spec=reward_spec,
            num_cells=num_cells,
            stem_channels=stem_channels,
            image_size=image_size,
            num_classes=num_classes,
            configs=config_list,
        )
        rows.append(
            TwoStageRow(
                model=model.name,
                search_gpu_days=model.search_gpu_days,
                paper_test_error=model.paper_test_error,
                accuracy=accuracy,
                energy_mj=energy,
                latency_ms=latency,
                config=config,
            )
        )
    return rows


def two_stage_nas(
    accuracies_of: Callable[[Sequence[Genotype]], list[float]],
    simulator: SystolicArraySimulator,
    objectives: Sequence[str],
    reward_spec: RewardSpec | None = None,
    nas_samples: int = 100,
    seed: int = 0,
    num_cells: int = 6,
    stem_channels: int = 16,
    image_size: int = 32,
    num_classes: int = 10,
    configs: Iterable[AcceleratorConfig] | None = None,
) -> list[TwoStageRow]:
    """Execute the full two-stage flow from scratch, one row per objective.

    Stage 1: sample ``nas_samples`` architectures uniformly, score them
    with one ``accuracies_of`` call and keep the first one with the
    highest accuracy (the paper's "designing an application-specific DNN
    model with the highest accuracy" — no hardware feedback whatsoever).
    Stage 1 does not depend on the objective, so it runs once.
    Stage 2: for each of ``objectives``, enumerate the accelerator space
    for that fixed architecture and keep the best configuration under it
    (screened by ``reward_spec`` thresholds when given).
    """
    if nas_samples < 1:
        raise ValueError("nas_samples must be >= 1")
    rng = np.random.default_rng(seed)
    space = DnnSpace()
    genotypes = [
        space.sample(rng, name=f"two_stage_nas{i}") for i in range(nas_samples)
    ]
    accuracies = accuracies_of(genotypes)
    best = max(range(nas_samples), key=accuracies.__getitem__)  # first maximum
    best_genotype = genotypes[best]
    config_list = list(configs) if configs is not None else None
    rows: list[TwoStageRow] = []
    for objective in objectives:
        config, energy, latency = best_config_for(
            best_genotype,
            simulator,
            objective=objective,
            reward_spec=reward_spec,
            num_cells=num_cells,
            stem_channels=stem_channels,
            image_size=image_size,
            num_classes=num_classes,
            configs=config_list,
        )
        rows.append(
            TwoStageRow(
                model=f"TwoStage_{objective}",
                search_gpu_days=0.5,
                paper_test_error=float("nan"),
                accuracy=accuracies[best],
                energy_mj=energy,
                latency_ms=latency,
                config=config,
                genotype=best_genotype,
            )
        )
    return rows
