"""Table 2 and Fig. 7 — single-stage YOSO vs the two-stage method.

Two-stage side: each representative network (NASNet-A, DARTS v1/v2,
AmoebaNet-A, ENASNet, PNASNet re-expressed in the YOSO space) gets its
accuracy evaluated and *every* accelerator configuration enumerated to pick
its best hardware (Sec. IV-D).

YOSO side: two full searches — ``Yoso_eer`` with the energy-focused reward
and ``Yoso_lat`` with the latency-focused reward — followed by top-N
accurate rescoring, as in the paper.

Fig. 7 normalises every row's energy and latency to the YOSO results; the
paper reports 1.42x-2.29x energy reduction (vs Yoso_eer) and 1.79x-3.07x
latency reduction (vs Yoso_lat) at the same level of precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..baselines.genotypes import TWO_STAGE_BASELINES
from ..search.controller import Controller
from ..search.evaluator import AccurateEvaluator, Evaluation
from ..search.reinforce import ReinforceSearch
from ..search.reward import ENERGY_FOCUS, LATENCY_FOCUS, RewardSpec
from ..search.two_stage import run_two_stage, two_stage_nas
from .common import ExperimentContext, format_table, get_context, scaled_reward
from .fig6 import search_lr

__all__ = ["Table2Row", "Table2Result", "run_table2"]


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2 (ours measured; paper columns kept for context)."""

    model: str
    method: str  # "two-stage" or "single-stage"
    search_gpu_days: float | None
    paper_test_error: float | None
    test_error: float
    energy_mj: float
    latency_ms: float
    configuration: str


@dataclass
class Table2Result:
    """All rows plus the Fig. 7 normalised ratios."""

    rows: list[Table2Row]
    t_lat_ms: float
    t_eer_mj: float

    # ------------------------------------------------------------------
    def row(self, model: str) -> Table2Row:
        for r in self.rows:
            if r.model.lower() == model.lower():
                return r
        raise KeyError(f"no row for {model!r}")

    def two_stage_rows(self) -> list[Table2Row]:
        """Published-architecture two-stage rows (context columns)."""
        return [r for r in self.rows if r.method == "two-stage"]

    def nas_rows(self) -> list[Table2Row]:
        """Executed two-stage rows (accuracy-only NAS + HW enumeration)."""
        return [r for r in self.rows if r.method == "two-stage-nas"]

    def energy_ratios(self) -> dict[str, float]:
        """Fig. 7: baseline energy / Yoso_eer energy (paper: 1.42x-2.29x)."""
        ref = self.row("Yoso_eer").energy_mj
        return {r.model: r.energy_mj / ref for r in self.two_stage_rows()}

    def latency_ratios(self) -> dict[str, float]:
        """Fig. 7: baseline latency / Yoso_lat latency (paper: 1.79x-3.07x)."""
        ref = self.row("Yoso_lat").latency_ms
        return {r.model: r.latency_ms / ref for r in self.two_stage_rows()}

    def nas_energy_ratio(self) -> float:
        """Executed two-stage energy / Yoso_eer energy (accuracy-matched)."""
        return self.row("TwoStage_energy").energy_mj / self.row("Yoso_eer").energy_mj

    def nas_latency_ratio(self) -> float:
        """Executed two-stage latency / Yoso_lat latency (accuracy-matched)."""
        return self.row("TwoStage_latency").latency_ms / self.row("Yoso_lat").latency_ms

    def reward_of(self, model: str, spec: RewardSpec) -> float:
        """Eq. 2 composite score of one row under a given reward preset."""
        row = self.row(model)
        return spec.reward(
            1.0 - row.test_error / 100.0, row.latency_ms, row.energy_mj
        )

    def to_text(self) -> str:
        headers = [
            "Model",
            "Search (GPU*day)",
            "Paper err%",
            "Err%",
            "Energy (mJ)",
            "Latency (ms)",
            "Configuration",
        ]
        body = [
            [
                r.model,
                "-" if r.search_gpu_days is None else f"{r.search_gpu_days:g}",
                "-" if r.paper_test_error is None else f"{r.paper_test_error:.2f}",
                f"{r.test_error:.1f}",
                f"{r.energy_mj:.3f}",
                f"{r.latency_ms:.3f}",
                r.configuration,
            ]
            for r in self.rows
        ]
        ratios_e = self.energy_ratios()
        ratios_l = self.latency_ratios()
        fig7 = "\n".join(
            f"Fig7 {name}: energy x{ratios_e[name]:.2f}, latency x{ratios_l[name]:.2f}"
            for name in ratios_e
        )
        return format_table(headers, body) + "\n" + fig7


def _yoso_row(
    name: str,
    preset: RewardSpec,
    objective_seed: int,
    context: ExperimentContext,
    iterations: int,
    topn: int,
    restarts: int = 1,
    rescorer: AccurateEvaluator | None = None,
) -> Table2Row:
    """One YOSO search (Step 2 + Step 3 rescoring via accurate simulation).

    ``restarts`` independent controller runs share the iteration budget's
    top-N pool — the demo-scale stand-in for the paper's single 5x10^6-
    iteration search, whose top-10 candidates effectively cover many policy
    bassins.

    With a ``rescorer`` (an :class:`~repro.search.evaluator.
    AccurateEvaluator`, built once by :func:`run_table2`), rescored
    accuracy comes from stand-alone training of every pooled candidate
    (the paper's actual Step 3) — sharded over the context's ``workers``
    threads, each candidate seeded with this row's objective seed;
    the default keeps the cheaper full-split HyperNet re-measurement that
    demo-scale Table 2 runs have always used.
    """
    spec = scaled_reward(preset, context)
    candidates = []
    # Candidate scoring goes through the shared batch evaluator (LRU +
    # batched GP/HyperNet, sharded across workers when the context is
    # parallel-backed).  Trajectories match the former scalar
    # fast_evaluator path bit-for-bit: with batch_episodes=1 each step
    # scores ONE point, and a single-row predict_batch call IS the scalar
    # GP predict on the identical feature row (accuracy is exact by the
    # evaluate_many parity property).
    evaluator = context.batch_evaluator
    for k in range(max(1, restarts)):
        seed_k = objective_seed + 100 * k
        controller = Controller(seed=seed_k)
        history = ReinforceSearch(
            controller, evaluator.evaluate, spec,
            lr=search_lr(context, None), seed=seed_k,
            evaluate_batch=evaluator.evaluate_many,
        ).run(iterations)
        candidates.extend(history.top(topn))
    # Step 3: accurate rescoring of the pooled top-N.  Accuracy is either
    # re-measured on the full validation split (one grouped HyperNet
    # forward for the whole pool — the demo default) or, with
    # ``rescore_training``, measured by per-candidate stand-alone training
    # sharded across the context's workers; latency/energy come from ONE
    # batched simulator call instead of a per-candidate scalar walk.
    best_eval: Evaluation | None = None
    best_reward = -np.inf
    best_config = None
    scale = context.scale
    points = [sample.point() for sample in candidates]
    if rescorer is not None:
        # The per-objective seed rides with each candidate, so one shared
        # evaluator serves every row.
        accuracies = rescorer.train_accuracies(
            points,
            workers=context.workers,
            seeds=[objective_seed] * len(points),
        )
    else:
        accuracies = context.hypernet.evaluate_many(
            [point.genotype for point in points],
            context.dataset.val.images,
            context.dataset.val.labels,
            batch_size=min(128, scale.val_size),
        )
    sims = context.simulator.simulate_genotypes(
        [(point.genotype, point.config) for point in points],
        num_cells=scale.hypernet_cells,
        stem_channels=scale.hypernet_channels,
        image_size=scale.image_size,
        num_classes=context.dataset.num_classes,
    )
    for point, accuracy, latency, energy in zip(
        points, accuracies, sims.latency_ms, sims.energy_mj
    ):
        latency = float(latency)
        energy = float(energy)
        reward = spec.reward(accuracy, latency, energy)
        # Threshold screening first (Sec. IV-A), composite score second.
        key = (spec.meets_thresholds(latency, energy), reward)
        if best_eval is None or key > (
            spec.meets_thresholds(best_eval.latency_ms, best_eval.energy_mj),
            best_reward,
        ):
            best_eval = Evaluation(accuracy, latency, energy)
            best_reward = reward
            best_config = point.config
    assert best_eval is not None and best_config is not None
    return Table2Row(
        model=name,
        method="single-stage",
        search_gpu_days=0.5,  # the paper's reported YOSO search cost
        paper_test_error=None,
        test_error=100.0 * (1.0 - best_eval.accuracy),
        energy_mj=best_eval.energy_mj,
        latency_ms=best_eval.latency_ms,
        configuration=best_config.describe(),
    )


def run_table2(
    scale_name: str = "demo",
    seed: int = 0,
    context: ExperimentContext | None = None,
    iterations: int | None = None,
    topn: int | None = None,
    rescore_training: bool = False,
) -> Table2Result:
    """Regenerate Table 2 (and the Fig. 7 ratios) end to end.

    ``rescore_training=True`` rescored YOSO rows train every pooled top-N
    candidate stand-alone (sharded across ``context.workers``) instead of
    re-measuring through the HyperNet — the paper's actual Step 3, at
    demo-scale training cost.
    """
    context = context or get_context(scale_name, seed)
    scale = context.scale
    n_iter = iterations if iterations is not None else scale.search_iterations
    n_top = topn if topn is not None else scale.topn
    spec_bal = scaled_reward(ENERGY_FOCUS, context)

    full_accuracies = partial(
        context.hypernet.evaluate_many,
        images=context.dataset.val.images,
        labels=context.dataset.val.labels,
        batch_size=min(128, scale.val_size),
    )

    two_stage = run_two_stage(
        context.simulator,
        full_accuracies,
        objective="reward",
        reward_spec=spec_bal,
        num_cells=scale.hypernet_cells,
        stem_channels=scale.hypernet_channels,
        image_size=scale.image_size,
        num_classes=context.dataset.num_classes,
    )
    rows = [
        Table2Row(
            model=r.model,
            method="two-stage",
            search_gpu_days=r.search_gpu_days,
            paper_test_error=r.paper_test_error,
            test_error=r.test_error,
            energy_mj=r.energy_mj,
            latency_ms=r.latency_ms,
            configuration=r.config.describe(),
        )
        for r in two_stage
    ]
    # Executed two-stage flow: accuracy-only NAS (same fast accuracy signal
    # and sample budget as one YOSO search) followed by HW enumeration.
    fast = context.fast_evaluator
    fast_accuracies = partial(
        context.hypernet.evaluate_many,
        images=fast.val_images,
        labels=fast.val_labels,
        batch_size=fast.eval_batch,
    )
    # Stage 1 is objective-free: one sampled-and-scored architecture
    # search serves both Stage-2 objectives.
    nas_rows = two_stage_nas(
        fast_accuracies,
        context.simulator,
        ("energy", "latency"),
        reward_spec=spec_bal,
        nas_samples=n_iter,
        seed=seed + 21,
        num_cells=scale.hypernet_cells,
        stem_channels=scale.hypernet_channels,
        image_size=scale.image_size,
        num_classes=context.dataset.num_classes,
    )
    # Report accuracy on the same (full) validation split as YOSO's Step 3
    # rescoring, so the precision comparison is fair.
    full = full_accuracies([nas_row.genotype for nas_row in nas_rows])
    rows.extend(
        Table2Row(
            model=nas_row.model,
            method="two-stage-nas",
            search_gpu_days=None,
            paper_test_error=None,
            test_error=100.0 * (1.0 - full_accuracy),
            energy_mj=nas_row.energy_mj,
            latency_ms=nas_row.latency_ms,
            configuration=nas_row.config.describe(),
        )
        for nas_row, full_accuracy in zip(nas_rows, full)
    )
    # Two policy restarts per objective at reduced scales (see _yoso_row).
    restarts = 1 if scale.name == "paper" else 2
    # ONE rescorer serves both YOSO rows: the dataset + recipe are
    # identical across rows — only the per-candidate seeds differ — so the
    # evaluator is built once, not per row.
    rescorer = None
    if rescore_training:
        rescorer = AccurateEvaluator(
            context.dataset,
            num_cells=scale.hypernet_cells,
            stem_channels=scale.hypernet_channels,
            num_classes=context.dataset.num_classes,
            train_epochs=scale.standalone_epochs,
            seed=seed,
        )
        if context.store is not None:
            # Persisted trained accuracies (keyed genotype tokens + seed)
            # are reused bit-exactly.
            rescorer.attach_store(context.store)
    rows.append(_yoso_row("Yoso_lat", LATENCY_FOCUS, seed + 11, context,
                          n_iter, n_top, restarts=restarts, rescorer=rescorer))
    rows.append(_yoso_row("Yoso_eer", ENERGY_FOCUS, seed + 12, context,
                          n_iter, n_top, restarts=restarts, rescorer=rescorer))
    return Table2Result(rows=rows, t_lat_ms=context.t_lat_ms, t_eer_mj=context.t_eer_mj)
