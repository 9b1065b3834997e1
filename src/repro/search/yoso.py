"""End-to-end YOSO pipeline (Fig. 2): the three steps in one object.

Step 1 — fast evaluator construction: train the HyperNet with uniform path
sampling, collect simulator samples and fit the two GP predictors.
Step 2 — effective design search: the LSTM/REINFORCE controller generates
(network, configuration) pairs, scored by the fast evaluator and Eq. 2.
Step 3 — determining the final solution: the top-N candidates are rescored
accurately (stand-alone training + full simulation), threshold-screened and
the best composite scorer is returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..accel.simulator import SystolicArraySimulator
from ..nas.encoding import CoDesignPoint
from ..nas.hypernet import HyperNet, HyperNetTrainer
from ..nn.data import SyntheticCifar
from ..predict.dataset import PerfDataset, collect_samples
from .controller import Controller
from .evaluator import AccurateEvaluator, BatchEvaluator, Evaluation, FastEvaluator
from .reinforce import ReinforceSearch, SearchHistory, SearchSample
from .reward import RewardSpec

__all__ = ["YosoConfig", "RescoredCandidate", "YosoResult", "YosoSearch"]


@dataclass(frozen=True)
class YosoConfig:
    """All pipeline knobs, defaulting to paper-faithful values."""

    num_cells: int = 6
    stem_channels: int = 16
    num_classes: int = 10
    hypernet_epochs: int = 300
    hypernet_batch: int = 144
    predictor_samples: int = 3600
    search_iterations: int = 12_000
    topn: int = 10
    rescore_epochs: int = 70
    controller_hidden: int = 120
    controller_lr: float = 0.0035
    entropy_weight: float = 1e-4
    eval_batch: int = 64
    #: Controller rollouts sampled, batch-scored and accumulated per policy
    #: update (1 = the paper's per-episode update; candidate *scoring* goes
    #: through the batched evaluator either way).
    search_batch: int = 1
    #: Worker threads for candidate scoring AND Step-3 top-N training.
    #: 1 (the default) keeps everything serial; > 1 shards Step 2's cold
    #: genotypes (HyperNet accuracy + feature prefix) across the
    #: :class:`~repro.search.evaluator.BatchEvaluator`'s threads and
    #: Step 3's stand-alone trainings
    #: (:func:`~repro.parallel.train_accuracies`) — both bit-identical to
    #: the serial paths.
    workers: int = 1
    #: Path of a durable :class:`repro.store.ResultStore` (``--store``).
    #: ``None`` (the default) keeps the pipeline byte-identical to the
    #: store-less behaviour; a path warm-starts Step 1's simulator samples
    #: and the Step-2/Step-3 evaluations from persisted results, and
    #: appends fresh ones for the next run.
    store_path: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        # Fail here, not mid-pipeline: Step 3 rescores the top-N, a zero
        # eval_batch breaks the first test run after Step-1 training, and
        # ReinforceSearch would silently clamp a zero search_batch to 1.
        for name in ("topn", "eval_batch", "search_batch", "hypernet_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class RescoredCandidate:
    """A top-N candidate after Step 3 accurate rescoring."""

    sample: SearchSample
    accurate: Evaluation
    reward: float
    meets_thresholds: bool

    def point(self) -> CoDesignPoint:
        return self.sample.point()


@dataclass
class YosoResult:
    """Everything the pipeline produced."""

    best: RescoredCandidate
    rescored: list[RescoredCandidate]
    history: SearchHistory
    reward_spec: RewardSpec
    wall_seconds: dict[str, float] = field(default_factory=dict)


class YosoSearch:
    """Single-stage DNN/accelerator co-design, start to finish."""

    def __init__(
        self,
        dataset: SyntheticCifar,
        reward_spec: RewardSpec,
        config: YosoConfig | None = None,
        simulator: SystolicArraySimulator | None = None,
    ) -> None:
        self.dataset = dataset
        self.reward_spec = reward_spec
        self.config = config or YosoConfig()
        self.simulator = simulator or SystolicArraySimulator()
        self.hypernet: HyperNet | None = None
        self.samples: PerfDataset | None = None
        self.fast_evaluator: FastEvaluator | None = None
        self.batch_evaluator: BatchEvaluator | None = None
        self.search: ReinforceSearch | None = None
        self.store = None

    def _ensure_store(self):
        """Open the configured durable store once (or return ``None``)."""
        if self.store is None and self.config.store_path is not None:
            from ..store import ResultStore

            self.store = ResultStore(self.config.store_path, mode="a")
        return self.store

    def close_store(self) -> None:
        """Flush and close the durable store, if one was opened."""
        if self.store is not None:
            self.store.close()

    # -- Step 1 ----------------------------------------------------------
    def build_fast_evaluator(self) -> FastEvaluator:
        """Train the HyperNet and fit the GP predictors."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.hypernet = HyperNet(
            num_cells=cfg.num_cells,
            stem_channels=cfg.stem_channels,
            num_classes=cfg.num_classes,
            rng=rng,
        )
        trainer = HyperNetTrainer(
            self.hypernet, epochs=cfg.hypernet_epochs, seed=cfg.seed
        )
        trainer.fit(self.dataset, batch_size=cfg.hypernet_batch)
        self.samples = collect_samples(
            cfg.predictor_samples,
            seed=cfg.seed + 1,
            simulator=self.simulator,
            num_cells=cfg.num_cells,
            stem_channels=cfg.stem_channels,
            image_size=self.dataset.image_size,
            num_classes=cfg.num_classes,
            store=self._ensure_store(),
        )
        self.fast_evaluator = FastEvaluator.from_samples(
            self.hypernet,
            self.dataset,
            self.samples,
            seed=cfg.seed,
            num_cells=cfg.num_cells,
            stem_channels=cfg.stem_channels,
            image_size=self.dataset.image_size,
            num_classes=cfg.num_classes,
            eval_batch=cfg.eval_batch,
        )
        return self.fast_evaluator

    # -- Step 2 ----------------------------------------------------------
    def run_search(self) -> SearchHistory:
        """Run the RL search with the (batched) fast evaluator."""
        if self.fast_evaluator is None:
            raise RuntimeError("call build_fast_evaluator() first (Step 1)")
        cfg = self.config
        controller = Controller(hidden_dim=cfg.controller_hidden, seed=cfg.seed)
        self.batch_evaluator = BatchEvaluator(
            self.fast_evaluator, workers=cfg.workers
        )
        if self._ensure_store() is not None:
            self.batch_evaluator.attach_store(self.store)
        self.search = ReinforceSearch(
            controller,
            self.batch_evaluator.evaluate,
            self.reward_spec,
            lr=cfg.controller_lr,
            entropy_weight=cfg.entropy_weight,
            batch_episodes=cfg.search_batch,
            seed=cfg.seed,
            evaluate_batch=self.batch_evaluator.evaluate_many,
        )
        return self.search.run(cfg.search_iterations)

    # -- Step 3 ----------------------------------------------------------
    def finalize(self) -> list[RescoredCandidate]:
        """Accurately rescore the top-N candidates and rank them.

        Accuracy needs stand-alone training per candidate; at
        ``workers > 1`` those independent trainings shard across threads
        over one evaluator (:func:`~repro.parallel.train_accuracies`;
        per-candidate deterministic seeds, results bit-identical to the
        serial loop).  The latency/energy ground
        truth for ALL top-N candidates comes from ONE batched
        :meth:`~repro.accel.simulator.SystolicArraySimulator.
        simulate_genotypes` call instead of N scalar per-layer walks (the
        batch engine's results are ``==`` the scalar simulator's).
        """
        if self.search is None:
            raise RuntimeError("call run_search() first (Step 2)")
        cfg = self.config
        accurate = AccurateEvaluator(
            self.dataset,
            num_cells=cfg.num_cells,
            stem_channels=cfg.stem_channels,
            num_classes=cfg.num_classes,
            train_epochs=cfg.rescore_epochs,
            seed=cfg.seed,
        )
        if self._ensure_store() is not None:
            accurate.attach_store(self.store)
        top = self.search.history.top(cfg.topn)
        points = [sample.point() for sample in top]
        batch = self.simulator.simulate_genotypes(
            [(point.genotype, point.config) for point in points],
            num_cells=cfg.num_cells,
            stem_channels=cfg.stem_channels,
            image_size=self.dataset.image_size,
            num_classes=cfg.num_classes,
        )
        accuracies = accurate.train_accuracies(points, workers=cfg.workers)
        rescored: list[RescoredCandidate] = []
        for sample, point, accuracy, latency, energy in zip(
            top, points, accuracies, batch.latency_ms, batch.energy_mj
        ):
            evaluation = Evaluation(
                accuracy=accuracy,
                latency_ms=float(latency),
                energy_mj=float(energy),
            )
            rescored.append(
                RescoredCandidate(
                    sample=sample,
                    accurate=evaluation,
                    reward=self.reward_spec.reward(
                        evaluation.accuracy,
                        evaluation.latency_ms,
                        evaluation.energy_mj,
                    ),
                    meets_thresholds=self.reward_spec.meets_thresholds(
                        evaluation.latency_ms, evaluation.energy_mj
                    ),
                )
            )
        rescored.sort(key=lambda c: (c.meets_thresholds, c.reward), reverse=True)
        return rescored

    # -- all three steps ---------------------------------------------------
    def run(self) -> YosoResult:
        """Execute Steps 1-3 and return the final solution."""
        times: dict[str, float] = {}
        t0 = time.perf_counter()
        self.build_fast_evaluator()
        times["step1_fast_evaluator"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        history = self.run_search()
        times["step2_search"] = time.perf_counter() - t0
        # Step 2 is the only consumer of the evaluator's pool; release its
        # threads before the (training-heavy) rescoring step.  The
        # evaluator stays usable — a later batch would restart them.
        self.batch_evaluator.close()
        t0 = time.perf_counter()
        rescored = self.finalize()
        times["step3_rescoring"] = time.perf_counter() - t0
        # Every result from this run is durable before we hand back.
        self.close_store()
        return YosoResult(
            best=rescored[0],
            rescored=rescored,
            history=history,
            reward_spec=self.reward_spec,
            wall_seconds=times,
        )
