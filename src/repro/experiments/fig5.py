"""Fig. 5 — effectiveness of the HyperNet accuracy evaluator.

(a) the HyperNet training curve: per epoch, the accuracy of a randomly
sampled sub-model (exactly how the paper tracks supernet progress);
(b) the correlation between HyperNet-inherited validation accuracy and the
stand-alone fully-trained validation accuracy of random sub-models (the
paper uses 130 models at 70 epochs each).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nas.hypernet import EpochStats
from ..nas.network import CellNetwork
from ..nas.train import train_network
from ..predict.metrics import spearman
from .common import ExperimentContext, format_table, get_context

__all__ = ["Fig5aResult", "Fig5bResult", "run_fig5a", "run_fig5b"]


@dataclass
class Fig5aResult:
    """The HyperNet training curve."""

    epochs: list[int]
    accuracy: list[float]
    loss: list[float]

    @property
    def final_accuracy(self) -> float:
        return self.accuracy[-1]

    def improved(self) -> bool:
        """Did training improve over the first epoch (the Fig. 5(a) shape)?"""
        return self.accuracy[-1] > self.accuracy[0]


@dataclass
class Fig5bResult:
    """HyperNet-inherited vs stand-alone accuracy for random sub-models."""

    hypernet_accuracy: np.ndarray
    standalone_accuracy: np.ndarray
    pearson_r: float
    spearman_rho: float

    def to_text(self) -> str:
        headers = ["model", "hypernet acc", "stand-alone acc"]
        rows = [
            [f"random-{i}", f"{h:.3f}", f"{s:.3f}"]
            for i, (h, s) in enumerate(
                zip(self.hypernet_accuracy, self.standalone_accuracy)
            )
        ]
        table = format_table(headers, rows)
        return (
            f"{table}\n"
            f"pearson r = {self.pearson_r:.3f}, spearman rho = {self.spearman_rho:.3f}"
        )


def run_fig5a(
    scale_name: str = "demo",
    seed: int = 0,
    context: ExperimentContext | None = None,
) -> Fig5aResult:
    """Regenerate Fig. 5(a) from the shared context's training history."""
    context = context or get_context(scale_name, seed)
    history: list[EpochStats] = context.hypernet_history
    return Fig5aResult(
        epochs=[h.epoch for h in history],
        accuracy=[h.accuracy for h in history],
        loss=[h.loss for h in history],
    )


def run_fig5b(
    scale_name: str = "demo",
    seed: int = 0,
    context: ExperimentContext | None = None,
    n_models: int | None = None,
) -> Fig5bResult:
    """Regenerate Fig. 5(b): accuracy correlation over random sub-models."""
    context = context or get_context(scale_name, seed)
    scale = context.scale
    n = n_models if n_models is not None else scale.correlation_models
    rng = np.random.default_rng(seed + 17)
    genotypes = [
        context.hypernet.sample_genotype(rng, name=f"corr{i}") for i in range(n)
    ]
    hyper_accs = context.hypernet.evaluate_many(
        genotypes,
        context.dataset.val.images,
        context.dataset.val.labels,
        batch_size=min(128, scale.val_size),
    )
    alone_accs: list[float] = []
    for i, genotype in enumerate(genotypes):
        network = CellNetwork(
            genotype,
            num_cells=scale.hypernet_cells,
            stem_channels=scale.hypernet_channels,
            num_classes=context.dataset.num_classes,
            rng=np.random.default_rng(seed + 1000 + i),
        )
        result = train_network(
            network,
            context.dataset,
            epochs=scale.standalone_epochs,
            batch_size=scale.hypernet_batch,
            seed=seed + i,
        )
        alone_accs.append(result.val_accuracy)
    hyper = np.asarray(hyper_accs)
    alone = np.asarray(alone_accs)
    if np.ptp(hyper) < 1e-12 or np.ptp(alone) < 1e-12:
        pearson = 0.0
    else:
        from scipy import stats  # heavy; loaded on first use, not by `import repro`

        pearson = float(stats.pearsonr(hyper, alone).statistic)
    return Fig5bResult(
        hypernet_accuracy=hyper,
        standalone_accuracy=alone,
        pearson_r=pearson,
        spearman_rho=spearman(hyper, alone),
    )
