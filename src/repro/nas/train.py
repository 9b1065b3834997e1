"""Stand-alone training and evaluation of concrete networks.

Used wherever the paper fully trains a candidate: the Fig. 5(b) correlation
study (130 random sub-models trained 70 epochs each) and YOSO's Step 3
(accurate rescoring of the top-N candidates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import functional as F
from ..nn.data import SyntheticCifar
from ..nn.module import Module
from ..nn.optim import SGD, CosineSchedule, clip_grad_norm

__all__ = ["TrainResult", "train_network", "evaluate_accuracy"]


@dataclass
class TrainResult:
    """Outcome of a stand-alone training run."""

    epochs: int
    final_train_loss: float
    final_train_accuracy: float
    val_accuracy: float
    test_accuracy: float

    @property
    def test_error(self) -> float:
        """Test error in percent (the unit Table 2 reports)."""
        return 100.0 * (1.0 - self.test_accuracy)


def evaluate_accuracy(
    network: Module,
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 128,
) -> float:
    """Top-1 accuracy of ``network`` on a fixed split (eval mode)."""
    network.eval()
    correct = 0
    for start in range(0, len(labels), batch_size):
        logits = network(images[start : start + batch_size])
        correct += int((logits.argmax(axis=1) == labels[start : start + batch_size]).sum())
    network.train()
    return correct / len(labels)


def train_network(
    network: Module,
    dataset: SyntheticCifar,
    epochs: int = 70,
    batch_size: int = 64,
    lr_max: float = 0.05,
    lr_min: float = 0.0001,
    momentum: float = 0.9,
    weight_decay: float = 4e-5,
    grad_clip: float = 5.0,
    augment: bool = True,
    seed: int = 0,
) -> TrainResult:
    """Train ``network`` from its current weights with the paper's recipe.

    The steps run the layers' compact-cache training kernels, whose
    backward state is released by every backward; the final accuracies
    run the forward-only eval-mode kernels.
    """
    rng = np.random.default_rng(seed)
    optimiser = SGD(
        network.parameters(), lr=lr_max, momentum=momentum, weight_decay=weight_decay
    )
    schedule = CosineSchedule(lr_max, lr_min, total_steps=max(epochs, 1))
    last_loss, last_acc = float("nan"), float("nan")
    network.train()
    for epoch in range(epochs):
        schedule.apply(optimiser, epoch)
        total_loss, total_correct, total_seen = 0.0, 0, 0
        for x, y in dataset.batches(
            "train", batch_size=batch_size, shuffle=True, augment=augment, rng=rng
        ):
            optimiser.zero_grad()
            logits = network(x)
            loss, grad = F.softmax_cross_entropy(logits, y)
            network.backward(grad)
            clip_grad_norm(network.parameters(), grad_clip)
            optimiser.step()
            total_loss += loss * len(y)
            total_correct += int((logits.argmax(axis=1) == y).sum())
            total_seen += len(y)
        last_loss = total_loss / max(total_seen, 1)
        last_acc = total_correct / max(total_seen, 1)
    return TrainResult(
        epochs=epochs,
        final_train_loss=last_loss,
        final_train_accuracy=last_acc,
        val_accuracy=evaluate_accuracy(
            network, dataset.val.images, dataset.val.labels
        ),
        test_accuracy=evaluate_accuracy(
            network, dataset.test.images, dataset.test.labels
        ),
    )
