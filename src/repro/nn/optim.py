"""Optimisers and learning-rate schedules.

Matches the paper's training recipes: SGD with momentum 0.9 plus L2 weight
decay 4e-5 and a cosine learning-rate decay between 0.05 and 0.0001 for the
HyperNet (Sec. IV-B), and Adam with learning rate 0.0035 for the RL
controller (Sec. IV-C).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .module import Parameter

__all__ = ["SGD", "Adam", "CosineSchedule", "clip_grad_norm"]


class SGD:
    """Stochastic gradient descent with classical momentum and weight decay.

    Weight decay is applied only to parameters flagged ``weight_decay=True``
    (i.e. convolution/linear weights, not batch-norm scale/shift), mirroring
    standard practice and the paper's L2 regularisation of 4e-5.  A
    parameter whose gradient is exactly zero is left untouched, decay and
    momentum included: the HyperNet's "only update the selected path"
    training rule (Sec. III-D).
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 4e-5,
    ) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimiser received no parameters")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        self._slot = {id(p): i for i, p in enumerate(self.parameters)}

    def step(self, parameters: Sequence[Parameter] | None = None) -> None:
        """Update every parameter, or only ``parameters`` (a subset of this
        optimiser's, such as the sampled path's).  A parameter left out
        keeps its weight and velocity, exactly as a zero gradient would."""
        if parameters is None:
            pairs = zip(self.parameters, self._velocity)
        else:
            pairs = ((p, self._velocity[self._slot[id(p)]]) for p in parameters)
        for p, v in pairs:
            grad = p.grad
            if not grad.any():
                continue
            if self.weight_decay and p.weight_decay:
                grad = grad + self.weight_decay * p.data
            v *= self.momentum
            v -= self.lr * grad
            p.data += v

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()


class Adam:
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.0035,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimiser received no parameters")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            grad = p.grad
            if self.weight_decay and p.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()


class CosineSchedule:
    """Cosine learning-rate decay from ``lr_max`` to ``lr_min``.

    The paper sweeps 0.05 → 0.0001 over the HyperNet training epochs.
    """

    def __init__(self, lr_max: float = 0.05, lr_min: float = 0.0001, total_steps: int = 300) -> None:
        if total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if lr_min > lr_max:
            raise ValueError("lr_min must not exceed lr_max")
        self.lr_max = lr_max
        self.lr_min = lr_min
        self.total_steps = total_steps

    def lr_at(self, step: int) -> float:
        """Learning rate for 0-indexed ``step`` (clamped to the last step)."""
        step = min(max(step, 0), self.total_steps - 1)
        if self.total_steps == 1:
            return self.lr_max
        frac = step / (self.total_steps - 1)
        return self.lr_min + 0.5 * (self.lr_max - self.lr_min) * (1.0 + math.cos(math.pi * frac))

    def apply(self, optimiser: SGD | Adam, step: int) -> float:
        lr = self.lr_at(step)
        optimiser.lr = lr
        return lr


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    params = list(parameters)
    total = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total
