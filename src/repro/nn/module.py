"""Module and Parameter containers for the numpy DNN substrate.

The framework is deliberately small: a :class:`Module` owns
:class:`Parameter` objects and child modules, exposes ``forward`` /
``backward`` with explicit caches, and supports train/eval mode switching.
There is no autograd tape — every layer implements its own backward, which
keeps the system transparent and easy to test against numerical gradients.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["Parameter", "Module", "init_kaiming", "init_zeros", "init_ones"]


class Parameter:
    """A learnable tensor with an accumulated gradient."""

    __slots__ = ("data", "grad", "weight_decay")

    def __init__(self, data: np.ndarray, weight_decay: bool = True) -> None:
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)
        #: whether L2 weight decay applies (disabled for BN scale/shift).
        self.weight_decay = weight_decay

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class for all layers and networks."""

    def __init__(self) -> None:
        self.training = True

    # -- forward/backward protocol -------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def release_cache(self) -> None:
        """Drop this module's forward cache (not its children's).

        A training-mode forward caches what its backward needs, and the
        backward frees it.  A forward that is never backpropagated (a
        test run with batch statistics) frees it through here instead.
        """
        if getattr(self, "_cache", None) is not None:
            self._cache = None

    # -- parameter traversal --------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield every :class:`Parameter` owned by this module tree."""
        seen: set[int] = set()
        yield from self._parameters(seen)

    def _parameters(self, seen: set[int]) -> Iterator[Parameter]:
        for value in self.__dict__.values():
            yield from _walk(value, seen)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.data.size for p in self.parameters())

    # -- mode switching ---------------------------------------------------
    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        seen: set[int] = set()
        for child in self._children(seen):
            child.training = training

    def _children(self, seen: set[int]) -> Iterator["Module"]:
        for value in self.__dict__.values():
            yield from _walk_modules(value, seen)


def _walk(value: object, seen: set[int]) -> Iterator[Parameter]:
    if isinstance(value, Parameter):
        if id(value) not in seen:
            seen.add(id(value))
            yield value
    elif isinstance(value, Module):
        if id(value) not in seen:
            seen.add(id(value))
            yield from value._parameters(seen)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _walk(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _walk(item, seen)


def _walk_modules(value: object, seen: set[int]) -> Iterator[Module]:
    if isinstance(value, Module):
        if id(value) not in seen:
            seen.add(id(value))
            yield value
            yield from value._children(seen)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _walk_modules(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _walk_modules(item, seen)


# ---------------------------------------------------------------------------
# Initialisers
# ---------------------------------------------------------------------------


def init_kaiming(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He-normal initialisation; fan-in is every axis but the first."""
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape)


def init_zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def init_ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)
