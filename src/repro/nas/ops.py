"""The candidate operation set of the YOSO search space.

Sec. III-D: *"6 operations are included in the operations set: conv3x3,
conv5x5, DWconv3x3, DWconv5x5, max pooling, average pooling"* with ReLU as
the only activation.  Each op knows how to build its trainable module (for
the numpy substrate) and how to report its per-layer workload dimensions
(for the accelerator model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.layers import PoolBN, ReLUConvBN
from ..nn.module import Module

__all__ = ["OpSpec", "OPS", "OP_NAMES", "NUM_OPS", "build_op", "op_index"]


@dataclass(frozen=True)
class OpSpec:
    """Static description of a candidate operation.

    Attributes
    ----------
    name:
        Canonical identifier, e.g. ``"conv3x3"``.
    kind:
        ``"conv"`` (dense convolution), ``"dwconv"`` (depthwise separable)
        or ``"pool"`` (max/avg pooling).
    kernel:
        Square kernel size.
    pool_kind:
        ``"max"`` / ``"avg"`` for pooling ops, else ``None``.
    """

    name: str
    kind: str
    kernel: int
    pool_kind: str | None = None

    @property
    def has_weights(self) -> bool:
        return self.kind in ("conv", "dwconv")


#: Canonical order used everywhere (token values, feature vectors, ...).
OPS: tuple[OpSpec, ...] = (
    OpSpec("conv3x3", "conv", 3),
    OpSpec("conv5x5", "conv", 5),
    OpSpec("dwconv3x3", "dwconv", 3),
    OpSpec("dwconv5x5", "dwconv", 5),
    OpSpec("maxpool3x3", "pool", 3, pool_kind="max"),
    OpSpec("avgpool3x3", "pool", 3, pool_kind="avg"),
)

OP_NAMES: tuple[str, ...] = tuple(op.name for op in OPS)
NUM_OPS: int = len(OPS)
_BY_NAME = {op.name: op for op in OPS}
_INDEX = {name: i for i, name in enumerate(OP_NAMES)}


def op_index(name: str) -> int:
    """Index of an op name in the canonical :data:`OPS` order."""
    try:
        return _INDEX[name]
    except KeyError:
        raise KeyError(f"unknown operation {name!r}") from None


def get_op(name: str) -> OpSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown operation {name!r}") from None


def build_op(
    name: str,
    in_channels: int,
    out_channels: int,
    stride: int,
    rng: np.random.Generator,
) -> Module:
    """Instantiate the trainable module for operation ``name``.

    Convolutions are wrapped ReLU→Conv→BN; depthwise ops are depthwise-
    separable (depthwise k×k + pointwise 1×1) as in the NAS literature the
    paper builds on; pooling ops append a 1×1 when a channel change is
    required (e.g. on cell-input edges).
    """
    spec = get_op(name)
    if spec.kind == "conv":
        return ReLUConvBN(in_channels, out_channels, spec.kernel, stride=stride, rng=rng)
    if spec.kind == "dwconv":
        return ReLUConvBN(
            in_channels, out_channels, spec.kernel, stride=stride, separable=True, rng=rng
        )
    if spec.kind == "pool":
        return PoolBN(
            spec.pool_kind or "max",
            in_channels,
            out_channels,
            kernel=spec.kernel,
            stride=stride,
            rng=rng,
        )
    raise ValueError(f"unhandled op kind {spec.kind!r}")
