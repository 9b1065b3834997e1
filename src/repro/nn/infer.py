"""Forward-only module execution for stacked sub-batch evaluation.

:func:`forward_infer` runs a module tree forward with the same numerics as
``module(x)`` but without building backward caches, using the inference
kernels of :mod:`repro.nn.functional` (separable shifted pooling, per-tap
depthwise convolution, 1x1 convolution as a plain matmul).  Its second
job is *segmented* batch normalisation: with ``segments > 1`` the batch
axis is treated as that many contiguous equal-length sub-batches, each
normalised with its own training-mode statistics.

This is the executor behind :meth:`repro.nas.hypernet.HyperNet.forward_many`
— several sub-model paths stacked into one call per candidate op, with each
path keeping the batch statistics it would have seen in a scalar forward.
Outputs are bitwise equal, segment by segment, to training-mode
``module(x)`` on that segment's rows alone.  Do NOT call
``module.backward`` after ``forward_infer``: no caches were written, so it
raises (or, after an earlier training-mode forward that was never
backpropagated, silently uses that forward's cache).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    GlobalAvgPool,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    SeparableConv2d,
)
from .module import Module

__all__ = ["forward_infer"]


def _conv_like(module: Module, x: np.ndarray, relu: bool) -> np.ndarray:
    """One convolution-ish module, optionally fusing a preceding ReLU."""
    if isinstance(module, SeparableConv2d):
        dw = module.depthwise
        x = F.depthwise_conv2d_infer(x, dw.weight.data, dw.stride, dw.pad, relu=relu)
        return _conv_like(module.pointwise, x, relu=False)
    if isinstance(module, Conv2d):
        return F.conv2d_infer(x, module.weight.data, module.stride, module.pad, relu=relu)
    assert isinstance(module, DepthwiseConv2d)
    return F.depthwise_conv2d_infer(
        x, module.weight.data, module.stride, module.pad, relu=relu
    )


def forward_infer(module: Module, x: np.ndarray, segments: int = 1) -> np.ndarray:
    """Forward ``x`` through ``module`` without backward caches.

    ``segments`` scopes batch normalisation only: every BatchNorm2d in the
    tree normalises each of the ``segments`` contiguous sub-batches of the
    batch axis independently (training mode), exactly as if the segments
    had been forwarded one at a time.  No running statistics are written,
    and an eval-mode BatchNorm2d raises ``ValueError`` rather than being
    silently normalised with batch statistics.  All other layers are
    per-sample maths, so stacking needs no special handling.  A ReLU
    immediately followed by a convolution inside a Sequential is fused
    into the convolution's padding pass.  Unknown module types raise
    ``TypeError``: their ``forward`` would neither see ``segments`` nor
    skip its caches.
    """
    if isinstance(module, Sequential):
        children = module.modules
        i = 0
        while i < len(children):
            child = children[i]
            nxt = children[i + 1] if i + 1 < len(children) else None
            if isinstance(child, ReLU) and isinstance(
                nxt, (Conv2d, DepthwiseConv2d, SeparableConv2d)
            ):
                x = _conv_like(nxt, x, relu=True)
                i += 2
            else:
                x = forward_infer(child, x, segments)
                i += 1
        return x
    if isinstance(module, ReLU):
        if isinstance(x, list):
            return F._stack_rows(x, relu=True)
        return np.maximum(x, 0.0)
    if isinstance(module, (SeparableConv2d, Conv2d, DepthwiseConv2d)):
        return _conv_like(module, x, relu=False)
    if isinstance(x, list) and not isinstance(module, (MaxPool2d, AvgPool2d)):
        # Only the convolution/pooling kernels consume row-block lists
        # natively; everything else sees one gathered array.
        x = F._stack_rows(x)
    if isinstance(module, BatchNorm2d):
        if not module.training:
            raise ValueError(
                "forward_infer normalises with batch statistics; an eval-mode "
                "BatchNorm2d would use its running statistics"
            )
        return F.batchnorm_infer(
            x, module.gamma.data, module.beta.data, module.eps, segments=segments
        )
    if isinstance(module, MaxPool2d):
        return F.maxpool2d_infer(x, module.kernel, module.stride, module.pad)
    if isinstance(module, AvgPool2d):
        return F.avgpool2d_infer(x, module.kernel, module.stride, module.pad)
    if isinstance(module, GlobalAvgPool):
        return x.mean(axis=(2, 3))
    if isinstance(module, Linear):
        return x @ module.weight.data.T + module.bias.data
    if isinstance(module, Identity):
        return x
    raise TypeError(f"forward_infer has no rule for {type(module).__name__}")
