"""Layer library built on :mod:`repro.nn.functional`.

Layers cache forward intermediates on ``self`` and consume them in
``backward``; a layer instance therefore handles one forward/backward pair
at a time (standard for define-by-run training loops).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from . import functional as F
from .module import Module, Parameter, init_kaiming, init_ones, init_zeros

__all__ = [
    "bn_segments",
    "train_fast",
    "train_fast_enabled",
    "Conv2d",
    "DepthwiseConv2d",
    "SeparableConv2d",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool",
    "Linear",
    "Identity",
    "ReLUConvBN",
    "PoolBN",
    "FactorizedReduce",
    "Sequential",
]


#: Number of contiguous equal-length sub-batches every BatchNorm2d forward
#: should normalise independently (1 = plain batch norm).  Set via
#: :func:`bn_segments`; read at call time so the scope nests correctly.
#: Context-local, so threads in overlapping scopes never see each other's
#: value.
_BN_SEGMENTS: ContextVar[int] = ContextVar("repro_bn_segments", default=1)


#: Whether conv/pool layers should run the compact-cache training kernels
#: (see the ``*_fast`` family in :mod:`repro.nn.functional`).  Off by
#: default for paper fidelity; set via :func:`train_fast`, read at forward
#: time so the scope nests correctly.  Context-local like
#: :data:`_BN_SEGMENTS`.
_TRAIN_FAST: ContextVar[bool] = ContextVar("repro_train_fast", default=False)


@contextmanager
def train_fast(enabled: bool = True):
    """Scope under which conv/pool layers use the compact-cache training
    kernels (``conv2d_forward_fast`` & friends).

    Inside the scope forwards keep only O(input) backward state — no full
    im2col column tensors, boolean first-max masks for pooling — and each
    layer's backward dispatches to the matching fast kernel (the choice is
    latched per forward, so a forward inside the scope pairs with the fast
    backward even if the scope has been exited in between).  Values match
    the standard kernels to float round-off (conv/max-pool forwards are
    bitwise identical); gradients agree at relative 1e-6 — see
    ``tests/test_nn_fast_kernels.py`` and docs/PERFORMANCE.md ("Training
    path").  The default mode everywhere stays the standard kernels.
    """
    token = _TRAIN_FAST.set(bool(enabled))
    try:
        yield
    finally:
        _TRAIN_FAST.reset(token)


def train_fast_enabled() -> bool:
    """Whether the compact-cache training kernels are active in this scope."""
    return _TRAIN_FAST.get()


@contextmanager
def bn_segments(segments: int):
    """Scope under which BatchNorm2d treats the batch axis as ``segments``
    independent contiguous sub-batches, each normalised with its own
    training-mode statistics.

    The batched HyperNet forward uses this to stack several sub-model
    paths into one op call without mixing their batch statistics — see
    :func:`repro.nn.functional.batchnorm_forward` for the exact semantics
    (per-segment parity with scalar forwards; forward-only, no backward
    cache).  Affects training-mode BN only; other layers are per-sample
    and need no scoping.
    """
    if segments < 1:
        raise ValueError("segments must be >= 1")
    token = _BN_SEGMENTS.set(segments)
    try:
        yield
    finally:
        _BN_SEGMENTS.reset(token)


class Conv2d(Module):
    """2-D convolution (no bias; networks always follow with BN)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = F.pad_same(kernel) if pad is None else pad
        self.weight = Parameter(init_kaiming((out_channels, in_channels, kernel, kernel), rng))
        self._cache: tuple | None = None
        self._fast = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._fast = _TRAIN_FAST.get()
        if self._fast:
            if not self.training:  # no backward coming: skip the cache
                self._cache = None
                return F.conv2d_infer(x, self.weight.data, self.stride, self.pad)
            out, self._cache = F.conv2d_forward_fast(
                x, self.weight.data, self.stride, self.pad
            )
            return out
        out, self._cache = F.conv2d_forward(x, self.weight.data, self.stride, self.pad)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        bwd = F.conv2d_backward_fast if self._fast else F.conv2d_backward
        grad_x, grad_w = bwd(grad_out, self._cache)
        self.weight.grad += grad_w
        return grad_x


class DepthwiseConv2d(Module):
    """Depthwise 2-D convolution: one filter per channel."""

    def __init__(
        self,
        channels: int,
        kernel: int,
        stride: int = 1,
        pad: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.kernel = kernel
        self.stride = stride
        self.pad = F.pad_same(kernel) if pad is None else pad
        self.weight = Parameter(init_kaiming((channels, kernel, kernel), rng))
        self._cache: tuple | None = None
        self._fast = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._fast = _TRAIN_FAST.get()
        if self._fast:
            if not self.training:  # no backward coming: skip the cache
                self._cache = None
                return F.depthwise_conv2d_infer(
                    x, self.weight.data, self.stride, self.pad
                )
            out, self._cache = F.depthwise_conv2d_forward_fast(
                x, self.weight.data, self.stride, self.pad
            )
            return out
        out, self._cache = F.depthwise_conv2d_forward(
            x, self.weight.data, self.stride, self.pad
        )
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        bwd = (
            F.depthwise_conv2d_backward_fast if self._fast else F.depthwise_conv2d_backward
        )
        grad_x, grad_w = bwd(grad_out, self._cache)
        self.weight.grad += grad_w
        return grad_x


class SeparableConv2d(Module):
    """Depthwise-separable conv: depthwise k×k followed by pointwise 1×1."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.depthwise = DepthwiseConv2d(in_channels, kernel, stride=stride, rng=rng)
        self.pointwise = Conv2d(in_channels, out_channels, kernel=1, stride=1, pad=0, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.pointwise(self.depthwise(x))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.depthwise.backward(self.pointwise.backward(grad_out))


class BatchNorm2d(Module):
    """Batch normalisation over channels of an NCHW tensor."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init_ones((channels,)), weight_decay=False)
        self.beta = Parameter(init_zeros((channels,)), weight_decay=False)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._cache: tuple | None = None
        self._fast = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._fast = _TRAIN_FAST.get()
        segments = _BN_SEGMENTS.get()
        if self._fast and self.training and segments == 1:
            out, self._cache = F.batchnorm_forward_fast(
                x,
                self.gamma.data,
                self.beta.data,
                self.running_mean,
                self.running_var,
                self.momentum,
                self.eps,
                self.training,
            )
            return out
        out, self._cache = F.batchnorm_forward(
            x,
            self.gamma.data,
            self.beta.data,
            self.running_mean,
            self.running_var,
            self.momentum,
            self.eps,
            self.training,
            segments=segments,
        )
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called in eval mode")
        bwd = F.batchnorm_backward_fast if self._fast else F.batchnorm_backward
        grad_x, grad_gamma, grad_beta = bwd(grad_out, self._cache)
        self.gamma.grad += grad_gamma
        self.beta.grad += grad_beta
        return grad_x


class ReLU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if _TRAIN_FAST.get() and not self.training:  # no backward coming: skip the mask
            self._mask = None
            return np.maximum(x, 0.0)
        out, self._mask = F.relu_forward(x)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.relu_backward(grad_out, self._mask)


class MaxPool2d(Module):
    def __init__(self, kernel: int = 3, stride: int = 1, pad: int | None = None) -> None:
        super().__init__()
        self.kernel = kernel
        self.stride = stride
        self.pad = F.pad_same(kernel) if pad is None else pad
        self._cache: tuple | None = None
        self._fast = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._fast = _TRAIN_FAST.get()
        if self._fast:
            if not self.training:  # no backward coming: skip the mask
                self._cache = None
                return F.maxpool2d_infer(x, self.kernel, self.stride, self.pad)
            out, self._cache = F.maxpool2d_forward_fast(
                x, self.kernel, self.stride, self.pad
            )
            return out
        out, self._cache = F.maxpool2d_forward(x, self.kernel, self.stride, self.pad)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        bwd = F.maxpool2d_backward_fast if self._fast else F.maxpool2d_backward
        return bwd(grad_out, self._cache)


class AvgPool2d(Module):
    def __init__(self, kernel: int = 3, stride: int = 1, pad: int | None = None) -> None:
        super().__init__()
        self.kernel = kernel
        self.stride = stride
        self.pad = F.pad_same(kernel) if pad is None else pad
        self._cache: tuple | None = None
        self._fast = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._fast = _TRAIN_FAST.get()
        if self._fast and not self.training:
            self._cache = None
            return F.avgpool2d_infer(x, self.kernel, self.stride, self.pad)
        fwd = F.avgpool2d_forward_fast if self._fast else F.avgpool2d_forward
        out, self._cache = fwd(x, self.kernel, self.stride, self.pad)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        bwd = F.avgpool2d_backward_fast if self._fast else F.avgpool2d_backward
        return bwd(grad_out, self._cache)


class GlobalAvgPool(Module):
    def __init__(self) -> None:
        super().__init__()
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.global_avgpool_forward(x)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.global_avgpool_backward(grad_out, self._cache)


class Linear(Module):
    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(init_kaiming((out_features, in_features), rng))
        self.bias = Parameter(init_zeros((out_features,)), weight_decay=False)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.linear_forward(x, self.weight.data, self.bias.data)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_x, grad_w, grad_b = F.linear_backward(grad_out, self._cache)
        self.weight.grad += grad_w
        self.bias.grad += grad_b
        return grad_x


class Identity(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Sequential(Module):
    """Chain of modules executed in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.modules = list(modules)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for m in self.modules:
            x = m(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for m in reversed(self.modules):
            grad_out = m.backward(grad_out)
        return grad_out

    def __len__(self) -> int:
        return len(self.modules)

    def __getitem__(self, idx: int) -> Module:
        return self.modules[idx]


class ReLUConvBN(Sequential):
    """The standard NAS op wrapper: ReLU → Conv → BatchNorm."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        separable: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        conv: Module
        if separable:
            conv = SeparableConv2d(in_channels, out_channels, kernel, stride=stride, rng=rng)
        else:
            conv = Conv2d(in_channels, out_channels, kernel, stride=stride, rng=rng)
        super().__init__(ReLU(), conv, BatchNorm2d(out_channels))


class PoolBN(Sequential):
    """Pooling op with stride and a channel-matching 1×1 when needed."""

    def __init__(
        self,
        kind: str,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        pool: Module
        if kind == "max":
            pool = MaxPool2d(kernel, stride=stride)
        elif kind == "avg":
            pool = AvgPool2d(kernel, stride=stride)
        else:
            raise ValueError(f"unknown pool kind {kind!r}")
        modules: list[Module] = [pool]
        if in_channels != out_channels:
            modules.append(Conv2d(in_channels, out_channels, kernel=1, pad=0, rng=rng))
        modules.append(BatchNorm2d(out_channels))
        super().__init__(*modules)


class FactorizedReduce(Sequential):
    """1×1 strided conv used to align feature shapes across cell boundaries."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(
            ReLU(),
            Conv2d(in_channels, out_channels, kernel=1, stride=stride, pad=0, rng=rng),
            BatchNorm2d(out_channels),
        )
