"""Layer library built on :mod:`repro.nn.functional`.

Layers cache forward intermediates on ``self`` and consume them in
``backward``; a layer instance therefore handles one forward/backward pair
at a time (standard for define-by-run training loops).

Training-mode forwards run the compact-cache ``*_fast`` kernels, whose
backward state is O(input): a reference to the input, float32 columns
under a fixed budget, a boolean first-max mask for max pooling.  They are
the only training kernels; the tests hold them to a float64 direct-sum
reference (``tests/kernel_reference.py``).
``backward`` takes the cache and releases it, so a network holds no
training state between steps — a weight-sharing HyperNet, which runs a
different single path every step, would otherwise keep the caches of
every op it has ever sampled.  Eval-mode convolution, pooling, BN and
ReLU forwards run the forward-only ``*_infer`` kernels (BN: the
running-statistics ``batchnorm_forward``) and write no cache.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .module import Module, Parameter, init_kaiming, init_ones, init_zeros

__all__ = [
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


def _take_cache(layer: Module) -> tuple:
    """The layer's forward cache, released: one backward consumes it."""
    cache, layer._cache = layer._cache, None
    if cache is None:
        raise RuntimeError(
            f"{type(layer).__name__}.backward without a training-mode forward"
        )
    return cache


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

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return F.conv2d_infer(x, self.weight.data, self.stride, self.pad)
        out, self._cache = F.conv2d_forward_fast(x, self.weight.data, self.stride, self.pad)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_x, grad_w = F.conv2d_backward_fast(grad_out, _take_cache(self))
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return F.depthwise_conv2d_infer(x, self.weight.data, self.stride, self.pad)
        out, self._cache = F.depthwise_conv2d_forward_fast(
            x, self.weight.data, self.stride, self.pad
        )
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_x, grad_w = F.depthwise_conv2d_backward_fast(grad_out, _take_cache(self))
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        stats = (x, self.gamma.data, self.beta.data, self.running_mean, self.running_var)
        if not self.training:
            return F.batchnorm_forward(*stats, self.eps)
        out, self._cache = F.batchnorm_forward_fast(*stats, self.momentum, self.eps)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_x, grad_gamma, grad_beta = F.batchnorm_backward_fast(grad_out, _take_cache(self))
        self.gamma.grad += grad_gamma
        self.beta.grad += grad_beta
        return grad_x


class ReLU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return np.maximum(x, 0.0)
        out, self._mask = F.relu_forward(x)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            raise RuntimeError("ReLU.backward without a training-mode forward")
        return F.relu_backward(grad_out, mask)

    def release_cache(self) -> None:
        self._mask = None


class MaxPool2d(Module):
    def __init__(self, kernel: int = 3, stride: int = 1, pad: int | None = None) -> None:
        super().__init__()
        self.kernel = kernel
        self.stride = stride
        self.pad = F.pad_same(kernel) if pad is None else pad
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return F.maxpool2d_infer(x, self.kernel, self.stride, self.pad)
        out, self._cache = F.maxpool2d_forward_fast(x, self.kernel, self.stride, self.pad)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.maxpool2d_backward_fast(grad_out, _take_cache(self))


class AvgPool2d(Module):
    def __init__(self, kernel: int = 3, stride: int = 1, pad: int | None = None) -> None:
        super().__init__()
        self.kernel = kernel
        self.stride = stride
        self.pad = F.pad_same(kernel) if pad is None else pad
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return F.avgpool2d_infer(x, self.kernel, self.stride, self.pad)
        out, self._cache = F.avgpool2d_forward_fast(x, self.kernel, self.stride, self.pad)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.avgpool2d_backward_fast(grad_out, _take_cache(self))


class GlobalAvgPool(Module):
    def __init__(self) -> None:
        super().__init__()
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.global_avgpool_forward(x)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.global_avgpool_backward(grad_out, _take_cache(self))


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
        grad_x, grad_w, grad_b = F.linear_backward(grad_out, _take_cache(self))
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
