"""A float64 direct-sum reference for the convolution, pooling and
batch-norm kernels of :mod:`repro.nn.functional`.

Every op is written from its definition.  :func:`windows` gathers each
sliding window of the zero-padded input with
``numpy.lib.stride_tricks.sliding_window_view``, a forward reduces each
window (an ``einsum`` against the weights, a max or a mean), and
:func:`scatter` adds per-window gradients back onto the input cells they
were read from.  Nothing here builds GEMM columns, per-tap sums or
separable passes the way the production kernels do, so agreement with
them is evidence rather than a restatement.  Inputs are promoted to
float64 and results are float64.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Parity bound of a kernel against this reference: the largest absolute
#: deviation relative to the largest reference magnitude.
REL = 1e-6


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Largest ``|a - b|`` relative to the largest ``|b|`` (absolute when
    ``b`` is all zeros)."""
    scale = np.max(np.abs(b))
    if scale == 0.0:
        return float(np.max(np.abs(a - b)))
    return float(np.max(np.abs(a - b)) / scale)


def windows(x, kernel: int, stride: int, pad: int, pad_value: float = 0.0) -> np.ndarray:
    """``(N, C, OH, OW, K, K)`` view of every window of the padded input."""
    pads = ((0, 0), (0, 0), (pad, pad), (pad, pad))
    xp = np.pad(np.asarray(x, dtype=np.float64), pads, constant_values=pad_value)
    return sliding_window_view(xp, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]


def scatter(values, x_shape, kernel: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of :func:`windows`: add every window's ``(N, C, OH, OW, K,
    K)`` values onto the input cells it was read from (padding dropped)."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    cells = np.arange(hp * wp).reshape(hp, wp)
    cells = sliding_window_view(cells, (kernel, kernel))[::stride, ::stride]
    out = np.zeros((n, c, hp * wp))
    np.add.at(out, (slice(None), slice(None), cells), values)
    return out.reshape(n, c, hp, wp)[:, :, pad : pad + h, pad : pad + w]


def conv2d(x, weight, stride: int, pad: int) -> np.ndarray:
    return np.einsum("nchwij,kcij->nkhw", windows(x, weight.shape[2], stride, pad), weight)


def conv2d_grad_x(grad_out, weight, x_shape, stride: int, pad: int) -> np.ndarray:
    per_window = np.einsum("nkhw,kcij->nchwij", grad_out, weight)
    return scatter(per_window, x_shape, weight.shape[2], stride, pad)


def conv2d_grad_w(x, grad_out, kernel: int, stride: int, pad: int) -> np.ndarray:
    return np.einsum("nchwij,nkhw->kcij", windows(x, kernel, stride, pad), grad_out)


def depthwise_conv2d(x, weight, stride: int, pad: int) -> np.ndarray:
    return np.einsum("nchwij,cij->nchw", windows(x, weight.shape[1], stride, pad), weight)


def depthwise_conv2d_grad_x(grad_out, weight, x_shape, stride: int, pad: int) -> np.ndarray:
    per_window = np.einsum("nchw,cij->nchwij", grad_out, weight)
    return scatter(per_window, x_shape, weight.shape[1], stride, pad)


def depthwise_conv2d_grad_w(x, grad_out, kernel: int, stride: int, pad: int) -> np.ndarray:
    return np.einsum("nchwij,nchw->cij", windows(x, kernel, stride, pad), grad_out)


def maxpool2d(x, kernel: int, stride: int, pad: int) -> np.ndarray:
    """Window maxima; padded cells are ``-inf`` so they never win."""
    return windows(x, kernel, stride, pad, -np.inf).max(axis=(4, 5))


def maxpool2d_argmax(x, kernel: int, stride: int, pad: int) -> np.ndarray:
    """``(N, C, OH, OW)`` flat index ``ki*K + kj`` of each window's first
    maximum in row-major scan order (``np.argmax``'s tie rule)."""
    win = windows(x, kernel, stride, pad, -np.inf)
    return win.reshape(*win.shape[:4], kernel * kernel).argmax(axis=4)


def maxpool2d_grad_x(x, grad_out, kernel: int, stride: int, pad: int) -> np.ndarray:
    """Each window's gradient routed to its first maximum."""
    arg = maxpool2d_argmax(x, kernel, stride, pad)
    onehot = arg[..., None] == np.arange(kernel * kernel)
    routed = (onehot * np.asarray(grad_out)[..., None]).reshape(*arg.shape, kernel, kernel)
    return scatter(routed, x.shape, kernel, stride, pad)


def avgpool2d(x, kernel: int, stride: int, pad: int) -> np.ndarray:
    """Window means; padded zeros count towards the mean."""
    return windows(x, kernel, stride, pad).mean(axis=(4, 5))


def avgpool2d_grad_x(grad_out, x_shape, kernel: int, stride: int, pad: int) -> np.ndarray:
    per_window = np.broadcast_to(
        np.asarray(grad_out, dtype=np.float64)[..., None, None] / (kernel * kernel),
        (*grad_out.shape, kernel, kernel),
    )
    return scatter(per_window, x_shape, kernel, stride, pad)


def batchnorm_train(x, gamma, beta, eps: float):
    """Training-mode batch norm: ``(out, batch mean, biased batch variance)``."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=(0, 2, 3))
    centred = x - mean[:, None, None]
    var = (centred**2).mean(axis=(0, 2, 3))
    xhat = centred / np.sqrt(var[:, None, None] + eps)
    return gamma[:, None, None] * xhat + beta[:, None, None], mean, var
