"""Numerical kernels for the numpy deep-learning substrate.

Every function here is a pure forward or backward computation on
``numpy.ndarray`` inputs.  Array layout is NCHW throughout; compute dtype
is float32.  The convolution and pooling kernels come in three families:

* **standard** (``conv2d_forward``/``_backward`` & friends, ``im2col``,
  the training branch of ``batchnorm_forward`` and
  ``batchnorm_backward``): the textbook im2col lowering, column layout
  ``(N, C*K*K, OH*OW)``.  It has no production caller; it is kept as the
  reference specification the kernel-parity tests hold the compact-cache
  kernels to.  (``col2im`` is shared: strided compact-cache backwards
  scatter through it.)
* **compact-cache** (``*_fast``): the training kernels every layer runs.
  Same values as the standard family to float round-off, but O(input)
  backward state instead of the K*K-fold column tensor.
* **inference** (``*_infer``): forward-only, no backward state; eval-mode
  layers and the batched HyperNet forward run them.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float32

__all__ = [
    "DTYPE",
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "depthwise_conv2d_forward",
    "depthwise_conv2d_backward",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "avgpool2d_forward",
    "avgpool2d_backward",
    "conv2d_infer",
    "depthwise_conv2d_infer",
    "maxpool2d_infer",
    "avgpool2d_infer",
    "batchnorm_infer",
    "conv2d_forward_fast",
    "conv2d_backward_fast",
    "depthwise_conv2d_forward_fast",
    "depthwise_conv2d_backward_fast",
    "maxpool2d_forward_fast",
    "maxpool2d_backward_fast",
    "avgpool2d_forward_fast",
    "avgpool2d_backward_fast",
    "batchnorm_forward_fast",
    "batchnorm_backward_fast",
    "relu_forward",
    "relu_backward",
    "batchnorm_forward",
    "batchnorm_backward",
    "linear_forward",
    "linear_backward",
    "softmax",
    "softmax_cross_entropy",
    "global_avgpool_forward",
    "global_avgpool_backward",
    "pad_same",
    "conv_out_size",
]


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial size of a convolution/pooling window sweep."""
    return (size + 2 * pad - kernel) // stride + 1


def pad_same(kernel: int) -> int:
    """Padding that preserves spatial size at stride 1 for odd kernels."""
    return (kernel - 1) // 2


def im2col(
    x: np.ndarray, kernel: int, stride: int, pad: int, pad_value: float = 0.0
) -> np.ndarray:
    """Lower sliding windows of ``x`` into column form.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel, stride, pad:
        Square window geometry.
    pad_value:
        Fill value for the padded border (``-inf`` for max pooling).

    Returns
    -------
    Array of shape ``(N, C * kernel * kernel, OH * OW)``.
    """
    n, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    if pad > 0:
        xp = np.full(
            (n, c, h + 2 * pad, w + 2 * pad), pad_value, dtype=x.dtype
        )
        xp[:, :, pad : pad + h, pad : pad + w] = x
    else:
        xp = x
    cols = np.empty((n, c, kernel, kernel, oh, ow), dtype=x.dtype)
    for ki in range(kernel):
        h_end = ki + stride * oh
        for kj in range(kernel):
            w_end = kj + stride * ow
            cols[:, :, ki, kj] = xp[:, :, ki:h_end:stride, kj:w_end:stride]
    return cols.reshape(n, c * kernel * kernel, oh * ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to image layout."""
    n, c, h, w = x_shape
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kernel, kernel, oh, ow)
    for ki in range(kernel):
        h_end = ki + stride * oh
        for kj in range(kernel):
            w_end = kj + stride * ow
            x[:, :, ki:h_end:stride, kj:w_end:stride] += cols6[:, :, ki, kj]
    if pad > 0:
        return x[:, :, pad : pad + h, pad : pad + w]
    return x


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, stride: int, pad: int
) -> tuple[np.ndarray, tuple]:
    """Standard convolution.

    ``weight`` has shape ``(K, C, R, S)`` with square ``R == S`` kernels.
    Returns ``(out, cache)`` with ``out`` of shape ``(N, K, OH, OW)``.
    """
    n, c, h, w = x.shape
    k, cw, r, s = weight.shape
    if cw != c or r != s:
        raise ValueError(f"weight shape {weight.shape} incompatible with input {x.shape}")
    cols = im2col(x, r, stride, pad)  # (N, C*R*S, P)
    w2 = weight.reshape(k, -1)
    out = np.matmul(w2, cols)  # (N, K, P)
    oh = conv_out_size(h, r, stride, pad)
    ow = conv_out_size(w, r, stride, pad)
    cache = (cols, x.shape, weight, stride, pad)
    return out.reshape(n, k, oh, ow), cache


def conv2d_backward(grad_out: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_x, grad_weight)``.
    """
    cols, x_shape, weight, stride, pad = cache
    k = weight.shape[0]
    r = weight.shape[2]
    n = grad_out.shape[0]
    g = grad_out.reshape(n, k, -1)  # (N, K, P)
    # grad_w[k, ckk] = sum_n g[n] @ cols[n].T
    grad_w = np.einsum("nkp,ncp->kc", g, cols, optimize=True).reshape(weight.shape)
    grad_cols = np.matmul(weight.reshape(k, -1).T, g)  # (N, C*R*S, P)
    grad_x = col2im(grad_cols, x_shape, r, stride, pad)
    return grad_x, grad_w


# ---------------------------------------------------------------------------
# Depthwise convolution
# ---------------------------------------------------------------------------


def depthwise_conv2d_forward(
    x: np.ndarray, weight: np.ndarray, stride: int, pad: int
) -> tuple[np.ndarray, tuple]:
    """Depthwise convolution: one ``(R, S)`` filter per input channel.

    ``weight`` has shape ``(C, R, S)``.  Returns ``(out, cache)`` with ``out``
    of shape ``(N, C, OH, OW)``.
    """
    n, c, h, w = x.shape
    cw, r, s = weight.shape
    if cw != c or r != s:
        raise ValueError(f"weight shape {weight.shape} incompatible with input {x.shape}")
    cols = im2col(x, r, stride, pad)  # (N, C*R*S, P)
    oh = conv_out_size(h, r, stride, pad)
    ow = conv_out_size(w, r, stride, pad)
    cols4 = cols.reshape(n, c, r * s, -1)
    out = np.einsum("nckp,ck->ncp", cols4, weight.reshape(c, r * s), optimize=True)
    cache = (cols, x.shape, weight, stride, pad)
    return out.reshape(n, c, oh, ow), cache


def depthwise_conv2d_backward(
    grad_out: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Backward pass of :func:`depthwise_conv2d_forward`."""
    cols, x_shape, weight, stride, pad = cache
    c, r, _ = weight.shape
    n = grad_out.shape[0]
    g = grad_out.reshape(n, c, -1)  # (N, C, P)
    cols4 = cols.reshape(n, c, r * r, -1)
    grad_w = np.einsum("ncp,nckp->ck", g, cols4, optimize=True).reshape(weight.shape)
    grad_cols = g[:, :, None, :] * weight.reshape(1, c, r * r, 1)
    grad_x = col2im(grad_cols.reshape(n, c * r * r, -1), x_shape, r, stride, pad)
    return grad_x, grad_w


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def maxpool2d_forward(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> tuple[np.ndarray, tuple]:
    """Max pooling.  Padded cells are ``-inf`` so they never win the max."""
    n, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    cols = im2col(x, kernel, stride, pad, pad_value=-np.inf)
    cols4 = cols.reshape(n, c, kernel * kernel, oh * ow)
    arg = np.argmax(cols4, axis=2)  # (N, C, P)
    out = np.take_along_axis(cols4, arg[:, :, None, :], axis=2)[:, :, 0, :]
    cache = (arg, x.shape, kernel, stride, pad)
    return out.reshape(n, c, oh, ow), cache


def maxpool2d_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    """Route gradients to the argmax cell of every window."""
    arg, x_shape, kernel, stride, pad = cache
    n, c, oh, ow = grad_out.shape
    cols4 = np.zeros((n, c, kernel * kernel, oh * ow), dtype=grad_out.dtype)
    np.put_along_axis(
        cols4, arg[:, :, None, :], grad_out.reshape(n, c, 1, -1), axis=2
    )
    return col2im(cols4.reshape(n, c * kernel * kernel, -1), x_shape, kernel, stride, pad)


def avgpool2d_forward(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> tuple[np.ndarray, tuple]:
    """Average pooling (count includes padded zeros, matching common practice)."""
    n, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    cols = im2col(x, kernel, stride, pad)
    cols4 = cols.reshape(n, c, kernel * kernel, oh * ow)
    out = cols4.mean(axis=2)
    cache = (x.shape, kernel, stride, pad)
    return out.reshape(n, c, oh, ow), cache


def avgpool2d_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    """Spread gradients uniformly over each window."""
    x_shape, kernel, stride, pad = cache
    n, c, oh, ow = grad_out.shape
    kk = kernel * kernel
    g = grad_out.reshape(n, c, 1, oh * ow) / kk
    cols4 = np.broadcast_to(g, (n, c, kk, oh * ow))
    return col2im(
        np.ascontiguousarray(cols4).reshape(n, c * kk, -1), x_shape, kernel, stride, pad
    )


# ---------------------------------------------------------------------------
# Forward-only inference kernels
# ---------------------------------------------------------------------------
#
# The standard kernels above materialise im2col columns (and argmax indices)
# because their backward passes need them.  Inference-only consumers — the
# batched HyperNet evaluation path — can use cheaper algorithms with the
# same numerics: pooling and depthwise convolution as k*k shifted
# view-reductions (no column tensor), 1x1 convolution as a plain matmul
# (its im2col is the identity).  Max pooling is bitwise-identical to the
# standard kernel; average/depthwise accumulate the k*k terms in the same
# ascending window order, so they agree to float round-off.


#: The inference kernels accept either one ``(N, C, H, W)`` array or a
#: LIST of equally-shaped row blocks: grouped callers (the batched
#: HyperNet forward) hand over the per-path segments directly and the
#: kernels fuse the gather into their padding/ReLU pass — no separate
#: ``np.concatenate`` traversal.
Rows = "np.ndarray | list[np.ndarray]"


def _rows_shape(x) -> tuple[int, int, int, int]:
    """(N, C, H, W) of an array or list-of-row-blocks input."""
    if isinstance(x, list):
        c, h, w = x[0].shape[1:]
        return sum(p.shape[0] for p in x), c, h, w
    return x.shape


def _stack_rows(parts: list[np.ndarray], relu: bool = False) -> np.ndarray:
    """One gather pass over row blocks, optionally through ``maximum(., 0)``."""
    total = sum(p.shape[0] for p in parts)
    out = np.empty((total, *parts[0].shape[1:]), dtype=parts[0].dtype)
    lo = 0
    for p in parts:
        hi = lo + p.shape[0]
        if relu:
            np.maximum(p, 0.0, out=out[lo:hi])
        else:
            out[lo:hi] = p
        lo = hi
    return out


def _pad2d(x, pad: int, value: float = 0.0, relu: bool = False) -> np.ndarray:
    """Zero-copy when ``pad == 0`` (and no relu); otherwise a padded copy.

    ``relu=True`` fuses ``maximum(x, 0)`` into the padding copy — one pass
    instead of a separate ReLU allocation (the NAS ops are ReLU→conv, so
    the fusion applies to every convolution's input).  ``x`` may be a list
    of row blocks (see :data:`Rows`); the gather then rides the same pass.
    """
    if isinstance(x, list):
        if pad == 0:
            return _stack_rows(x, relu=relu)
        n, c, h, w = _rows_shape(x)
        xp = _empty_padded(n, c, h, w, pad, value, x[0].dtype)
        lo = 0
        for p in x:
            hi = lo + p.shape[0]
            view = xp[lo:hi, :, pad : pad + h, pad : pad + w]
            if relu:
                np.maximum(p, 0.0, out=view)
            else:
                view[...] = p
            lo = hi
        return xp
    if pad == 0:
        return np.maximum(x, 0.0) if relu else x
    n, c, h, w = x.shape
    xp = _empty_padded(n, c, h, w, pad, value, x.dtype)
    if relu:
        np.maximum(x, 0.0, out=xp[:, :, pad : pad + h, pad : pad + w])
    else:
        xp[:, :, pad : pad + h, pad : pad + w] = x
    return xp


def _empty_padded(
    n: int, c: int, h: int, w: int, pad: int, value: float, dtype
) -> np.ndarray:
    """Uninitialised padded buffer with only the border frame filled —
    the interior is about to be overwritten, so a full fill is wasted."""
    xp = np.empty((n, c, h + 2 * pad, w + 2 * pad), dtype=dtype)
    xp[:, :, :pad, :] = value
    xp[:, :, pad + h :, :] = value
    xp[:, :, pad : pad + h, :pad] = value
    xp[:, :, pad : pad + h, pad + w :] = value
    return xp


#: Window-tensor budget (float32 elements) for the chunked inference
#: convolutions: the K*K sliding-window copy of a whole stacked population
#: can exceed the last-level cache many times over, where the strided
#: gather slows down ~4x — chunking the batch axis keeps each copy
#: cache-sized.  Per-sample maths, so chunking never changes results.
_INFER_CHUNK_ELEMS = 1_500_000


def _window_view(xp: np.ndarray, kernel: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Zero-copy ``(N, C, K, K, OH, OW)`` sliding-window view of a padded input."""
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kernel, kernel, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
    )


def _infer_row_chunk(c: int, kernel: int, oh: int, ow: int) -> int:
    """Rows per chunk keeping the window tensor under the cache budget."""
    per_row = c * kernel * kernel * oh * ow
    return max(1, _INFER_CHUNK_ELEMS // max(per_row, 1))


def _pool_row_chunk(c: int, oh: int, ow: int) -> int:
    """Rows per chunk for the pooling kernels, whose working set is the
    padded input plus the output — no K*K column blow-up."""
    per_row = 2 * c * oh * ow
    return max(1, _INFER_CHUNK_ELEMS // max(per_row, 1))


def conv2d_infer(
    x, weight: np.ndarray, stride: int, pad: int, relu: bool = False
) -> np.ndarray:
    """Forward-only convolution; 1x1 kernels skip im2col entirely and larger
    kernels build the column tensor with one strided-view copy instead of the
    K*K slice loop (bitwise-identical columns), chunked along the batch axis
    so the copy stays cache-sized.  ``relu=True`` applies ``maximum(x, 0)``
    to the input as part of the padding pass (the ReLU→conv fusion); ``x``
    may be a list of row blocks (:data:`Rows`) gathered in that same pass."""
    k, c, r, s = weight.shape
    if r == 1 and pad == 0:
        if isinstance(x, list):
            src = _stack_rows(x, relu=relu)
        else:
            src = np.maximum(x, 0.0) if relu else x
        src = src if stride == 1 else src[:, :, ::stride, ::stride]
        n, _, h, w = src.shape
        cols = np.ascontiguousarray(src).reshape(n, c, h * w)
        out = np.empty((n, k, h * w), dtype=cols.dtype)
        np.matmul(weight.reshape(k, c), cols, out=out)
        return out.reshape(n, k, h, w)
    n, _, h, w = _rows_shape(x)
    oh = conv_out_size(h, r, stride, pad)
    ow = conv_out_size(w, r, stride, pad)
    xp = _pad2d(x, pad, relu=relu)
    w2 = weight.reshape(k, -1)
    out = np.empty((n, k, oh, ow), dtype=xp.dtype)
    step = _infer_row_chunk(c, r, oh, ow)
    for lo in range(0, n, step):
        win = _window_view(xp[lo : lo + step], r, stride, oh, ow)
        rows = win.shape[0]
        cols = np.ascontiguousarray(win).reshape(rows, c * r * r, oh * ow)
        np.matmul(
            w2, cols, out=out[lo : lo + step].reshape(rows, k, oh * ow)
        )
    return out


def depthwise_conv2d_infer(
    x, weight: np.ndarray, stride: int, pad: int, relu: bool = False
) -> np.ndarray:
    """Forward-only depthwise convolution: an einsum over the zero-copy
    sliding-window view, contracting the K*K window axes per channel,
    chunked along the batch axis to stay cache-sized.  ``relu=True`` fuses
    ``maximum(x, 0)`` into the padding pass; ``x`` may be a list of row
    blocks (:data:`Rows`) gathered in that same pass."""
    n, c, h, w = _rows_shape(x)
    cw, r, s = weight.shape
    if cw != c or r != s:
        raise ValueError(f"weight shape {weight.shape} incompatible with input (C={c})")
    oh = conv_out_size(h, r, stride, pad)
    ow = conv_out_size(w, r, stride, pad)
    xp = _pad2d(x, pad, relu=relu)
    out = np.empty((n, c, oh, ow), dtype=xp.dtype)
    # One (1, KK) x (KK, P) matmul per (row, channel): same contraction an
    # einsum would run, without re-deriving a contraction path per call.
    w3 = np.ascontiguousarray(weight.reshape(1, c, 1, r * r))
    step = _infer_row_chunk(c, r, oh, ow)
    for lo in range(0, n, step):
        win = _window_view(xp[lo : lo + step], r, stride, oh, ow)
        rows = win.shape[0]
        cols = np.ascontiguousarray(win).reshape(rows, c, r * r, oh * ow)
        np.matmul(
            w3, cols, out=out[lo : lo + step].reshape(rows, c, 1, oh * ow)
        )
    return out


def maxpool2d_infer(x, kernel: int, stride: int, pad: int) -> np.ndarray:
    """Forward-only max pooling, separably: a k*1 column max followed by a
    1*k row max — 2k shifted passes instead of k*k, bitwise-identical (max
    is associative/commutative).  Chunked along the batch axis to keep the
    passes cache-sized."""
    if isinstance(x, list):
        x = _stack_rows(x)
    n, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    step = _pool_row_chunk(c, oh, ow)
    for lo in range(0, n, step):
        xp = _pad2d(x[lo : lo + step], pad, value=-np.inf)
        # Vertical reduction at full width (strided rows only) ...
        rows = xp[:, :, 0 : stride * oh : stride, :].copy()
        for ki in range(1, kernel):
            np.maximum(
                rows, xp[:, :, ki : ki + stride * oh : stride, :], out=rows
            )
        # ... then horizontal reduction of the row maxima.
        dst = out[lo : lo + step]
        dst[...] = rows[:, :, :, 0 : stride * ow : stride]
        for kj in range(1, kernel):
            np.maximum(
                dst, rows[:, :, :, kj : kj + stride * ow : stride], out=dst
            )
    return out


def avgpool2d_infer(x, kernel: int, stride: int, pad: int) -> np.ndarray:
    """Forward-only average pooling, separably: a k*1 column sum followed
    by a 1*k row sum — 2k shifted passes instead of k*k (the re-associated
    window sum agrees with the training kernel to float round-off).
    Chunked along the batch axis to keep the passes cache-sized."""
    if isinstance(x, list):
        x = _stack_rows(x)
    n, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    step = _pool_row_chunk(c, oh, ow)
    for lo in range(0, n, step):
        xp = _pad2d(x[lo : lo + step], pad)
        rows = xp[:, :, 0 : stride * oh : stride, :].copy()
        for ki in range(1, kernel):
            rows += xp[:, :, ki : ki + stride * oh : stride, :]
        dst = out[lo : lo + step]
        dst[...] = rows[:, :, :, 0 : stride * ow : stride]
        for kj in range(1, kernel):
            dst += rows[:, :, :, kj : kj + stride * ow : stride]
        dst /= kernel * kernel
    return out


def batchnorm_infer(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float,
    eps: float,
    training: bool,
    segments: int = 1,
) -> np.ndarray:
    """Forward-only batch norm with per-segment statistics (no cache).

    The lean counterpart of :func:`batchnorm_forward`: one centred
    temporary feeds both the variance (reduced through einsum, no squared
    temporary) and the normalisation, and the affine is applied in place.
    Values match per-segment training-mode forwards to float round-off;
    running statistics receive one update with the across-segment mean.
    """
    if not training:
        out, _ = batchnorm_forward(
            x, gamma, beta, running_mean, running_var, momentum, eps, False
        )
        return out
    n, c, h, w = x.shape
    if n % segments:
        raise ValueError(f"batch of {n} rows does not split into {segments} segments")
    rows = n // segments
    xs = x.reshape(segments, rows, c, h, w)
    out = np.empty_like(xs)
    count = rows * h * w
    gamma32 = gamma.astype(x.dtype)
    beta32 = beta.astype(x.dtype)[None, None, :, None, None]
    mean_all = np.empty((segments, c), dtype=x.dtype)
    var_all = np.empty((segments, c), dtype=x.dtype)
    # Statistics are per segment, so chunking the segment axis is exact —
    # it just keeps the centred working set cache-sized.
    step = max(1, _INFER_CHUNK_ELEMS // max(rows * c * h * w, 1))
    for lo in range(0, segments, step):
        sub = xs[lo : lo + step]
        dst = out[lo : lo + step]
        mean = sub.mean(axis=(1, 3, 4))  # (chunk, C)
        np.subtract(
            sub, mean.astype(x.dtype)[:, None, :, None, None], out=dst
        )
        var = np.einsum("snchw,snchw->sc", dst, dst, optimize=True) / count
        mean_all[lo : lo + step] = mean
        var_all[lo : lo + step] = var
        inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
        dst *= (inv_std * gamma32[None, :])[:, None, :, None, None]
        dst += beta32
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean_all.mean(axis=0)
    running_var *= 1.0 - momentum
    running_var += momentum * var_all.mean(axis=0)
    return out.reshape(n, c, h, w)


def global_avgpool_forward(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Global average pool to shape ``(N, C)``."""
    out = x.mean(axis=(2, 3))
    return out, (x.shape,)


def global_avgpool_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    (x_shape,) = cache
    n, c, h, w = x_shape
    return np.broadcast_to(
        (grad_out / (h * w))[:, :, None, None], x_shape
    ).astype(grad_out.dtype, copy=True)


# ---------------------------------------------------------------------------
# Compact-cache training kernels (what every training-mode layer runs)
# ---------------------------------------------------------------------------
#
# The standard reference kernels above hold the full im2col column tensor
# (K*K times the input) from forward to backward.  The `*_fast` variants
# keep only O(input) state and adopt the inference tricks where a backward
# pass still exists:
#
# * pointwise (1x1) convolution never builds columns in either direction —
#   forward is one matmul on the (reshaped) input, backward is one matmul
#   plus an einsum, and grad_x for strided 1x1 is a direct scatter;
# * K>1 convolutions build columns with the one-copy sliding-window view,
#   chunked along the batch axis to stay cache-sized; the columns are
#   cached for backward only while they fit `_TRAIN_CACHE_ELEMS` (stored
#   float32), otherwise backward recomputes them chunk by chunk — the
#   per-layer cache is bounded instead of growing K*K-fold with the input;
# * pooling caches a boolean first-max mask (max) or nothing (average) and
#   runs backward as K*K shifted masked adds — no float column tensor, no
#   argmax/put_along_axis traversals.
#
# Numerics: conv/max-pool forwards are bitwise identical to the standard
# kernels (identical columns, per-sample matmul, associative max);
# depthwise/average forwards re-associate the window reduction and agree
# to float round-off.  Backward gradients match the standard kernels to
# float round-off (chunked or float32-demoted accumulation re-associates
# sums); `tests/test_nn_fast_kernels.py` pins parity at relative 1e-6.

#: Column-cache budget (elements) for the fast training convolutions: a
#: forward whose full column tensor fits is cached (float32) for backward
#: reuse; anything larger is recomputed chunk by chunk in backward.  Keeps
#: every layer's backward state under ~16 MB at any scale.
_TRAIN_CACHE_ELEMS = 4_000_000


def _train_cols(xp: np.ndarray, kernel: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Contiguous ``(N, C*K*K, OH*OW)`` columns via ONE sliding-window copy
    (bitwise-identical to :func:`im2col`, ~1.4x faster)."""
    n, c = xp.shape[:2]
    win = _window_view(xp, kernel, stride, oh, ow)
    return np.ascontiguousarray(win).reshape(n, c * kernel * kernel, oh * ow)


def conv2d_forward_fast(
    x: np.ndarray, weight: np.ndarray, stride: int, pad: int
) -> tuple[np.ndarray, tuple]:
    """Compact-cache convolution forward (same values as :func:`conv2d_forward`).

    The cache holds a *reference* to ``x`` (already alive in the caller)
    plus, for K>1 layers under the column budget, a float32 copy of the
    columns; it never holds the unbounded full-precision column tensor.
    """
    n, c, h, w = x.shape
    k, cw, r, s = weight.shape
    if cw != c or r != s:
        raise ValueError(f"weight shape {weight.shape} incompatible with input {x.shape}")
    oh = conv_out_size(h, r, stride, pad)
    ow = conv_out_size(w, r, stride, pad)
    if r == 1 and pad == 0:
        src = x if stride == 1 else x[:, :, ::stride, ::stride]
        cols = np.ascontiguousarray(src).reshape(n, c, oh * ow)
        out = np.matmul(weight.reshape(k, c), cols)
        return out.reshape(n, k, oh, ow), (x, weight, stride, pad, None)
    w2 = weight.reshape(k, -1)
    out = np.empty((n, k, oh, ow), dtype=x.dtype)
    total = n * c * r * r * oh * ow
    if total <= _TRAIN_CACHE_ELEMS:
        cols = _train_cols(_pad2d(x, pad), r, stride, oh, ow)
        np.matmul(w2, cols, out=out.reshape(n, k, oh * ow))
        stored = cols if cols.dtype == np.float32 else cols.astype(np.float32)
        return out, (x, weight, stride, pad, stored)
    step = _infer_row_chunk(c, r, oh, ow)
    for lo in range(0, n, step):
        cols = _train_cols(_pad2d(x[lo : lo + step], pad), r, stride, oh, ow)
        np.matmul(
            w2, cols, out=out[lo : lo + step].reshape(cols.shape[0], k, oh * ow)
        )
    return out, (x, weight, stride, pad, None)


def _grad_w_conv(g3: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``grad_w[k, q] = sum_n g3[n] @ cols[n].T`` — as one batched matmul
    plus a pairwise batch sum when the ``(N, K, Q)`` intermediate fits the
    cache budget (BLAS with a native transposed operand beats einsum's
    per-sample bmm dispatch by 2-3x at small Q), einsum otherwise."""
    n, k, _ = g3.shape
    q = cols.shape[1]
    if n * k * q <= _TRAIN_CACHE_ELEMS:
        return np.matmul(g3, cols.swapaxes(1, 2)).sum(axis=0)
    return np.einsum("nkp,nqp->kq", g3, cols, optimize=True)


def _grad_w_depthwise(g3: np.ndarray, cols4: np.ndarray) -> np.ndarray:
    """``grad_w[c, t] = sum_{n,p} g3[n,c,p] * cols4[n,c,t,p]`` — one batched
    matmul against the column tensor plus a pairwise batch sum (the
    ``(N, C, T, 1)`` intermediate is always tiny)."""
    return np.matmul(cols4, g3[:, :, :, None]).sum(axis=0)[:, :, 0]


def _conv_grad_x_s1(
    grad_out: np.ndarray, weight: np.ndarray, pad: int, h: int, w: int
) -> np.ndarray:
    """grad_x of a stride-1 convolution as a transposed convolution: ONE
    window copy of the padded output gradient and ONE matmul — no scattered
    col2im adds.  Mathematically identical to the col2im route (the dot
    products re-associate the same terms)."""
    n, k, oh, ow = grad_out.shape
    c, r = weight.shape[1], weight.shape[2]
    wflip = np.ascontiguousarray(
        weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    ).reshape(c, k * r * r)
    gp = _pad2d(grad_out, r - 1 - pad)
    cols = _train_cols(gp, r, 1, h, w)
    return np.matmul(wflip, cols).reshape(n, c, h, w)


def _depthwise_grad_x_s1(
    grad_out: np.ndarray, weight: np.ndarray, pad: int, h: int, w: int
) -> np.ndarray:
    """grad_x of a stride-1 depthwise convolution as a transposed depthwise
    convolution (one window copy + one matmul per channel batch)."""
    n, c, oh, ow = grad_out.shape
    r = weight.shape[1]
    wflip = np.ascontiguousarray(weight[:, ::-1, ::-1]).reshape(1, c, 1, r * r)
    gp = _pad2d(grad_out, r - 1 - pad)
    cols = _train_cols(gp, r, 1, h, w).reshape(n, c, r * r, h * w)
    out = np.empty((n, c, 1, h * w), dtype=grad_out.dtype)
    np.matmul(wflip.astype(grad_out.dtype, copy=False), cols, out=out)
    return out.reshape(n, c, h, w)


def conv2d_backward_fast(
    grad_out: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of :func:`conv2d_forward_fast`: columns are reused from the
    bounded cache or recomputed chunk by chunk — never held at full size —
    and stride-1 grad_x runs as a transposed convolution instead of the
    scattered col2im adds."""
    x, weight, stride, pad, stored = cache
    n, c, h, w = x.shape
    k = weight.shape[0]
    r = weight.shape[2]
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    g = grad_out.reshape(n, k, oh * ow)
    if r == 1 and pad == 0:
        src = x if stride == 1 else x[:, :, ::stride, ::stride]
        xc = np.ascontiguousarray(src).reshape(n, c, oh * ow)
        grad_w = _grad_w_conv(g, xc).reshape(weight.shape)
        gx = np.matmul(weight.reshape(k, c).T, g)
        if stride == 1:
            return gx.reshape(n, c, h, w), grad_w
        grad_x = np.zeros_like(x)
        grad_x[:, :, ::stride, ::stride] = gx.reshape(n, c, oh, ow)
        return grad_x, grad_w
    transposed = stride == 1 and pad < r  # _pad2d needs r - 1 - pad >= 0
    if stored is not None:
        grad_w = _grad_w_conv(g, stored).reshape(weight.shape)
        if transposed:
            return _conv_grad_x_s1(grad_out, weight, pad, h, w), grad_w
        grad_cols = np.matmul(weight.reshape(k, -1).T, g)
        return col2im(grad_cols, x.shape, r, stride, pad), grad_w
    w2t = weight.reshape(k, -1).T
    grad_x = np.empty_like(x)
    grad_w = np.zeros((k, c * r * r), dtype=grad_out.dtype)
    step = _infer_row_chunk(c, r, oh, ow)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        cols = _train_cols(_pad2d(x[lo:hi], pad), r, stride, oh, ow)
        gc = g[lo:hi]
        grad_w += _grad_w_conv(gc, cols)
        if transposed:
            grad_x[lo:hi] = _conv_grad_x_s1(
                grad_out[lo:hi], weight, pad, h, w
            )
        else:
            grad_cols = np.matmul(w2t, gc)
            grad_x[lo:hi] = col2im(grad_cols, (hi - lo, c, h, w), r, stride, pad)
    return grad_x, grad_w.reshape(weight.shape).astype(weight.dtype, copy=False)


def depthwise_conv2d_forward_fast(
    x: np.ndarray, weight: np.ndarray, stride: int, pad: int
) -> tuple[np.ndarray, tuple]:
    """Compact-cache depthwise forward (values match
    :func:`depthwise_conv2d_forward` to float round-off)."""
    n, c, h, w = x.shape
    cw, r, s = weight.shape
    if cw != c or r != s:
        raise ValueError(f"weight shape {weight.shape} incompatible with input {x.shape}")
    oh = conv_out_size(h, r, stride, pad)
    ow = conv_out_size(w, r, stride, pad)
    w3 = np.ascontiguousarray(weight.reshape(1, c, 1, r * r)).astype(x.dtype, copy=False)
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    total = n * c * r * r * oh * ow
    if total <= _TRAIN_CACHE_ELEMS:
        cols = _train_cols(_pad2d(x, pad), r, stride, oh, ow)
        cols4 = cols.reshape(n, c, r * r, oh * ow)
        np.matmul(w3, cols4, out=out.reshape(n, c, 1, oh * ow))
        stored = cols if cols.dtype == np.float32 else cols.astype(np.float32)
        return out, (x, weight, stride, pad, stored)
    step = _infer_row_chunk(c, r, oh, ow)
    for lo in range(0, n, step):
        cols = _train_cols(_pad2d(x[lo : lo + step], pad), r, stride, oh, ow)
        rows = cols.shape[0]
        np.matmul(
            w3,
            cols.reshape(rows, c, r * r, oh * ow),
            out=out[lo : lo + step].reshape(rows, c, 1, oh * ow),
        )
    return out, (x, weight, stride, pad, None)


def depthwise_conv2d_backward_fast(
    grad_out: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of :func:`depthwise_conv2d_forward_fast`."""
    x, weight, stride, pad, stored = cache
    n, c, h, w = x.shape
    r = weight.shape[1]
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    g = grad_out.reshape(n, c, oh * ow)
    wcol = weight.reshape(1, c, r * r, 1)
    transposed = stride == 1 and pad < r  # _pad2d needs r - 1 - pad >= 0
    if stored is not None:
        cols4 = stored.reshape(n, c, r * r, oh * ow)
        grad_w = _grad_w_depthwise(g, cols4).reshape(weight.shape)
        if transposed:
            return _depthwise_grad_x_s1(grad_out, weight, pad, h, w), grad_w
        grad_cols = g[:, :, None, :] * wcol
        grad_x = col2im(grad_cols.reshape(n, c * r * r, -1), x.shape, r, stride, pad)
        return grad_x, grad_w
    grad_x = np.empty_like(x)
    grad_w = np.zeros((c, r * r), dtype=grad_out.dtype)
    step = _infer_row_chunk(c, r, oh, ow)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        cols = _train_cols(_pad2d(x[lo:hi], pad), r, stride, oh, ow)
        cols4 = cols.reshape(hi - lo, c, r * r, oh * ow)
        gc = g[lo:hi]
        grad_w += _grad_w_depthwise(gc, cols4)
        if transposed:
            grad_x[lo:hi] = _depthwise_grad_x_s1(
                grad_out[lo:hi], weight, pad, h, w
            )
        else:
            grad_cols = gc[:, :, None, :] * wcol
            grad_x[lo:hi] = col2im(
                grad_cols.reshape(hi - lo, c * r * r, -1),
                (hi - lo, c, h, w),
                r,
                stride,
                pad,
            )
    return grad_x, grad_w.reshape(weight.shape).astype(weight.dtype, copy=False)


def maxpool2d_forward_fast(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> tuple[np.ndarray, tuple]:
    """Compact-cache max pooling: separable forward (bitwise-identical to
    :func:`maxpool2d_forward`) plus a boolean first-max mask for backward —
    no float column tensor, no argmax traversal.

    The mask marks, per window, the first cell (in the standard kernel's
    ``(ki, kj)`` scan order) that attains the window maximum, so gradient
    routing is exactly the argmax routing of the standard kernel, ties
    included.
    """
    out = maxpool2d_infer(x, kernel, stride, pad)
    n, c, h, w = x.shape
    oh, ow = out.shape[2], out.shape[3]
    mask = np.empty((n, c, kernel * kernel, oh, ow), dtype=bool)
    step = _pool_row_chunk(c, oh, ow)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        xp = _pad2d(x[lo:hi], pad, value=-np.inf)
        target = out[lo:hi]
        taken = np.zeros((hi - lo, c, oh, ow), dtype=bool)
        idx = 0
        for ki in range(kernel):
            h_end = ki + stride * oh
            for kj in range(kernel):
                w_end = kj + stride * ow
                # Elementwise compare on the strided window view — no
                # column copies anywhere in the mask build.
                hit = xp[:, :, ki:h_end:stride, kj:w_end:stride] == target
                hit &= ~taken
                mask[lo:hi, :, idx] = hit
                taken |= hit
                idx += 1
    cache = (mask, x.shape, kernel, stride, pad)
    return out, cache


def _tap_span(k_off: int, stride: int, pad: int, size: int, out_size: int):
    """Valid output-index range [t0, t1) of one pooling tap: positions whose
    padded coordinate ``k_off + stride*t`` lands inside the unpadded image.
    Returns ``(t0, t1, lo)`` with ``lo`` the unpadded start coordinate."""
    t0 = max(0, -(-(pad - k_off) // stride))  # ceil division
    t1 = min(out_size, (pad + size - 1 - k_off) // stride + 1)
    return t0, t1, k_off + stride * t0 - pad


def maxpool2d_backward_fast(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    """Backward of :func:`maxpool2d_forward_fast`: K*K shifted masked adds,
    clipped to the unpadded image (same sums, in the same order, as the
    standard kernel's put_along_axis + col2im — taps landing in the padding
    are discarded there too).  The result is contiguous and no padded
    buffer is ever allocated."""
    mask, x_shape, kernel, stride, pad = cache
    n, c, h, w = x_shape
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    gx = np.zeros((n, c, h, w), dtype=grad_out.dtype)
    scratch = np.empty((n, c, oh, ow), dtype=grad_out.dtype)
    idx = 0
    for ki in range(kernel):
        i0, i1, ilo = _tap_span(ki, stride, pad, h, oh)
        for kj in range(kernel):
            j0, j1, jlo = _tap_span(kj, stride, pad, w, ow)
            np.multiply(grad_out, mask[:, :, idx], out=scratch)
            gx[
                :,
                :,
                ilo : ilo + stride * (i1 - i0) : stride,
                jlo : jlo + stride * (j1 - j0) : stride,
            ] += scratch[:, :, i0:i1, j0:j1]
            idx += 1
    return gx


def avgpool2d_forward_fast(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> tuple[np.ndarray, tuple]:
    """Compact-cache average pooling: separable forward (matches
    :func:`avgpool2d_forward` to float round-off), geometry-only cache."""
    out = avgpool2d_infer(x, kernel, stride, pad)
    return out, (x.shape, kernel, stride, pad)


def avgpool2d_backward_fast(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    """Backward of :func:`avgpool2d_forward_fast`: K*K shifted adds of the
    uniformly spread gradient, clipped to the unpadded image — no broadcast
    column tensor, no padded buffer (bitwise-identical to
    :func:`avgpool2d_backward`, whose padding-region adds are discarded)."""
    x_shape, kernel, stride, pad = cache
    n, c, h, w = x_shape
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    g = grad_out / (kernel * kernel)
    gx = np.zeros((n, c, h, w), dtype=grad_out.dtype)
    for ki in range(kernel):
        i0, i1, ilo = _tap_span(ki, stride, pad, h, oh)
        for kj in range(kernel):
            j0, j1, jlo = _tap_span(kj, stride, pad, w, ow)
            gx[
                :,
                :,
                ilo : ilo + stride * (i1 - i0) : stride,
                jlo : jlo + stride * (j1 - j0) : stride,
            ] += g[:, :, i0:i1, j0:j1]
    return gx


def batchnorm_forward_fast(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float,
    eps: float,
    training: bool,
) -> tuple[np.ndarray, tuple | None]:
    """Lean training-mode batch norm: the centred tensor is normalised in
    place (it becomes the cached ``xhat``) and the variance reduces through
    one einsum — three fewer full-size temporaries than
    :func:`batchnorm_forward`, same values to float round-off, same cache
    layout.  Eval mode delegates to the standard kernel."""
    if not training:
        return batchnorm_forward(
            x, gamma, beta, running_mean, running_var, momentum, eps, False
        )
    mean = x.mean(axis=(0, 2, 3))
    xhat = x - mean.astype(x.dtype)[None, :, None, None]
    # One scratch buffer serves the squared deviations AND the output; the
    # reductions go through numpy's pairwise-summing mean (an einsum would
    # accumulate sequentially and lose ~1e-3 of the float32 variance).
    scratch = np.square(xhat)
    var = scratch.mean(axis=(0, 2, 3))
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean
    running_var *= 1.0 - momentum
    running_var += momentum * var
    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat *= inv_std[None, :, None, None]
    np.multiply(gamma.astype(x.dtype)[None, :, None, None], xhat, out=scratch)
    scratch += beta.astype(x.dtype)[None, :, None, None]
    return scratch, (xhat, inv_std, gamma)


def batchnorm_backward_fast(
    grad_out: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of training-mode batch norm with ONE reused scratch buffer
    and in-place accumulation (``gxhat`` becomes grad_x) — three fewer
    full-size temporaries than :func:`batchnorm_backward`.  All reductions
    stay on numpy's pairwise-summing paths, so values match the standard
    kernel to float round-off; works on either forward's cache."""
    xhat, inv_std, gamma = cache
    n, c, h, w = grad_out.shape
    m = n * h * w
    dtype = grad_out.dtype
    scratch = grad_out * xhat
    grad_gamma = scratch.sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    gxhat = grad_out * gamma.astype(dtype)[None, :, None, None]
    sum_g = gxhat.sum(axis=(0, 2, 3))
    np.multiply(gxhat, xhat, out=scratch)
    sum_gx = scratch.sum(axis=(0, 2, 3))
    gxhat -= (sum_g / m).astype(dtype)[None, :, None, None]
    np.multiply(xhat, (sum_gx / m).astype(dtype)[None, :, None, None], out=scratch)
    gxhat -= scratch
    gxhat *= inv_std[None, :, None, None]
    return gxhat, grad_gamma.astype(gamma.dtype, copy=False), grad_beta


# ---------------------------------------------------------------------------
# Pointwise / dense
# ---------------------------------------------------------------------------


def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = x > 0
    return x * mask, mask


def relu_backward(grad_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return grad_out * mask


def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Affine map ``x @ weight.T + bias`` with ``weight`` shape ``(out, in)``."""
    out = x @ weight.T + bias
    return out, (x, weight)


def linear_backward(
    grad_out: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x, weight = cache
    grad_x = grad_out @ weight
    grad_w = grad_out.T @ x
    grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float,
    eps: float,
    training: bool,
) -> tuple[np.ndarray, tuple | None]:
    """Batch normalisation over the channel axis of an NCHW tensor.

    In training mode the running statistics are updated in place and a cache
    for the backward pass is returned; in eval mode the cache is ``None``.
    Eval-mode layers run this; the training branch is the reference for
    :func:`batchnorm_forward_fast`.  Segmented (per-sub-batch) statistics
    are :func:`batchnorm_infer`'s job.
    """
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean, var = running_mean, running_var
    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat = (x - mean.astype(x.dtype)[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma.astype(x.dtype)[None, :, None, None] * xhat
    out += beta.astype(x.dtype)[None, :, None, None]
    cache = (xhat, inv_std, gamma) if training else None
    return out, cache


def batchnorm_backward(
    grad_out: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of training-mode batch norm."""
    xhat, inv_std, gamma = cache
    n, c, h, w = grad_out.shape
    m = n * h * w
    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    gxhat = grad_out * gamma.astype(grad_out.dtype)[None, :, None, None]
    sum_g = gxhat.sum(axis=(0, 2, 3), keepdims=True)
    sum_gx = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    grad_x = (gxhat - sum_g / m - xhat * sum_gx / m) * inv_std[None, :, None, None]
    return grad_x, grad_gamma, grad_beta


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and gradient w.r.t. logits.

    ``labels`` are integer class indices of shape ``(N,)``.
    """
    n = logits.shape[0]
    probs = softmax(np.asarray(logits, dtype=np.float64), axis=1)
    eps = 1e-12
    loss = float(-np.log(probs[np.arange(n), labels] + eps).mean())
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(logits.dtype)
