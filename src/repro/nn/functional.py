"""Numerical kernels for the numpy deep-learning substrate.

Every function here is a pure forward or backward computation on
``numpy.ndarray`` inputs.  Array layout is NCHW throughout; compute dtype
is float32.  The convolution and pooling kernels come in two families:

* **compact-cache** (``*_fast``): the training kernels every layer runs,
  with O(input) backward state instead of the K*K-fold column tensor.
  Strided dense-convolution backwards scatter their column gradients
  through ``col2im``.
* **inference** (``*_infer``): forward-only, no backward state; eval-mode
  layers and the batched HyperNet forward run them.

The training and inference kernels share their forward arithmetic, so a
training-mode layer and its forward-only counterpart give bitwise-equal
outputs: the batched HyperNet forward reproduces the scalar oracle's
logits exactly, not to a tolerance.  Both families compute per-sample
(per-segment, for batch norm) maths whose result never depends on how
many rows a call stacks or where its buffers sit in memory.

The test oracle of both families is a float64 direct-sum reference kept
with the tests (``tests/kernel_reference.py``): every output element is a
sum, max or mean over one sliding window of the padded input, so it
shares no lowering with the kernels here.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

DTYPE = np.float32

__all__ = [
    "DTYPE",
    "col2im",
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


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Scatter-add ``(N, C*K*K, OH*OW)`` columns back to image layout: the
    adjoint of gathering every K*K window of the padded input into one
    column (row ``(c*K + ki)*K + kj``, column ``i*OW + j`` reads padded
    cell ``(c, i*S + ki, j*S + kj)``).  Cells in the padding are dropped."""
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
# Forward-only inference kernels
# ---------------------------------------------------------------------------
#
# Inference-only consumers — the batched HyperNet evaluation path — keep no
# backward state and use the cheapest algorithms: separable shifted
# pooling, per-tap depthwise convolution on a channel-major padded buffer
# (no column tensor), 1x1 convolution as a plain matmul (its window
# columns are the input itself).  The training forwards run these same
# kernels (or, for dense convolution and batch norm, the same per-sample
# op sequence), so inference and training outputs are bitwise equal.


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
#: convolutions and pools: the K*K sliding-window copy of a whole stacked
#: population can exceed the cache many times over, where the strided
#: gather slows down ~4x — chunking the batch axis keeps each copy
#: L2-sized.  400k (1.6 MB, against a 2 MB L2) ran the dense column copy 1.2x
#: and the pools 1.3x faster than 1.5M on demo-shape calls.  Per-sample
#: maths, so chunking never changes results.
_INFER_CHUNK_ELEMS = 400_000


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
    """Forward-only convolution; 1x1 kernels build no columns at all and
    larger kernels build the ``(C*K*K, OH*OW)`` column tensor with one
    strided-view copy, chunked along the batch axis so the copy stays
    cache-sized.  ``relu=True`` applies ``maximum(x, 0)`` to the input as
    part of the padding pass (the ReLU→conv fusion); ``x`` may be a list
    of row blocks (:data:`Rows`) gathered in that same pass."""
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


#: Polyphase-grid budget (elements) per row chunk of the depthwise
#: kernels: each chunk's grid, accumulator and product scratch stay
#: L2-sized across all K*K taps.  On 16x16/8x8/4x4 maps with 8-32
#: channels, 128k beat 64k, 192k and 256k summed over 96- and 1536-row
#: calls (1536-row calls ran up to 2.5x faster than one unchunked sweep).
#: Elementwise maths, so chunking never changes results.
_DW_CHUNK_ELEMS = 131_072


def _rows_slice(x, lo: int, hi: int):
    """Rows ``[lo, hi)`` of an array or of a list of row blocks
    (:data:`Rows`; the result is then a list too)."""
    if not isinstance(x, list):
        return x[lo:hi]
    out, start = [], 0
    for part in x:
        end = start + part.shape[0]
        if max(lo, start) < min(hi, end):
            out.append(part[max(lo, start) - start : min(hi, end) - start])
        start = end
    return out


class _TapGrid(NamedTuple):
    """Geometry of the per-tap depthwise kernels' flat polyphase grid.

    Component ``(p, q)`` of a stride-``S`` sweep holds padded-input cell
    ``(p + S*r, q + S*t)`` at grid row ``r``, column ``t``.  Image ``n``'s
    row ``r`` starts at flat ``(n*pitch_h + r) * pitch_w``: consecutive
    images (and consecutive grid rows) overlap by the all-zero padding
    rows (columns) every component has at both ends, so no padding is
    stored twice.  Output ``(n, i, j)`` sits at the same flat position
    ``(n*pitch_h + i)*pitch_w + j`` on the accumulator, and tap ``(ki,
    kj)`` reads component ``(ki % S, kj % S)`` at a constant offset from
    it — one contiguous slice per tap."""

    n: int
    oh: int
    ow: int
    pitch_h: int
    pitch_w: int
    length: int  # flat grid length per channel
    span: int  # flat length every tap slice covers (last output + 1)
    rows: list  # per row phase p: (r0, r1, i0) as from _tap_span
    cols: list  # per column phase q: (c0, c1, j0)
    taps: list  # (ki, kj, component, offset) in ascending (ki, kj) order


def _tap_grid(n: int, h: int, w: int, kernel: int, stride: int, pad: int) -> _TapGrid:
    """The :class:`_TapGrid` of ``n`` ``(h, w)`` images under one sweep."""
    oh = conv_out_size(h, kernel, stride, pad)
    ow = conv_out_size(w, kernel, stride, pad)
    reach = (kernel - 1) // stride
    hq, wq = oh + reach, ow + reach
    rows = [_tap_span(p, stride, pad, h, hq) for p in range(stride)]
    cols = [_tap_span(q, stride, pad, w, wq) for q in range(stride)]
    pitch_h = max(oh, hq - min(r[0] for r in rows), *(r[1] for r in rows))
    pitch_w = max(ow, wq - min(c[0] for c in cols), *(c[1] for c in cols))
    taps = [
        (ki, kj, (ki % stride) * stride + kj % stride,
         (ki // stride) * pitch_w + kj // stride)
        for ki in range(kernel)
        for kj in range(kernel)
    ]
    return _TapGrid(
        n,
        oh,
        ow,
        pitch_h,
        pitch_w,
        ((n - 1) * pitch_h + hq) * pitch_w + wq - pitch_w,
        ((n - 1) * pitch_h + oh - 1) * pitch_w + ow,
        rows,
        cols,
        taps,
    )


def _grid_images(flat: np.ndarray, grid: _TapGrid) -> np.ndarray:
    """``(..., N, pitch_h, pitch_w)`` view of a flat grid's image blocks."""
    size = grid.n * grid.pitch_h * grid.pitch_w
    return flat[..., :size].reshape(*flat.shape[:-1], grid.n, grid.pitch_h, grid.pitch_w)


def _phase_slices(grid: _TapGrid, stride: int):
    """``(component, grid rows, grid cols, input rows, input cols)`` of
    every non-empty polyphase component: where each input cell lives."""
    for p, (r0, r1, i0) in enumerate(grid.rows):
        for q, (c0, c1, j0) in enumerate(grid.cols):
            if r1 > r0 and c1 > c0:
                yield (
                    p * stride + q,
                    slice(r0, r1),
                    slice(c0, c1),
                    slice(i0, i0 + stride * (r1 - r0), stride),
                    slice(j0, j0 + stride * (c1 - c0), stride),
                )


def _polyphase(x, grid: _TapGrid, stride: int, relu: bool = False) -> np.ndarray:
    """The ``(S*S, C, length)`` zero-padded channel-major grid of ``x``
    (see :class:`_TapGrid`).  ``relu=True`` fuses ``maximum(x, 0)`` into
    the copy; ``x`` may be a list of row blocks (:data:`Rows`)."""
    parts = x if isinstance(x, list) else [x]
    c = _rows_shape(x)[1]
    buf = np.zeros((stride * stride, c, grid.length), dtype=parts[0].dtype)
    images = _grid_images(buf, grid)
    for comp, gr, gc, rows, cols in _phase_slices(grid, stride):
        dst = images[comp, :, :, gr, gc]
        lo = 0
        for part in parts:
            hi = lo + part.shape[0]
            src = part[:, :, rows, cols].transpose(1, 0, 2, 3)
            if relu:
                np.maximum(src, 0.0, out=dst[:, lo:hi])
            else:
                dst[:, lo:hi] = src
            lo = hi
    return buf


def _depthwise_taps(buf: np.ndarray, weight: np.ndarray, grid: _TapGrid) -> np.ndarray:
    """Depthwise convolution of one :func:`_polyphase` grid: one
    multiply-add per tap over a contiguous ``(C, span)`` slice, taps summed
    in ascending ``(ki, kj)`` order.  Every output element is the same
    sequence of elementwise float ops whatever the batch, its row blocks,
    or the buffer's alignment.  Returns an ``(N, C, OH, OW)`` view of the
    accumulator."""
    c, span = buf.shape[1], grid.span
    w = weight.astype(buf.dtype, copy=False)
    acc = np.empty((c, grid.length), dtype=buf.dtype)
    head = acc[:, :span]
    tmp = np.empty((c, span), dtype=buf.dtype)
    for i, (ki, kj, comp, off) in enumerate(grid.taps):
        src = buf[comp, :, off : off + span]
        if i == 0:
            np.multiply(src, w[:, ki, kj, None], out=head)
        else:
            np.multiply(src, w[:, ki, kj, None], out=tmp)
            head += tmp
    return _grid_images(acc, grid)[:, :, : grid.oh, : grid.ow].transpose(1, 0, 2, 3)


def _depthwise_chunks(x, weight: np.ndarray, stride: int, pad: int):
    """``(lo, hi, grid)`` of each row chunk of a depthwise convolution of
    ``x`` (:data:`_DW_CHUNK_ELEMS` grid elements, rows split evenly)."""
    n, c, h, w = _rows_shape(x)
    cw, r, s = weight.shape
    if cw != c or r != s:
        raise ValueError(f"weight shape {weight.shape} incompatible with input (C={c})")
    probe = _tap_grid(1, h, w, r, stride, pad)
    per_row = stride * stride * c * probe.pitch_h * probe.pitch_w
    step = -(-n // max(1, -(-n * per_row // _DW_CHUNK_ELEMS)))
    return [
        (lo, min(lo + step, n), _tap_grid(min(lo + step, n) - lo, h, w, r, stride, pad))
        for lo in range(0, n, step)
    ]


def depthwise_conv2d_infer(
    x, weight: np.ndarray, stride: int, pad: int, relu: bool = False
) -> np.ndarray:
    """The one depthwise forward — inference and training both run it, so
    their outputs are bitwise equal: per row chunk, one :func:`_polyphase`
    grid swept by :func:`_depthwise_taps`.  ``relu=True`` fuses
    ``maximum(x, 0)`` into the padding pass; ``x`` may be a list of row
    blocks (:data:`Rows`) gathered in that same pass."""
    chunks = _depthwise_chunks(x, weight, stride, pad)
    n, c = _rows_shape(x)[:2]
    dtype = x[0].dtype if isinstance(x, list) else x.dtype
    out = np.empty((n, c, chunks[0][2].oh, chunks[0][2].ow), dtype=dtype)
    for lo, hi, grid in chunks:
        buf = _polyphase(_rows_slice(x, lo, hi), grid, stride, relu=relu)
        out[lo:hi] = _depthwise_taps(buf, weight, grid)
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
    by a 1*k row sum — 2k shifted passes instead of k*k.  The training
    forward runs this kernel too; the re-associated window sum matches the
    direct window mean to float round-off.  Chunked along the batch axis
    to keep the passes cache-sized."""
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


def _plane(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Per-channel vector ``v`` as a contiguous ``(1, C, H, W)`` plane in
    ``like``'s dtype.  Broadcast over the batch axis it runs one
    C*H*W-long inner loop per sample instead of an H*W-long loop per
    (sample, channel): the same elementwise results, ~1.2x faster batch
    norm on 16x16 to 4x4 maps."""
    _, c, h, w = like.shape
    return np.repeat(v.astype(like.dtype), h * w).reshape(1, c, h, w)


def batchnorm_infer(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
    segments: int = 1,
) -> np.ndarray:
    """Forward-only training-mode batch norm with per-segment statistics.

    Each of the ``segments`` contiguous sub-batches runs
    :func:`batchnorm_forward_fast`'s op sequence on its own rows (mean,
    subtract, ``square().mean()``, ``*= inv_std``, ``*= gamma``,
    ``+= beta``), so every segment's output is bitwise equal to a
    training-mode forward of that segment alone.  Nothing is cached and
    no running statistics are written: inference never reads them.
    """
    n, c, h, w = x.shape
    if n % segments:
        raise ValueError(f"batch of {n} rows does not split into {segments} segments")
    rows = n // segments
    xs = x.reshape(segments, rows, c, h, w)
    out = np.empty_like(xs)
    scratch = np.empty_like(xs[0])
    gamma32 = _plane(gamma, x)
    beta32 = _plane(beta, x)
    for seg in range(segments):
        dst = out[seg]
        mean = xs[seg].mean(axis=(0, 2, 3))
        np.subtract(xs[seg], _plane(mean, x), out=dst)
        np.square(dst, out=scratch)
        var = scratch.mean(axis=(0, 2, 3))
        dst *= _plane(1.0 / np.sqrt(var + eps), x)
        dst *= gamma32
        dst += beta32
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
# The `*_fast` kernels keep only O(input) state from forward to backward,
# never a whole batch's K*K-times-the-input column tensor, and adopt the
# inference tricks where a backward pass still exists:
#
# * pointwise (1x1) convolution never builds columns in either direction —
#   forward is one matmul on the (reshaped) input, backward is one matmul
#   plus an einsum, and grad_x for strided 1x1 is a direct scatter;
# * K>1 dense convolutions build columns with the one-copy sliding-window
#   view, chunked along the batch axis to stay cache-sized; the columns are
#   cached for backward only while they fit `_TRAIN_CACHE_ELEMS` (stored
#   float32), otherwise backward recomputes them chunk by chunk — the
#   per-layer cache is bounded instead of growing K*K-fold with the input;
# * depthwise convolution runs the inference per-tap kernel and caches a
#   reference to its input; backward rebuilds the grid and works per tap
#   on the same slices;
# * pooling caches a boolean first-max mask (max) or nothing (average) and
#   runs backward as K*K shifted masked adds — no float column tensor, no
#   argmax/put_along_axis traversals.
#
# Numerics: every training forward is bitwise equal to its inference
# counterpart.  The test oracle is the float64 direct-sum reference
# (`tests/kernel_reference.py`): each output a sum, max or mean over one
# sliding window, each gradient scattered back window by window.  Max-pool
# forwards and first-max routing match it exactly; every other forward and
# gradient matches to float round-off (GEMMs, per-tap sums and separable
# pools re-associate the window sums, and the float32 column cache demotes
# grad_w's inputs).  `tests/test_nn_fast_kernels.py` pins that parity at
# relative 1e-6.

#: Column-cache budget (elements) for the fast training convolutions: a
#: forward whose full column tensor fits is cached (float32) for backward
#: reuse; anything larger is recomputed chunk by chunk in backward.  Keeps
#: every layer's backward state under ~16 MB at any scale.
_TRAIN_CACHE_ELEMS = 4_000_000


def _train_cols(xp: np.ndarray, kernel: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Contiguous ``(N, C*K*K, OH*OW)`` columns via ONE sliding-window copy,
    in :func:`col2im`'s layout."""
    n, c = xp.shape[:2]
    win = _window_view(xp, kernel, stride, oh, ow)
    return np.ascontiguousarray(win).reshape(n, c * kernel * kernel, oh * ow)


def conv2d_forward_fast(
    x: np.ndarray, weight: np.ndarray, stride: int, pad: int
) -> tuple[np.ndarray, tuple]:
    """Compact-cache convolution forward: bitwise :func:`conv2d_infer`'s
    output (the same columns and per-sample matmul).

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
    """Training depthwise forward: :func:`depthwise_conv2d_infer` plus a
    cached reference to ``x`` (backward rebuilds the grids from it)."""
    return depthwise_conv2d_infer(x, weight, stride, pad), (x, weight, stride, pad)


def depthwise_conv2d_backward_fast(
    grad_out: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of :func:`depthwise_conv2d_forward_fast`, per tap on the
    forward's slices: per row chunk, the input grid is rebuilt, the output
    gradient is laid on a zero-filled grid, ``grad_w[:, ki, kj]``
    accumulates the row sums of its product with the tap's input slice,
    and the tap's input-gradient slice accumulates its product with the
    tap weight.  No columns, no col2im."""
    x, weight, stride, pad = cache
    c, r = weight.shape[0], weight.shape[1]
    dtype = grad_out.dtype
    wt = weight.astype(dtype, copy=False)
    # Input cells no tap reads (a strided sweep's unused border) keep a
    # zero gradient; every other cell lives in exactly one component.
    grad_x = np.zeros(x.shape, dtype=dtype)
    grad_w = np.zeros((c, r, r), dtype=dtype)
    for lo, hi, grid in _depthwise_chunks(x, weight, stride, pad):
        buf = _polyphase(x[lo:hi], grid, stride)
        span = grid.span
        wide = np.zeros((c, grid.length), dtype=dtype)
        _grid_images(wide, grid)[:, :, : grid.oh, : grid.ow] = grad_out[
            lo:hi
        ].transpose(1, 0, 2, 3)
        g = wide[:, :span]
        gbuf = np.zeros_like(buf, dtype=dtype)
        tmp = np.empty((c, span), dtype=dtype)
        for ki, kj, comp, off in grid.taps:
            np.multiply(g, buf[comp, :, off : off + span], out=tmp)
            grad_w[:, ki, kj] += tmp.sum(axis=1)
            np.multiply(g, wt[:, ki, kj, None], out=tmp)
            gbuf[comp, :, off : off + span] += tmp
        images = _grid_images(gbuf, grid)
        for comp, gr, gc, rows, cols in _phase_slices(grid, stride):
            grad_x[lo:hi, :, rows, cols] = images[comp, :, :, gr, gc].transpose(1, 0, 2, 3)
    return grad_x, grad_w.astype(weight.dtype, copy=False)


def maxpool2d_forward_fast(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> tuple[np.ndarray, tuple]:
    """Compact-cache max pooling: the separable forward of
    :func:`maxpool2d_infer` plus a boolean first-max mask for backward —
    no float column tensor, no argmax traversal.

    The mask marks, per window, the first cell in row-major ``(ki, kj)``
    scan order that attains the window maximum: the cell ``np.argmax``
    over the flattened window picks, ties included.
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
    """Backward of :func:`maxpool2d_forward_fast`: K*K shifted masked adds
    in ascending ``(ki, kj)`` order, clipped to the unpadded image (taps
    landing in the padding are discarded).  The result is contiguous and
    no padded buffer is ever allocated."""
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
    """Compact-cache average pooling: the separable forward of
    :func:`avgpool2d_infer` and a geometry-only cache."""
    out = avgpool2d_infer(x, kernel, stride, pad)
    return out, (x.shape, kernel, stride, pad)


def avgpool2d_backward_fast(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    """Backward of :func:`avgpool2d_forward_fast`: K*K shifted adds of the
    uniformly spread gradient, clipped to the unpadded image (taps landing
    in the padding are discarded) — no broadcast column tensor, no padded
    buffer."""
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
) -> tuple[np.ndarray, tuple]:
    """Training-mode batch norm with batch statistics: the centred tensor
    is normalised in place (it becomes the cached ``xhat``) and the
    running statistics move by ``momentum``.  :func:`batchnorm_infer` runs
    this op sequence per segment, bitwise; eval mode is
    :func:`batchnorm_forward`."""
    mean = x.mean(axis=(0, 2, 3))
    xhat = x - _plane(mean, x)
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
    xhat *= _plane(inv_std, x)
    np.multiply(_plane(gamma, x), xhat, out=scratch)
    scratch += _plane(beta, x)
    return scratch, (xhat, inv_std, gamma)


def batchnorm_backward_fast(
    grad_out: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`batchnorm_forward_fast` with ONE reused scratch
    buffer and in-place accumulation (``gxhat`` becomes grad_x).  All
    reductions stay on numpy's pairwise-summing paths."""
    xhat, inv_std, gamma = cache
    n, c, h, w = grad_out.shape
    m = n * h * w
    dtype = grad_out.dtype
    scratch = grad_out * xhat
    grad_gamma = scratch.sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    gxhat = grad_out * _plane(gamma, grad_out)
    sum_g = gxhat.sum(axis=(0, 2, 3))
    np.multiply(gxhat, xhat, out=scratch)
    sum_gx = scratch.sum(axis=(0, 2, 3))
    gxhat -= _plane(sum_g / m, grad_out)
    np.multiply(xhat, _plane(sum_gx / m, grad_out), out=scratch)
    gxhat -= scratch
    gxhat *= _plane(inv_std, grad_out)
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
    eps: float,
) -> np.ndarray:
    """Eval-mode batch normalisation over the channel axis of an NCHW
    tensor, with the running statistics; nothing is updated or cached.
    Training mode is :func:`batchnorm_forward_fast`, segmented
    (per-sub-batch) statistics :func:`batchnorm_infer`."""
    inv_std = (1.0 / np.sqrt(running_var + eps)).astype(x.dtype)
    xhat = (x - running_mean.astype(x.dtype)[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma.astype(x.dtype)[None, :, None, None] * xhat
    out += beta.astype(x.dtype)[None, :, None, None]
    return out


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
