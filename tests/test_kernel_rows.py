"""Row independence of the production kernels: the result for one sample
never depends on which other samples share its call.

Hypothesis draws a stacked float32 batch and an arbitrary partition of its
rows.  Every per-sample ``*_infer`` forward, the eval-mode batch norm
(``batchnorm_forward``), the two convolutional training forwards and the
convolutional training backwards' ``grad_x`` must give a
whole-batch result ``np.array_equal`` to the concatenation of the per-part
results.  Kernel sizes 1/3/5 and strides 1/2 are drawn, and batches of up
to 160 rows of 16 channels on 16x16 maps cross every row-chunk budget
(``_INFER_CHUNK_ELEMS``, ``_DW_CHUNK_ELEMS``, the pools' chunk and the
``_TRAIN_CACHE_ELEMS`` column cache), so chunk boundaries fall inside
and between parts.  Whether a GEMM's rows are independent depends on how
the BLAS library splits it, so CI runs this file under one BLAS thread and
under default BLAS threading.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


class Case(NamedTuple):
    n: int
    channels: int
    size: int
    kernel: int
    stride: int
    cuts: tuple
    seed: int

    @property
    def pad(self) -> int:
        return F.pad_same(self.kernel)

    def parts(self):
        bounds = (0, *self.cuts, self.n)
        return list(zip(bounds[:-1], bounds[1:]))

    def arrays(self):
        """Float32 input, dense and depthwise weights of this case."""
        rng = np.random.default_rng(self.seed)
        c, k = self.channels, self.kernel
        x = rng.normal(size=(self.n, c, self.size, self.size)).astype(np.float32)
        dense = rng.normal(size=(c, c, k, k)).astype(np.float32)
        depthwise = rng.normal(size=(c, k, k)).astype(np.float32)
        return x, dense, depthwise


@st.composite
def cases(draw) -> Case:
    n = draw(st.one_of(st.integers(1, 12), st.integers(30, 96)))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=4)) if n > 1 else set()
    return Case(
        n=n,
        channels=draw(st.sampled_from([3, 16])),
        size=draw(st.sampled_from([7, 16])),
        kernel=draw(st.sampled_from([1, 3, 5])),
        stride=draw(st.sampled_from([1, 2])),
        cuts=tuple(sorted(cuts)),
        seed=draw(st.integers(0, 2**16)),
    )


#: Hand-picked cases on top of the drawn ones, split unevenly: batches
#: whose columns overflow ``_TRAIN_CACHE_ELEMS`` at stride 1 (chunked
#: transposed grad_x) and stride 2 (chunked ``col2im`` scatter), and
#: strided 3x3 and pointwise convolutions over many chunks.
EXAMPLES = [
    Case(96, 16, 16, 5, 1, (5, 40, 41), 0),
    Case(160, 16, 16, 5, 2, (3, 80, 81), 1),
    Case(96, 16, 16, 3, 2, (1, 33), 2),
    Case(96, 16, 16, 1, 2, (48,), 3),
]


def with_examples(test):
    for case in EXAMPLES:
        test = example(case=case)(test)
    return test


def assert_row_independent(case: Case, kernel) -> None:
    """``kernel(rows)`` on the whole batch equals its per-part calls."""
    whole = kernel(0, case.n)
    parts = np.concatenate([kernel(lo, hi) for lo, hi in case.parts()])
    assert whole.dtype == np.float32
    assert np.array_equal(whole, parts)


@with_examples
@given(case=cases())
@settings(deadline=None, max_examples=30)
def test_infer_forwards(case):
    x, dense, depthwise = case.arrays()
    s, p, k = case.stride, case.pad, case.kernel
    c = case.channels
    gamma, beta = np.linspace(0.5, 1.5, c), np.linspace(-0.2, 0.2, c)
    mean, var = np.linspace(-0.1, 0.1, c), np.linspace(0.8, 1.2, c)
    kernels = [
        lambda lo, hi: F.conv2d_infer(x[lo:hi], dense, s, p, relu=True),
        lambda lo, hi: F.depthwise_conv2d_infer(x[lo:hi], depthwise, s, p, relu=True),
        lambda lo, hi: F.maxpool2d_infer(x[lo:hi], k, s, p),
        lambda lo, hi: F.avgpool2d_infer(x[lo:hi], k, s, p),
        lambda lo, hi: F.batchnorm_forward(x[lo:hi], gamma, beta, mean, var, 1e-5),
    ]
    for kernel in kernels:
        assert_row_independent(case, kernel)


@with_examples
@given(case=cases())
@settings(deadline=None, max_examples=30)
def test_training_forwards(case):
    x, dense, depthwise = case.arrays()
    s, p = case.stride, case.pad
    assert_row_independent(
        case, lambda lo, hi: F.conv2d_forward_fast(x[lo:hi], dense, s, p)[0]
    )
    assert_row_independent(
        case, lambda lo, hi: F.depthwise_conv2d_forward_fast(x[lo:hi], depthwise, s, p)[0]
    )


@with_examples
@given(case=cases())
@settings(deadline=None, max_examples=30)
def test_training_backward_grad_x(case):
    """``grad_x`` is per-sample maths on every backward route: stored or
    recomputed columns, transposed or ``col2im`` scatter, per-tap grids."""
    x, dense, depthwise = case.arrays()
    s, p = case.stride, case.pad
    out = F.conv2d_infer(x, dense, s, p)
    g = np.random.default_rng(case.seed + 1).normal(size=out.shape).astype(np.float32)

    def conv_grad_x(lo, hi):
        _, cache = F.conv2d_forward_fast(x[lo:hi], dense, s, p)
        return F.conv2d_backward_fast(g[lo:hi], cache)[0]

    def depthwise_grad_x(lo, hi):
        _, cache = F.depthwise_conv2d_forward_fast(x[lo:hi], depthwise, s, p)
        return F.depthwise_conv2d_backward_fast(g[lo:hi], cache)[0]

    assert_row_independent(case, conv_grad_x)
    assert_row_independent(case, depthwise_grad_x)
