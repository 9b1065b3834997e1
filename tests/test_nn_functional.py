"""Unit tests for the numerical kernels, including numerical-gradient checks.

Forwards are checked against the float64 direct-sum reference of
``tests/kernel_reference.py``.  Gradient checks run in float64 (the
kernels are dtype-generic) so central differences are accurate to ~1e-6.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F

from tests import kernel_reference as ref
from tests.conftest import numerical_gradient
from tests.kernel_reference import REL, rel_err


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float64)


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------


class TestGeometry:
    def test_conv_out_size_stride1_same(self):
        assert F.conv_out_size(16, 3, 1, 1) == 16

    def test_conv_out_size_stride2(self):
        assert F.conv_out_size(16, 3, 2, 1) == 8

    def test_conv_out_size_no_pad(self):
        assert F.conv_out_size(16, 5, 1, 0) == 12

    def test_pad_same_odd_kernels(self):
        assert F.pad_same(1) == 0
        assert F.pad_same(3) == 1
        assert F.pad_same(5) == 2

    @given(
        size=st.integers(4, 32),
        kernel=st.sampled_from([1, 3, 5]),
        stride=st.integers(1, 3),
    )
    def test_out_size_positive(self, size, kernel, stride):
        pad = F.pad_same(kernel)
        assert F.conv_out_size(size, kernel, stride, pad) >= 1


# ---------------------------------------------------------------------------
# Window gather / col2im
# ---------------------------------------------------------------------------


def columns(x, kernel, stride, pad):
    """The reference windows in ``col2im``'s ``(N, C*K*K, OH*OW)`` layout."""
    win = ref.windows(x, kernel, stride, pad)
    n, c, oh, ow = win.shape[:4]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kernel * kernel, oh * ow)


class TestIm2col:
    """The window gather the float64 reference rests on (the test-side
    im2col lowering, ``kernel_reference.windows``), its adjoint
    ``kernel_reference.scatter``, and ``col2im``: the production scatter
    of the strided dense-convolution backward, which must be the exact
    adjoint of that gather."""

    def test_shape(self):
        x = rand((2, 3, 8, 8))
        assert ref.windows(x, 3, 1, 1).shape == (2, 3, 8, 8, 3, 3)
        assert columns(x, 3, 1, 1).shape == (2, 3 * 9, 64)

    def test_identity_kernel1(self):
        x = rand((2, 4, 6, 6))
        assert np.array_equal(ref.windows(x, 1, 1, 0)[..., 0, 0], x)

    def test_known_window(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        win = ref.windows(x, 2, 2, 0)  # (1, 1, 2, 2, 2, 2)
        # First window is the top-left 2x2 block, the last the bottom-right.
        assert win[0, 0, 0, 0].ravel().tolist() == [0.0, 1.0, 4.0, 5.0]
        assert win[0, 0, 1, 1].ravel().tolist() == [10.0, 11.0, 14.0, 15.0]

    def test_pad_value_used(self):
        x = np.ones((1, 1, 2, 2))
        assert np.isneginf(ref.windows(x, 3, 1, 1, pad_value=-np.inf)).any()
        assert np.count_nonzero(ref.windows(x, 3, 1, 1)) == 4 * 4

    def test_col2im_adjoint(self):
        """col2im is the exact adjoint of the window gather:
        <gather(x), c> == <x, col2im(c)>."""
        x = rand((2, 3, 6, 6), seed=1)
        c = rand((2, 27, 36), seed=2)
        lhs = float(np.sum(columns(x, 3, 1, 1) * c))
        rhs = float(np.sum(x * F.col2im(c, x.shape, 3, 1, 1)))
        assert np.isclose(lhs, rhs, rtol=1e-10)

    @given(
        stride=st.integers(1, 2),
        kernel=st.sampled_from([1, 3, 5]),
        size=st.integers(4, 9),
    )
    @settings(deadline=None, max_examples=20)
    def test_col2im_adjoint_property(self, stride, kernel, size):
        pad = F.pad_same(kernel)
        x = rand((1, 2, size, size), seed=3)
        cols = columns(x, kernel, stride, pad)
        c = rand(cols.shape, seed=4)
        lhs = float(np.sum(cols * c))
        rhs = float(np.sum(x * F.col2im(c, x.shape, kernel, stride, pad)))
        assert np.isclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    @given(
        stride=st.integers(1, 2),
        kernel=st.sampled_from([1, 3, 5]),
        height=st.integers(4, 9),
        width=st.integers(4, 9),
    )
    @settings(deadline=None, max_examples=20)
    def test_reference_scatter_is_adjoint(self, stride, kernel, height, width):
        """The reference's own scatter is the adjoint of its gather, so its
        backward references are the exact transposes of its forwards."""
        pad = F.pad_same(kernel)
        x = rand((2, 3, height, width), seed=5)
        win = ref.windows(x, kernel, stride, pad)
        c = rand(win.shape, seed=6)
        lhs = float(np.sum(win * c))
        rhs = float(np.sum(x * ref.scatter(c, x.shape, kernel, stride, pad)))
        assert np.isclose(lhs, rhs, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


class TestConv2d:
    def test_shape_stride1(self):
        x, w = rand((2, 3, 8, 8)), rand((5, 3, 3, 3))
        out, _ = F.conv2d_forward_fast(x, w, 1, 1)
        assert out.shape == (2, 5, 8, 8)

    def test_shape_stride2(self):
        x, w = rand((2, 3, 8, 8)), rand((5, 3, 3, 3))
        out, _ = F.conv2d_forward_fast(x, w, 2, 1)
        assert out.shape == (2, 5, 4, 4)

    def test_1x1_is_channel_mix(self):
        x = rand((1, 3, 4, 4))
        w = rand((2, 3, 1, 1))
        out, _ = F.conv2d_forward_fast(x, w, 1, 0)
        expected = np.einsum("nchw,kc->nkhw", x, w[:, :, 0, 0])
        assert np.allclose(out, expected, rtol=1e-10)

    def test_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            F.conv2d_forward_fast(rand((1, 3, 4, 4)), rand((2, 4, 3, 3)), 1, 1)

    def test_grad_x(self):
        x, w = rand((2, 2, 5, 5), seed=5), rand((3, 2, 3, 3), seed=6)
        g = rand((2, 3, 5, 5), seed=7)

        def loss():
            out, _ = F.conv2d_forward_fast(x, w, 1, 1)
            return float(np.sum(out * g))

        _, cache = F.conv2d_forward_fast(x, w, 1, 1)
        grad_x, _ = F.conv2d_backward_fast(g, cache)
        num = numerical_gradient(loss, x)
        assert np.allclose(grad_x, num, rtol=1e-4, atol=1e-6)

    def test_grad_w(self):
        x, w = rand((2, 2, 5, 5), seed=8), rand((3, 2, 3, 3), seed=9)
        g = rand((2, 3, 3, 3), seed=10)

        def loss():
            out, _ = F.conv2d_forward_fast(x, w, 2, 1)
            return float(np.sum(out * g))

        _, cache = F.conv2d_forward_fast(x, w, 2, 1)
        _, grad_w = F.conv2d_backward_fast(g, cache)
        num = numerical_gradient(loss, w)
        assert np.allclose(grad_w, num, rtol=1e-4, atol=1e-6)


class TestDepthwiseConv2d:
    def test_shape(self):
        x, w = rand((2, 4, 8, 8)), rand((4, 3, 3))
        out = F.depthwise_conv2d_infer(x, w, 1, 1)
        assert out.shape == (2, 4, 8, 8)

    def test_channels_independent(self):
        """Zeroing one channel's filter must zero exactly that channel."""
        x = rand((1, 3, 6, 6))
        w = rand((3, 3, 3))
        w[1] = 0.0
        out = F.depthwise_conv2d_infer(x, w, 1, 1)
        assert np.allclose(out[:, 1], 0.0)
        assert not np.allclose(out[:, 0], 0.0)

    def test_matches_grouped_dense_conv(self):
        """Depthwise == dense conv with a block-diagonal weight."""
        x = rand((1, 2, 5, 5), seed=11)
        w = rand((2, 3, 3), seed=12)
        dw = F.depthwise_conv2d_infer(x, w, 1, 1)
        dense_w = np.zeros((2, 2, 3, 3))
        dense_w[0, 0] = w[0]
        dense_w[1, 1] = w[1]
        dense = F.conv2d_infer(x, dense_w, 1, 1)
        assert np.allclose(dw, dense, rtol=1e-10)

    def test_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            F.depthwise_conv2d_infer(rand((1, 3, 4, 4)), rand((2, 3, 3)), 1, 1)

    def test_grad_x_and_w(self):
        x, w = rand((1, 2, 5, 5), seed=13), rand((2, 3, 3), seed=14)
        g = rand((1, 2, 5, 5), seed=15)

        def loss_x():
            out, _ = F.depthwise_conv2d_forward_fast(x, w, 1, 1)
            return float(np.sum(out * g))

        _, cache = F.depthwise_conv2d_forward_fast(x, w, 1, 1)
        grad_x, grad_w = F.depthwise_conv2d_backward_fast(g, cache)
        assert np.allclose(grad_x, numerical_gradient(loss_x, x), rtol=1e-4, atol=1e-6)
        assert np.allclose(grad_w, numerical_gradient(loss_x, w), rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


class TestPooling:
    def test_maxpool_known_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.maxpool2d_infer(x, 2, 2, 0)
        assert out.reshape(-1).tolist() == [5.0, 7.0, 13.0, 15.0]

    def test_maxpool_padding_never_wins(self):
        x = -np.ones((1, 1, 4, 4))
        out = F.maxpool2d_infer(x, 3, 1, 1)
        assert np.all(out == -1.0)

    def test_maxpool_grad(self):
        x = rand((2, 2, 6, 6), seed=16)
        g = rand((2, 2, 6, 6), seed=17)

        def loss():
            out, _ = F.maxpool2d_forward_fast(x, 3, 1, 1)
            return float(np.sum(out * g))

        _, cache = F.maxpool2d_forward_fast(x, 3, 1, 1)
        grad_x = F.maxpool2d_backward_fast(g, cache)
        assert np.allclose(grad_x, numerical_gradient(loss, x), rtol=1e-4, atol=1e-6)

    def test_avgpool_constant_input(self):
        x = np.full((1, 2, 4, 4), 3.0)
        out = F.avgpool2d_infer(x, 2, 2, 0)
        assert np.allclose(out, 3.0)

    def test_avgpool_grad(self):
        x = rand((2, 2, 6, 6), seed=18)
        g = rand((2, 2, 3, 3), seed=19)

        def loss():
            out, _ = F.avgpool2d_forward_fast(x, 2, 2, 0)
            return float(np.sum(out * g))

        _, cache = F.avgpool2d_forward_fast(x, 2, 2, 0)
        grad_x = F.avgpool2d_backward_fast(g, cache)
        assert np.allclose(grad_x, numerical_gradient(loss, x), rtol=1e-4, atol=1e-6)

    def test_global_avgpool(self):
        x = rand((3, 4, 5, 5), seed=20)
        out, cache = F.global_avgpool_forward(x)
        assert out.shape == (3, 4)
        assert np.allclose(out, x.mean(axis=(2, 3)))
        g = rand((3, 4), seed=21)
        grad = F.global_avgpool_backward(g, cache)
        assert np.allclose(grad.sum(axis=(2, 3)), g)


# ---------------------------------------------------------------------------
# Pointwise / dense / losses
# ---------------------------------------------------------------------------


class TestPointwise:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        out, mask = F.relu_forward(x)
        assert out.tolist() == [0.0, 0.0, 2.0]
        assert F.relu_backward(np.ones(3), mask).tolist() == [0.0, 0.0, 1.0]

    def test_linear_grads(self):
        x, w, b = rand((4, 3), seed=22), rand((2, 3), seed=23), rand((2,), seed=24)
        g = rand((4, 2), seed=25)

        def loss():
            out, _ = F.linear_forward(x, w, b)
            return float(np.sum(out * g))

        _, cache = F.linear_forward(x, w, b)
        gx, gw, gb = F.linear_backward(g, cache)
        assert np.allclose(gx, numerical_gradient(loss, x), rtol=1e-5, atol=1e-7)
        assert np.allclose(gw, numerical_gradient(loss, w), rtol=1e-5, atol=1e-7)
        assert np.allclose(gb, numerical_gradient(loss, b), rtol=1e-5, atol=1e-7)

    def test_batchnorm_normalises(self):
        x = rand((8, 3, 4, 4), seed=26) * 5 + 2
        gamma, beta = np.ones(3), np.zeros(3)
        rm, rv = np.zeros(3), np.ones(3)
        out, cache = F.batchnorm_forward_fast(x, gamma, beta, rm, rv, 0.1, 1e-5)
        assert cache is not None
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_batchnorm_running_stats_updated(self):
        x = rand((8, 2, 4, 4), seed=27) + 10.0
        rm, rv = np.zeros(2), np.ones(2)
        F.batchnorm_forward_fast(x, np.ones(2), np.zeros(2), rm, rv, 0.5, 1e-5)
        assert np.all(rm > 1.0)  # moved toward the batch mean of ~10

    def test_batchnorm_eval_uses_running_stats(self):
        x = rand((4, 2, 3, 3), seed=28)
        rm, rv = np.zeros(2), np.ones(2)
        out = F.batchnorm_forward(x, np.ones(2), np.zeros(2), rm, rv, 1e-5)
        assert np.array_equal(rm, np.zeros(2)) and np.array_equal(rv, np.ones(2))
        assert np.allclose(out, x / np.sqrt(1 + 1e-5), rtol=1e-6)

    def test_batchnorm_grad(self):
        x = rand((4, 2, 3, 3), seed=29)
        gamma, beta = rand((2,), seed=30), rand((2,), seed=31)
        g = rand((4, 2, 3, 3), seed=32)

        def loss():
            rm, rv = np.zeros(2), np.ones(2)
            out, _ = F.batchnorm_forward_fast(x, gamma, beta, rm, rv, 0.1, 1e-5)
            return float(np.sum(out * g))

        rm, rv = np.zeros(2), np.ones(2)
        _, cache = F.batchnorm_forward_fast(x, gamma, beta, rm, rv, 0.1, 1e-5)
        gx, ggamma, gbeta = F.batchnorm_backward_fast(g, cache)
        assert np.allclose(gx, numerical_gradient(loss, x), rtol=1e-3, atol=1e-5)
        assert np.allclose(ggamma, numerical_gradient(loss, gamma), rtol=1e-4, atol=1e-6)
        assert np.allclose(gbeta, numerical_gradient(loss, beta), rtol=1e-4, atol=1e-6)

    @given(st.integers(1, 6))
    @settings(deadline=None)
    def test_softmax_sums_to_one(self, n):
        x = np.random.default_rng(n).normal(size=(n, 5)) * 10
        p = F.softmax(x, axis=1)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)

    def test_softmax_shift_invariance(self):
        x = rand((2, 5), seed=33)
        assert np.allclose(F.softmax(x), F.softmax(x + 100.0), rtol=1e-9)

    def test_cross_entropy_uniform(self):
        logits = np.zeros((4, 10))
        labels = np.array([0, 1, 2, 3])
        loss, grad = F.softmax_cross_entropy(logits, labels)
        assert np.isclose(loss, np.log(10.0), rtol=1e-6)
        assert grad.shape == (4, 10)

    def test_cross_entropy_grad(self):
        logits = rand((3, 5), seed=34)
        labels = np.array([1, 0, 4])

        def loss():
            l, _ = F.softmax_cross_entropy(logits, labels)
            return l

        _, grad = F.softmax_cross_entropy(logits, labels)
        assert np.allclose(grad, numerical_gradient(loss, logits), rtol=1e-4, atol=1e-7)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss, _ = F.softmax_cross_entropy(logits, np.array([1, 2]))
        assert loss < 1e-6


class TestInferenceKernels:
    """Forward-only kernels against the float64 direct-sum reference; the
    dense convolution's training forward is bitwise its inference one."""

    def test_conv2d_infer_matches_forward(self):
        for kernel, stride, pad in [(3, 1, 1), (5, 1, 2), (3, 2, 1)]:
            x = rand((6, 4, 8, 8), seed=40)
            w = rand((5, 4, kernel, kernel), seed=41)
            out = F.conv2d_infer(x, w, stride, pad)
            assert rel_err(out, ref.conv2d(x, w, stride, pad)) <= REL
            np.testing.assert_array_equal(out, F.conv2d_forward_fast(x, w, stride, pad)[0])

    def test_conv2d_infer_pointwise_matches_forward(self):
        for stride in (1, 2):
            x = rand((6, 4, 8, 8), seed=42)
            w = rand((7, 4, 1, 1), seed=43)
            out = F.conv2d_infer(x, w, stride, 0)
            assert rel_err(out, ref.conv2d(x, w, stride, 0)) <= REL
            np.testing.assert_array_equal(out, F.conv2d_forward_fast(x, w, stride, 0)[0])

    def test_depthwise_infer_matches_forward(self):
        for kernel, stride in [(3, 1), (5, 1), (3, 2)]:
            pad = (kernel - 1) // 2
            x = rand((6, 4, 8, 8), seed=44)
            w = rand((4, kernel, kernel), seed=45)
            np.testing.assert_allclose(
                F.depthwise_conv2d_infer(x, w, stride, pad),
                ref.depthwise_conv2d(x, w, stride, pad),
                rtol=1e-5, atol=1e-6,
            )

    @pytest.mark.parametrize("kernel,stride", [(3, 1), (5, 1), (3, 2), (5, 2)])
    def test_depthwise_infer_equals_training_forward(self, kernel, stride):
        """One per-tap kernel: inference (with the fused ReLU and row-block
        lists) and the training forward agree bit for bit."""
        pad = (kernel - 1) // 2
        x = rand((6, 4, 8, 8), seed=48).astype(np.float32)
        w = rand((4, kernel, kernel), seed=49).astype(np.float32)
        train, _ = F.depthwise_conv2d_forward_fast(np.maximum(x, 0.0), w, stride, pad)
        assert np.array_equal(F.depthwise_conv2d_infer(x, w, stride, pad, relu=True), train)
        blocks = [x[:1], x[1:4], x[4:]]
        assert np.array_equal(
            F.depthwise_conv2d_infer(blocks, w, stride, pad, relu=True), train
        )

    @pytest.mark.parametrize("kernel,stride", [(3, 1), (5, 2)])
    def test_depthwise_infer_ignores_buffer_alignment(self, kernel, stride):
        """An input living one element into a larger buffer (so 4 bytes off
        any SIMD alignment) gives the aligned call's output bitwise."""
        pad = (kernel - 1) // 2
        x = rand((8, 16, 8, 8), seed=50).astype(np.float32)
        w = rand((16, kernel, kernel), seed=51).astype(np.float32)
        backing = np.empty(x.size + 1, dtype=np.float32)
        shifted = backing[1:].reshape(x.shape)
        shifted[...] = x
        assert shifted.ctypes.data % 16 != x.ctypes.data % 16
        assert np.array_equal(
            F.depthwise_conv2d_infer(shifted, w, stride, pad),
            F.depthwise_conv2d_infer(x, w, stride, pad),
        )

    def test_maxpool_infer_bitwise_identical(self):
        for stride in (1, 2):
            x = rand((6, 4, 8, 8), seed=46)
            np.testing.assert_array_equal(
                F.maxpool2d_infer(x, 3, stride, 1), ref.maxpool2d(x, 3, stride, 1)
            )

    def test_avgpool_infer_matches_forward(self):
        for stride in (1, 2):
            x = rand((6, 4, 8, 8), seed=47)
            np.testing.assert_allclose(
                F.avgpool2d_infer(x, 3, stride, 1), ref.avgpool2d(x, 3, stride, 1),
                rtol=1e-6, atol=1e-7,
            )


class TestSegmentedBatchNorm:
    """segments > 1 must equal separate per-segment forwards."""

    def _params(self, c):
        gamma = rand((c,), seed=50) * 0.5 + 1.0
        beta = rand((c,), seed=51) * 0.1
        return gamma, beta

    def test_matches_per_segment_scalar(self):
        """Each segment is bitwise the training-mode forward of its rows."""
        rows = 3
        gamma, beta = self._params(3)
        for dtype in (np.float32, np.float64):
            for segments in (1, 2, 4):
                x = rand((rows * segments, 3, 4, 4), seed=52) * 3.0 + 1.0
                x = x.astype(dtype)
                seg_out = F.batchnorm_infer(x, gamma, beta, 1e-5, segments=segments)
                for s in range(segments):
                    part, _ = F.batchnorm_forward_fast(
                        x[s * rows : (s + 1) * rows], gamma, beta,
                        np.zeros(3, np.float32), np.ones(3, np.float32),
                        0.1, 1e-5,
                    )
                    assert np.array_equal(seg_out[s * rows : (s + 1) * rows], part)

    def test_segments_one_unchanged(self):
        """One segment is plain training-mode batch norm (the float64
        reference, to round-off)."""
        x = rand((8, 3, 4, 4), seed=53)
        gamma, beta = self._params(3)
        plain, _, _ = ref.batchnorm_train(x, gamma, beta, 1e-5)
        seg = F.batchnorm_infer(x, gamma, beta, 1e-5, segments=1)
        np.testing.assert_allclose(plain, seg, rtol=1e-12, atol=1e-12)  # float64 round-off

    def test_indivisible_batch_rejected(self):
        x = rand((10, 3, 4, 4), seed=54)
        gamma, beta = self._params(3)
        with pytest.raises(ValueError):
            F.batchnorm_infer(x, gamma, beta, 1e-5, segments=4)

    def test_forward_infer_matches_module(self):
        from repro.nn.infer import forward_infer
        from repro.nn.layers import ReLUConvBN

        x = rand((8, 4, 8, 8), seed=56)
        op = ReLUConvBN(4, 4, kernel=3, rng=np.random.default_rng(57))
        np.testing.assert_allclose(
            forward_infer(op, x), op(x), rtol=1e-5, atol=1e-6
        )

    def test_forward_infer_writes_no_running_stats(self):
        from repro.nn.infer import forward_infer
        from repro.nn.layers import BatchNorm2d

        bn = BatchNorm2d(3)
        forward_infer(bn, rand((4, 3, 4, 4), seed=59) + 2.0, segments=2)
        assert np.array_equal(bn.running_mean, np.zeros(3, np.float32))
        assert np.array_equal(bn.running_var, np.ones(3, np.float32))

    def test_forward_infer_rejects_eval_mode_batchnorm(self):
        from repro.nn.infer import forward_infer
        from repro.nn.layers import ReLUConvBN

        op = ReLUConvBN(4, 4, kernel=3, rng=np.random.default_rng(57)).eval()
        with pytest.raises(ValueError, match="eval-mode"):
            forward_infer(op, rand((2, 4, 8, 8), seed=56))

    def test_forward_infer_rejects_unknown_module(self):
        from repro.nn.infer import forward_infer
        from repro.nn.module import Module

        class Custom(Module):
            def forward(self, x):
                return x

        with pytest.raises(TypeError, match="Custom"):
            forward_infer(Custom(), rand((2, 3, 4, 4), seed=58))
