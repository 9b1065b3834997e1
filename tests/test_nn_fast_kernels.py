"""The compact-cache training kernels (the ``train_fast`` mode).

Three layers of guarantees, mirroring docs/PERFORMANCE.md ("Training
path"):

* **Kernel-level parity** — every ``*_fast`` forward/backward pair matches
  its standard counterpart at relative 1e-6 (float64; conv/max-pool
  forwards and pool backwards are bitwise identical), across kernel
  sizes, strides and the stored-columns vs chunked-recompute regimes.
* **Gradcheck** — fast-kernel gradients match central-difference numerical
  gradients, independently of the standard kernels.
* **Mode wiring** — the ``train_fast`` scope latches per layer forward,
  nests correctly, is off by default, and a ``CellNetwork(train_fast=
  True)`` trains end-to-end with gradients matching the standard network
  at relative 1e-5 (float32 round-off accumulated across the whole DAG).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import layers as L

from tests.conftest import numerical_gradient

REL = 1e-6


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float64)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.max(np.abs(b))
    if scale == 0.0:
        return float(np.max(np.abs(a - b)))
    return float(np.max(np.abs(a - b)) / scale)


# Geometry grid: stride-1 "same" ops (the normal-cell shapes, transposed
# grad_x path), stride-2 (reduction cells, col2im path) and 1x1 pointwise.
CONV_CASES = [
    (8, 8, 1, 1, 0),
    (8, 12, 1, 2, 0),  # FactorizedReduce-style strided pointwise
    (8, 8, 3, 1, 1),
    (8, 8, 5, 1, 2),
    (8, 12, 3, 2, 1),
    (8, 8, 5, 2, 2),
]


class TestConvParity:
    @pytest.mark.parametrize("c,k,r,stride,pad", CONV_CASES)
    def test_forward_and_grads_match_standard(self, c, k, r, stride, pad):
        x = rand((3, c, 10, 10), seed=1)
        w = rand((k, c, r, r), seed=2)
        out_s, cache_s = F.conv2d_forward(x, w, stride, pad)
        out_f, cache_f = F.conv2d_forward_fast(x, w, stride, pad)
        assert np.array_equal(out_s, out_f), "conv fast forward is bitwise"
        g = rand(out_s.shape, seed=3)
        gx_s, gw_s = F.conv2d_backward(g, cache_s)
        gx_f, gw_f = F.conv2d_backward_fast(g, cache_f)
        assert rel_err(gx_f, gx_s) <= REL
        assert rel_err(gw_f, gw_s) <= REL

    def test_chunked_recompute_regime(self, monkeypatch):
        """Columns over the cache budget are recomputed chunk by chunk in
        backward — same gradients, no stored column tensor."""
        monkeypatch.setattr(F, "_TRAIN_CACHE_ELEMS", 1)
        monkeypatch.setattr(F, "_INFER_CHUNK_ELEMS", 500)
        x = rand((5, 4, 8, 8), seed=4)
        w = rand((6, 4, 3, 3), seed=5)
        out_s, cache_s = F.conv2d_forward(x, w, 1, 1)
        out_f, cache_f = F.conv2d_forward_fast(x, w, 1, 1)
        assert cache_f[4] is None, "over-budget columns must not be stored"
        assert np.array_equal(out_s, out_f)
        g = rand(out_s.shape, seed=6)
        gx_s, gw_s = F.conv2d_backward(g, cache_s)
        gx_f, gw_f = F.conv2d_backward_fast(g, cache_f)
        assert rel_err(gx_f, gx_s) <= REL
        assert rel_err(gw_f, gw_s) <= REL

    def test_stored_columns_are_float32(self):
        x = rand((2, 4, 8, 8), seed=7)
        w = rand((4, 4, 3, 3), seed=8)
        _, cache = F.conv2d_forward_fast(x, w, 1, 1)
        assert cache[4] is not None and cache[4].dtype == np.float32

    def test_gradcheck_numerical(self):
        x = rand((2, 3, 6, 6), seed=9)
        w = rand((4, 3, 3, 3), seed=10)
        g = rand((2, 4, 6, 6), seed=11)

        def loss():
            out, _ = F.conv2d_forward_fast(x, w, 1, 1)
            return float(np.sum(out * g))

        _, cache = F.conv2d_forward_fast(x, w, 1, 1)
        gx, gw = F.conv2d_backward_fast(g, cache)
        assert np.allclose(gx, numerical_gradient(loss, x), rtol=1e-4, atol=1e-5)
        assert np.allclose(gw, numerical_gradient(loss, w), rtol=1e-4, atol=1e-5)


class TestDepthwiseParity:
    @pytest.mark.parametrize("r,stride", [(3, 1), (5, 1), (3, 2), (5, 2)])
    def test_forward_and_grads_match_standard(self, r, stride):
        pad = F.pad_same(r)
        x = rand((3, 6, 10, 10), seed=12)
        w = rand((6, r, r), seed=13)
        out_s, cache_s = F.depthwise_conv2d_forward(x, w, stride, pad)
        out_f, cache_f = F.depthwise_conv2d_forward_fast(x, w, stride, pad)
        assert rel_err(out_f, out_s) <= REL
        g = rand(out_s.shape, seed=14)
        gx_s, gw_s = F.depthwise_conv2d_backward(g, cache_s)
        gx_f, gw_f = F.depthwise_conv2d_backward_fast(g, cache_f)
        assert rel_err(gx_f, gx_s) <= REL
        assert rel_err(gw_f, gw_s) <= REL

    def test_chunked_recompute_regime(self, monkeypatch):
        monkeypatch.setattr(F, "_TRAIN_CACHE_ELEMS", 1)
        monkeypatch.setattr(F, "_INFER_CHUNK_ELEMS", 500)
        x = rand((5, 4, 8, 8), seed=15)
        w = rand((4, 3, 3), seed=16)
        out_s, cache_s = F.depthwise_conv2d_forward(x, w, 1, 1)
        out_f, cache_f = F.depthwise_conv2d_forward_fast(x, w, 1, 1)
        assert cache_f[4] is None
        assert rel_err(out_f, out_s) <= REL
        g = rand(out_s.shape, seed=17)
        gx_s, gw_s = F.depthwise_conv2d_backward(g, cache_s)
        gx_f, gw_f = F.depthwise_conv2d_backward_fast(g, cache_f)
        assert rel_err(gx_f, gx_s) <= REL
        assert rel_err(gw_f, gw_s) <= REL

    def test_gradcheck_numerical(self):
        x = rand((2, 3, 6, 6), seed=18)
        w = rand((3, 3, 3), seed=19)
        g = rand((2, 3, 6, 6), seed=20)

        def loss():
            out, _ = F.depthwise_conv2d_forward_fast(x, w, 1, 1)
            return float(np.sum(out * g))

        _, cache = F.depthwise_conv2d_forward_fast(x, w, 1, 1)
        gx, gw = F.depthwise_conv2d_backward_fast(g, cache)
        assert np.allclose(gx, numerical_gradient(loss, x), rtol=1e-4, atol=1e-5)
        assert np.allclose(gw, numerical_gradient(loss, w), rtol=1e-4, atol=1e-5)


class TestPoolParity:
    @pytest.mark.parametrize("stride", [1, 2])
    def test_maxpool_bitwise(self, stride):
        x = rand((3, 5, 9, 9), seed=21)
        out_s, cache_s = F.maxpool2d_forward(x, 3, stride, 1)
        out_f, cache_f = F.maxpool2d_forward_fast(x, 3, stride, 1)
        assert np.array_equal(out_s, out_f)
        g = rand(out_s.shape, seed=22)
        assert np.array_equal(
            F.maxpool2d_backward(g, cache_s), F.maxpool2d_backward_fast(g, cache_f)
        )

    def test_maxpool_tie_routing_matches_argmax(self):
        """Repeated window maxima route the gradient to the FIRST max in
        scan order, exactly like the standard kernel's argmax."""
        x = np.ones((1, 1, 4, 4), dtype=np.float64)  # every window all-ties
        out_s, cache_s = F.maxpool2d_forward(x, 3, 1, 1)
        out_f, cache_f = F.maxpool2d_forward_fast(x, 3, 1, 1)
        assert np.array_equal(out_s, out_f)
        g = rand(out_s.shape, seed=23)
        assert np.array_equal(
            F.maxpool2d_backward(g, cache_s), F.maxpool2d_backward_fast(g, cache_f)
        )

    @pytest.mark.parametrize("stride", [1, 2])
    def test_avgpool(self, stride):
        x = rand((3, 5, 9, 9), seed=24)
        out_s, cache_s = F.avgpool2d_forward(x, 3, stride, 1)
        out_f, cache_f = F.avgpool2d_forward_fast(x, 3, stride, 1)
        assert rel_err(out_f, out_s) <= REL
        g = rand(out_s.shape, seed=25)
        assert np.array_equal(
            F.avgpool2d_backward(g, cache_s), F.avgpool2d_backward_fast(g, cache_f)
        ), "avgpool fast backward is bitwise (same adds, same order)"

    def test_maxpool_cache_is_boolean(self):
        x = rand((2, 3, 8, 8), seed=26)
        _, cache = F.maxpool2d_forward_fast(x, 3, 1, 1)
        assert cache[0].dtype == np.bool_


class TestBatchNormParity:
    def test_forward_backward_and_running_stats(self):
        x = rand((6, 5, 7, 7), seed=27)
        gamma = rand((5,), seed=28)
        beta = rand((5,), seed=29)
        rm_s, rv_s = np.zeros(5), np.ones(5)
        rm_f, rv_f = np.zeros(5), np.ones(5)
        out_s, cache_s = F.batchnorm_forward(
            x, gamma, beta, rm_s, rv_s, 0.1, 1e-5, True
        )
        out_f, cache_f = F.batchnorm_forward_fast(
            x, gamma, beta, rm_f, rv_f, 0.1, 1e-5, True
        )
        assert rel_err(out_f, out_s) <= REL
        assert rel_err(rm_f, rm_s) <= REL and rel_err(rv_f, rv_s) <= REL
        g = rand(out_s.shape, seed=30)
        gx_s, gg_s, gb_s = F.batchnorm_backward(g, cache_s)
        gx_f, gg_f, gb_f = F.batchnorm_backward_fast(g, cache_f)
        assert rel_err(gx_f, gx_s) <= REL
        assert rel_err(gg_f, gg_s) <= REL
        assert np.array_equal(gb_f, gb_s)

    def test_eval_mode_delegates_to_standard(self):
        x = rand((4, 3, 6, 6), seed=31)
        gamma, beta = np.ones(3), np.zeros(3)
        rm, rv = rand((3,), seed=32) * 0.1, np.abs(rand((3,), seed=33)) + 0.5
        out_s, _ = F.batchnorm_forward(x, gamma, beta, rm, rv, 0.1, 1e-5, False)
        out_f, cache = F.batchnorm_forward_fast(
            x, gamma, beta, rm, rv, 0.1, 1e-5, False
        )
        assert np.array_equal(out_s, out_f)
        assert cache is None


class TestTrainFastScope:
    def test_off_by_default_and_nests(self):
        assert not L.train_fast_enabled()
        with L.train_fast():
            assert L.train_fast_enabled()
            with L.train_fast(False):
                assert not L.train_fast_enabled()
            assert L.train_fast_enabled()
        assert not L.train_fast_enabled()

    def test_scopes_are_thread_local(self):
        """Two threads inside overlapping scopes each read their own value
        (pool threads train with different kernel families at once)."""
        import threading

        barrier = threading.Barrier(2, timeout=10.0)
        seen: dict[bool, bool] = {}

        def worker(fast: bool) -> None:
            with L.train_fast(fast):
                barrier.wait()  # both scopes are open now
                seen[fast] = L.train_fast_enabled()
                barrier.wait()  # neither scope closes before both have read

        threads = [threading.Thread(target=worker, args=(f,)) for f in (True, False)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20.0)
        assert seen == {True: True, False: False}
        assert not L.train_fast_enabled()

    def test_layer_latches_kernel_choice_per_forward(self):
        """A forward inside the scope pairs with the fast backward even if
        the scope has been exited before backward runs."""
        conv = L.Conv2d(3, 4, kernel=3, rng=np.random.default_rng(0))
        x = rand((2, 3, 6, 6), seed=34)
        with L.train_fast():
            conv(x)
        assert conv._fast and len(conv._cache) == 5  # fast cache layout
        conv.backward(rand((2, 4, 6, 6), seed=35))  # dispatches fast kernel

    def test_default_path_unchanged(self):
        conv = L.Conv2d(3, 4, kernel=3, rng=np.random.default_rng(0))
        x = rand((2, 3, 6, 6), seed=36)
        conv(x)
        assert not conv._fast
        assert len(conv._cache) == 5 and conv._cache[0].ndim == 3  # im2col cols

    def test_eval_mode_forward_skips_caches(self):
        conv = L.Conv2d(3, 4, kernel=3, rng=np.random.default_rng(0))
        pool = L.MaxPool2d(3)
        relu = L.ReLU()
        conv.eval(), pool.eval(), relu.eval()
        x = rand((2, 3, 6, 6), seed=37)
        with L.train_fast():
            out = conv(x)
            pool(out)
            relu(out)
        assert conv._cache is None and pool._cache is None and relu._mask is None

    def test_layer_grads_match_standard(self):
        """Layer-by-layer: standard vs fast gradients at relative 1e-6."""
        rng = np.random.default_rng(0)
        x = rand((3, 4, 8, 8), seed=38)
        g = None
        for build in (
            lambda: L.Conv2d(4, 4, kernel=3, rng=np.random.default_rng(1)),
            lambda: L.Conv2d(4, 4, kernel=1, pad=0, rng=np.random.default_rng(1)),
            lambda: L.DepthwiseConv2d(4, kernel=3, rng=np.random.default_rng(1)),
            lambda: L.MaxPool2d(3),
            lambda: L.AvgPool2d(3),
            lambda: L.BatchNorm2d(4),
        ):
            layer_s, layer_f = build(), build()
            out_s = layer_s(x)
            g = rand(out_s.shape, seed=39)
            gx_s = layer_s.backward(g)
            with L.train_fast():
                out_f = layer_f(x)
            gx_f = layer_f.backward(g)
            assert rel_err(out_f, out_s) <= REL, type(layer_s).__name__
            assert rel_err(gx_f, gx_s) <= REL, type(layer_s).__name__
            for p_s, p_f in zip(layer_s.parameters(), layer_f.parameters()):
                assert rel_err(p_f.grad, p_s.grad) <= REL, type(layer_s).__name__


class TestCellNetworkTrainFast:
    def test_end_to_end_gradients_match(self, genotype, tiny_dataset):
        from repro.nas.network import CellNetwork

        x = tiny_dataset.train.images[:16]
        y = tiny_dataset.train.labels[:16]

        def grads(train_fast):
            net = CellNetwork(
                genotype,
                num_cells=3,
                stem_channels=4,
                rng=np.random.default_rng(0),
                train_fast=train_fast,
            )
            logits = net(x)
            _, grad = F.softmax_cross_entropy(logits, y)
            net.backward(grad)
            return logits, [p.grad.copy() for p in net.parameters()]

        logits_s, grads_s = grads(False)
        logits_f, grads_f = grads(True)
        # float32 end to end: round-off accumulates across the DAG, so the
        # bar is 1e-5 here; the rel-1e-6 kernel parity is pinned above in
        # float64.
        assert rel_err(logits_f, logits_s) <= 1e-5
        for a, b in zip(grads_f, grads_s):
            # atol floors the comparison for numerically-zero gradients
            # (classifier bias entries at ~1e-8 are pure round-off).
            assert np.allclose(a, b, rtol=1e-4, atol=1e-6)

    def test_train_network_mode_flag(self, genotype, tiny_dataset):
        from repro.nas.network import CellNetwork
        from repro.nas.train import train_network

        net = CellNetwork(
            genotype, num_cells=3, stem_channels=4, rng=np.random.default_rng(2)
        )
        result = train_network(
            net, tiny_dataset, epochs=1, batch_size=32, seed=0, train_fast=True
        )
        assert 0.0 <= result.val_accuracy <= 1.0
        assert not L.train_fast_enabled(), "scope must not leak"

    def test_train_fast_deterministic(self, genotype, tiny_dataset):
        from repro.nas.network import CellNetwork
        from repro.nas.train import train_network

        runs = []
        for _ in range(2):
            net = CellNetwork(
                genotype,
                num_cells=3,
                stem_channels=4,
                rng=np.random.default_rng(3),
                train_fast=True,
            )
            runs.append(
                train_network(net, tiny_dataset, epochs=1, batch_size=32, seed=5)
            )
        assert runs[0].final_train_loss == runs[1].final_train_loss
        assert runs[0].val_accuracy == runs[1].val_accuracy
