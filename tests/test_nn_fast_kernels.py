"""The compact-cache training kernels (the ``*_fast`` family every
training-mode layer runs).

Three layers of guarantees, mirroring docs/PERFORMANCE.md ("Training
path"):

* **Kernel-level parity** — every ``*_fast`` forward/backward pair
  matches the standard definition of its op, the float64 direct-sum
  reference of ``tests/kernel_reference.py`` (each output a sum, max or
  mean over one sliding window; each gradient scattered back window by
  window), at relative 1e-6 in float64, across kernel sizes, strides, odd
  map shapes and the stored-columns vs chunked-recompute (dense) or
  row-chunk (depthwise) regimes.  Max-pool forwards and first-max
  gradient routing match it bitwise.  Batch-norm gradients are held to
  central differences of the reference forward.
* **Gradcheck** — fast-kernel gradients match central-difference
  numerical gradients of their own forwards.
* **Layers and networks** — each layer's training forward/backward equals
  the reference, eval-mode forwards write no cache, and whole float64
  networks (a ``CellNetwork`` and a HyperNet path with aliased edges)
  match directional finite differences.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import layers as L

from tests import kernel_reference as ref
from tests.conftest import numerical_gradient
from tests.kernel_reference import REL, rel_err

#: Central-difference step for the batch-norm gradient checks: the
#: reference forward is float64, so truncation and round-off both stay
#: near 1e-10 relative at this step.
FD_EPS = 1e-4


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float64)


def first_max_mask(x, kernel, stride, pad):
    """The ``(N, C, K*K, OH, OW)`` one-hot of the reference's first-max
    argmax: the layout of the max-pool kernel's cached mask."""
    arg = ref.maxpool2d_argmax(x, kernel, stride, pad)
    return np.moveaxis(arg[..., None] == np.arange(kernel * kernel), -1, 2)


def batchnorm_grads(x, gamma, beta, grad_out, eps=1e-5):
    """Central differences of ``<reference batch norm, grad_out>`` with
    respect to ``x``, ``gamma`` and ``beta`` (float64 copies)."""
    x, gamma, beta = (np.array(a, dtype=np.float64) for a in (x, gamma, beta))

    def loss() -> float:
        return float(np.sum(ref.batchnorm_train(x, gamma, beta, eps)[0] * grad_out))

    return tuple(numerical_gradient(loss, a, eps=FD_EPS) for a in (x, gamma, beta))


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
        out, cache = F.conv2d_forward_fast(x, w, stride, pad)
        assert rel_err(out, ref.conv2d(x, w, stride, pad)) <= REL
        g = rand(out.shape, seed=3)
        gx, gw = F.conv2d_backward_fast(g, cache)
        assert rel_err(gx, ref.conv2d_grad_x(g, w, x.shape, stride, pad)) <= REL
        assert rel_err(gw, ref.conv2d_grad_w(x, g, r, stride, pad)) <= REL

    def test_chunked_recompute_regime(self, monkeypatch):
        """Columns over the cache budget are recomputed chunk by chunk in
        backward — same gradients, no stored column tensor."""
        x = rand((5, 4, 8, 8), seed=4)
        w = rand((6, 4, 3, 3), seed=5)
        stored, _ = F.conv2d_forward_fast(x, w, 1, 1)
        monkeypatch.setattr(F, "_TRAIN_CACHE_ELEMS", 1)
        monkeypatch.setattr(F, "_INFER_CHUNK_ELEMS", 500)
        out, cache = F.conv2d_forward_fast(x, w, 1, 1)
        assert cache[4] is None, "over-budget columns must not be stored"
        assert np.array_equal(out, stored), "chunking is per-sample maths"
        assert rel_err(out, ref.conv2d(x, w, 1, 1)) <= REL
        g = rand(out.shape, seed=6)
        gx, gw = F.conv2d_backward_fast(g, cache)
        assert rel_err(gx, ref.conv2d_grad_x(g, w, x.shape, 1, 1)) <= REL
        assert rel_err(gw, ref.conv2d_grad_w(x, g, 3, 1, 1)) <= REL

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


def assert_depthwise_matches_reference(x, w, stride, pad):
    out, cache = F.depthwise_conv2d_forward_fast(x, w, stride, pad)
    assert rel_err(out, ref.depthwise_conv2d(x, w, stride, pad)) <= REL
    g = rand(out.shape, seed=42)
    gx, gw = F.depthwise_conv2d_backward_fast(g, cache)
    assert rel_err(gx, ref.depthwise_conv2d_grad_x(g, w, x.shape, stride, pad)) <= REL
    assert rel_err(gw, ref.depthwise_conv2d_grad_w(x, g, w.shape[1], stride, pad)) <= REL


class TestDepthwiseParity:
    @pytest.mark.parametrize("r,stride", [(3, 1), (5, 1), (3, 2), (5, 2)])
    def test_forward_and_grads_match_standard(self, r, stride):
        x = rand((3, 6, 10, 10), seed=12)
        w = rand((6, r, r), seed=13)
        assert_depthwise_matches_reference(x, w, stride, F.pad_same(r))

    def test_row_chunks_are_exact(self, monkeypatch):
        """Row chunks of the per-tap kernel change no output bit, and the
        cache holds the input itself, never columns."""
        x = rand((5, 4, 9, 7), seed=15)
        w = rand((4, 3, 3), seed=16)
        whole, _ = F.depthwise_conv2d_forward_fast(x, w, 2, 1)
        g = rand(whole.shape, seed=17)
        gx_whole, gw_whole = F.depthwise_conv2d_backward_fast(
            g, F.depthwise_conv2d_forward_fast(x, w, 2, 1)[1]
        )
        monkeypatch.setattr(F, "_DW_CHUNK_ELEMS", 100)
        assert len(F._depthwise_chunks(x, w, 2, 1)) == 5, "one row per chunk"
        out, cache = F.depthwise_conv2d_forward_fast(x, w, 2, 1)
        assert cache[0] is x
        assert np.array_equal(out, whole)
        assert np.array_equal(F.depthwise_conv2d_infer(x, w, 2, 1), whole)
        gx, gw = F.depthwise_conv2d_backward_fast(g, cache)
        assert np.array_equal(gx, gx_whole), "grad_x is per-row maths"
        assert rel_err(gw, gw_whole) <= REL

    @pytest.mark.parametrize("shape", [(2, 3, 9, 9), (2, 3, 7, 11), (2, 3, 4, 4)])
    @pytest.mark.parametrize("r,stride", [(3, 1), (5, 1), (3, 2), (5, 2)])
    def test_odd_shapes_match_standard(self, shape, r, stride):
        """Odd and non-square maps: strided sweeps leave input border
        cells unread, which must get a zero gradient."""
        x = rand(shape, seed=40)
        w = rand((shape[1], r, r), seed=41)
        assert_depthwise_matches_reference(x, w, stride, F.pad_same(r))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradcheck_numerical_strided(self, stride):
        x = rand((2, 3, 7, 7), seed=43)
        w = rand((3, 5, 5), seed=44)
        out, cache = F.depthwise_conv2d_forward_fast(x, w, stride, 2)
        g = rand(out.shape, seed=45)

        def loss():
            out, _ = F.depthwise_conv2d_forward_fast(x, w, stride, 2)
            return float(np.sum(out * g))

        gx, gw = F.depthwise_conv2d_backward_fast(g, cache)
        assert np.allclose(gx, numerical_gradient(loss, x), rtol=1e-4, atol=1e-5)
        assert np.allclose(gw, numerical_gradient(loss, w), rtol=1e-4, atol=1e-5)

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
        """The forward and the first-max routing mask are bitwise the
        reference's; the routed gradient matches its scatter."""
        x = rand((3, 5, 9, 9), seed=21)
        out, cache = F.maxpool2d_forward_fast(x, 3, stride, 1)
        assert np.array_equal(out, ref.maxpool2d(x, 3, stride, 1))
        assert np.array_equal(cache[0], first_max_mask(x, 3, stride, 1))
        g = rand(out.shape, seed=22)
        gx = F.maxpool2d_backward_fast(g, cache)
        assert rel_err(gx, ref.maxpool2d_grad_x(x, g, 3, stride, 1)) <= REL

    def test_maxpool_tie_routing_matches_argmax(self):
        """Repeated window maxima route the gradient to the FIRST max in
        row-major scan order, exactly as a first-occurrence ``np.argmax``
        over the reference windows does."""
        ties = np.random.default_rng(23).integers(0, 3, size=(2, 3, 6, 6))
        for x in (np.ones((1, 1, 4, 4)), ties.astype(np.float64)):
            out, cache = F.maxpool2d_forward_fast(x, 3, 1, 1)
            assert np.array_equal(out, ref.maxpool2d(x, 3, 1, 1))
            assert np.array_equal(cache[0], first_max_mask(x, 3, 1, 1))
            g = rand(out.shape, seed=23)
            gx = F.maxpool2d_backward_fast(g, cache)
            assert rel_err(gx, ref.maxpool2d_grad_x(x, g, 3, 1, 1)) <= REL

    @pytest.mark.parametrize("stride", [1, 2])
    def test_avgpool(self, stride):
        x = rand((3, 5, 9, 9), seed=24)
        out, cache = F.avgpool2d_forward_fast(x, 3, stride, 1)
        assert rel_err(out, ref.avgpool2d(x, 3, stride, 1)) <= REL
        g = rand(out.shape, seed=25)
        gx = F.avgpool2d_backward_fast(g, cache)
        assert rel_err(gx, ref.avgpool2d_grad_x(g, x.shape, 3, stride, 1)) <= REL

    def test_maxpool_cache_is_boolean(self):
        x = rand((2, 3, 8, 8), seed=26)
        _, cache = F.maxpool2d_forward_fast(x, 3, 1, 1)
        assert cache[0].dtype == np.bool_


class TestBatchNormParity:
    def test_forward_backward_and_running_stats(self):
        """Forward and running statistics against the reference; the
        gradients against central differences of the reference forward."""
        x = rand((6, 5, 7, 7), seed=27)
        gamma = rand((5,), seed=28)
        beta = rand((5,), seed=29)
        rm, rv = np.zeros(5), np.ones(5)
        out, cache = F.batchnorm_forward_fast(x, gamma, beta, rm, rv, 0.1, 1e-5)
        want, mean, var = ref.batchnorm_train(x, gamma, beta, 1e-5)
        assert rel_err(out, want) <= REL
        assert rel_err(rm, 0.1 * mean) <= REL and rel_err(rv, 0.9 + 0.1 * var) <= REL
        g = rand(out.shape, seed=30)
        gx, gg, gb = F.batchnorm_backward_fast(g, cache)
        gx_fd, gg_fd, gb_fd = batchnorm_grads(x, gamma, beta, g)
        assert rel_err(gx, gx_fd) <= REL
        assert rel_err(gg, gg_fd) <= REL
        assert rel_err(gb, gb_fd) <= REL
        assert np.array_equal(gb, g.sum(axis=(0, 2, 3)))


class TestTrainFastScope:
    def test_eval_mode_forward_skips_caches(self):
        conv = L.Conv2d(3, 4, kernel=3, rng=np.random.default_rng(0))
        pool = L.MaxPool2d(3)
        relu = L.ReLU()
        bn = L.BatchNorm2d(4)
        for layer in (conv, pool, relu, bn):
            layer.eval()
        x = rand((2, 3, 6, 6), seed=37)
        out = conv(x)
        pool(out), relu(out), bn(out)
        assert conv._cache is None and pool._cache is None and bn._cache is None
        assert relu._mask is None

    def test_layer_grads_match_standard(self):
        """Layer by layer: the training forward/backward equals the
        reference (batch norm's gradients: central differences of the
        reference forward) at relative 1e-6, and backward releases the
        cache."""
        x = rand((3, 4, 8, 8), seed=38)
        cases = [
            (
                L.Conv2d(4, 4, kernel=3, rng=np.random.default_rng(1)),
                lambda m: ref.conv2d(x, m.weight.data, 1, 1),
                lambda m, g: (
                    ref.conv2d_grad_x(g, m.weight.data, x.shape, 1, 1),
                    ref.conv2d_grad_w(x, g, 3, 1, 1),
                ),
            ),
            (
                L.Conv2d(4, 4, kernel=1, pad=0, rng=np.random.default_rng(1)),
                lambda m: ref.conv2d(x, m.weight.data, 1, 0),
                lambda m, g: (
                    ref.conv2d_grad_x(g, m.weight.data, x.shape, 1, 0),
                    ref.conv2d_grad_w(x, g, 1, 1, 0),
                ),
            ),
            (
                L.DepthwiseConv2d(4, kernel=3, rng=np.random.default_rng(1)),
                lambda m: ref.depthwise_conv2d(x, m.weight.data, 1, 1),
                lambda m, g: (
                    ref.depthwise_conv2d_grad_x(g, m.weight.data, x.shape, 1, 1),
                    ref.depthwise_conv2d_grad_w(x, g, 3, 1, 1),
                ),
            ),
            (
                L.MaxPool2d(3),
                lambda m: ref.maxpool2d(x, 3, 1, 1),
                lambda m, g: (ref.maxpool2d_grad_x(x, g, 3, 1, 1),),
            ),
            (
                L.AvgPool2d(3),
                lambda m: ref.avgpool2d(x, 3, 1, 1),
                lambda m, g: (ref.avgpool2d_grad_x(g, x.shape, 3, 1, 1),),
            ),
            (
                L.BatchNorm2d(4),
                lambda m: ref.batchnorm_train(x, m.gamma.data, m.beta.data, m.eps)[0],
                lambda m, g: batchnorm_grads(x, m.gamma.data, m.beta.data, g, m.eps),
            ),
        ]
        for layer, ref_forward, ref_grads in cases:
            name = type(layer).__name__
            out_ref = ref_forward(layer)
            g = rand(out_ref.shape, seed=39)
            grads_ref = ref_grads(layer, g)
            out = layer(x)
            gx = layer.backward(g)
            assert layer._cache is None, f"{name} kept its cache"
            assert rel_err(out, out_ref) <= REL, name
            assert rel_err(gx, grads_ref[0]) <= REL, name
            for p, g_ref in zip(layer.parameters(), grads_ref[1:]):
                assert rel_err(p.grad, g_ref) <= REL, name


def _as_float64(net) -> None:
    for p in net.parameters():
        p.data = p.data.astype(np.float64)
        p.grad = np.zeros_like(p.data)


def assert_directional_fd(
    loss, params, eps=1e-6, atol=1e-4, max_rtol=1e-4, max_median_rtol=1e-7
):
    """SNIPPETS.md #1's ``compare_grad_with_fd`` idiom on one random
    direction per parameter tensor: the analytic directional derivative
    ``<grad, d>`` (gradients already accumulated in ``p.grad``) against
    the central difference of ``loss()`` along ``d``, asserting both the
    max and the median relative deviation.  ``atol`` floors the
    denominator: some derivatives are zero by structure (a BN shift that
    a later BN cancels), and round-off over round-off is no signal."""
    rng = np.random.default_rng(0)
    devs = []
    for p in params:
        d = rng.normal(size=p.data.shape)
        analytic = float(np.sum(p.grad * d))
        base = p.data
        p.data = base + eps * d
        up = loss()
        p.data = base - eps * d
        down = loss()
        p.data = base
        fd = (up - down) / (2 * eps)
        devs.append(abs(analytic - fd) / (abs(fd) + atol))
    devs = np.array(devs)
    assert devs.max() < max_rtol, f"max dev ratio {devs.max():.3e}"
    assert np.median(devs) < max_median_rtol, f"median dev ratio {np.median(devs):.3e}"


class TestCellNetworkTrainFast:
    def test_cell_network_matches_finite_differences(self, genotype, tiny_dataset):
        from repro.nas.network import CellNetwork

        x = tiny_dataset.train.images[:8].astype(np.float64)
        y = tiny_dataset.train.labels[:8]
        net = CellNetwork(
            genotype, num_cells=3, stem_channels=4, rng=np.random.default_rng(0)
        )
        _as_float64(net)

        def loss() -> float:
            value, _ = F.softmax_cross_entropy(net(x), y)
            return value

        _, grad = F.softmax_cross_entropy(net(x), y)
        net.backward(grad)
        assert_directional_fd(loss, list(net.parameters()))

    def test_hypernet_aliased_edges_match_finite_differences(
        self, aliased_genotype, tiny_dataset
    ):
        """A HyperNet path whose nodes pick one (input, op) edge twice runs
        that module once, doubled; its gradients must still be exact."""
        from repro.nas.hypernet import HyperNet

        x = tiny_dataset.train.images[:8].astype(np.float64)
        y = tiny_dataset.train.labels[:8]
        hn = HyperNet(num_cells=3, stem_channels=4, rng=np.random.default_rng(1))
        _as_float64(hn)

        def loss() -> float:
            value, _ = F.softmax_cross_entropy(hn(x, aliased_genotype), y)
            return value

        _, grad = F.softmax_cross_entropy(hn(x, aliased_genotype), y)
        # Before backward, the modules holding a cache are exactly the path.
        on_path = [
            m for m in hn._children(set())
            if getattr(m, "_cache", None) is not None
        ]
        path_params = {id(p): p for m in on_path for p in m.parameters()}
        hn.backward(grad)
        for p in hn.parameters():
            if id(p) not in path_params:
                assert not np.any(p.grad), "off-path parameter got gradient"
        assert_directional_fd(loss, list(path_params.values()))

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
            )
            runs.append(
                train_network(net, tiny_dataset, epochs=1, batch_size=32, seed=5)
            )
        assert runs[0].final_train_loss == runs[1].final_train_loss
        assert runs[0].val_accuracy == runs[1].val_accuracy
