"""Tests for concrete cell networks: shapes, DAG backward, training signal."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nas.genotype import CellGenotype, NodeSpec
from repro.nas.network import Cell, CellNetwork
from repro.nas.ops import OP_NAMES, build_op, op_index, OPS
from repro.nas.space import DnnSpace
from repro.nn import functional as F


def x32(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


class TestOps:
    @pytest.mark.parametrize("name", OP_NAMES)
    def test_build_all_ops_stride1(self, name, rng):
        op = build_op(name, 4, 4, 1, rng)
        out = op(x32((2, 4, 8, 8)))
        assert out.shape == (2, 4, 8, 8)

    @pytest.mark.parametrize("name", OP_NAMES)
    def test_build_all_ops_stride2(self, name, rng):
        op = build_op(name, 4, 4, 2, rng)
        out = op(x32((2, 4, 8, 8)))
        assert out.shape == (2, 4, 4, 4)

    @pytest.mark.parametrize("name", OP_NAMES)
    def test_backward_all_ops(self, name, rng):
        op = build_op(name, 3, 3, 1, rng)
        x = x32((1, 3, 6, 6))
        out = op(x)
        gx = op.backward(np.ones_like(out))
        assert gx.shape == x.shape

    def test_channel_change(self, rng):
        for name in OP_NAMES:
            op = build_op(name, 4, 8, 1, rng)
            assert op(x32((1, 4, 6, 6))).shape == (1, 8, 6, 6)

    def test_unknown_op_rejected(self, rng):
        with pytest.raises(KeyError):
            build_op("conv9x9", 4, 4, 1, rng)

    def test_op_index_bijection(self):
        for i, op in enumerate(OPS):
            assert op_index(op.name) == i

    def test_pool_ops_have_no_weights_when_channels_match(self, rng):
        op = build_op("maxpool3x3", 4, 4, 1, rng)
        weighted = [p for p in op.parameters() if p.weight_decay]
        assert not weighted  # only BN gamma/beta (flagged no-decay)


class TestCell:
    def test_normal_cell_shapes(self, simple_cell, rng):
        cell = Cell(simple_cell, 8, 8, 16, reduction=False, reduction_prev=False, rng=rng)
        s0 = x32((2, 8, 8, 8))
        s1 = x32((2, 8, 8, 8), seed=1)
        out = cell(s0, s1)
        assert out.shape == (2, cell.out_channels, 8, 8)
        assert cell.out_channels == 16 * len(simple_cell.loose_ends())

    def test_reduction_cell_halves_spatial(self, simple_cell, rng):
        cell = Cell(simple_cell, 8, 8, 16, reduction=True, reduction_prev=False, rng=rng)
        out = cell(x32((1, 8, 8, 8)), x32((1, 8, 8, 8), seed=1))
        assert out.shape[2:] == (4, 4)

    def test_reduction_prev_aligns_spatial(self, simple_cell, rng):
        # Previous cell halved: s0 is twice the size of s1.
        cell = Cell(simple_cell, 8, 16, 16, reduction=False, reduction_prev=True, rng=rng)
        out = cell(x32((1, 8, 8, 8)), x32((1, 16, 4, 4), seed=1))
        assert out.shape[2:] == (4, 4)

    def test_backward_returns_both_input_grads(self, simple_cell, rng):
        cell = Cell(simple_cell, 4, 4, 8, reduction=False, reduction_prev=False, rng=rng)
        s0, s1 = x32((1, 4, 6, 6)), x32((1, 4, 6, 6), seed=2)
        out = cell(s0, s1)
        g0, g1 = cell.backward(np.ones_like(out))
        assert g0.shape == s0.shape
        assert g1.shape == s1.shape

    def test_backward_before_forward_raises(self, simple_cell, rng):
        cell = Cell(simple_cell, 4, 4, 8, reduction=False, reduction_prev=False, rng=rng)
        with pytest.raises(RuntimeError):
            cell.backward(np.ones((1, 8, 4, 4), dtype=np.float32))

    def test_all_used_ops_get_gradients(self, simple_cell, rng):
        cell = Cell(simple_cell, 4, 4, 8, reduction=False, reduction_prev=False, rng=rng)
        out = cell(x32((1, 4, 6, 6)), x32((1, 4, 6, 6), seed=3))
        cell.backward(np.ones_like(out))
        # Every conv/linear weight in the cell must have received gradient:
        # the fixture cell consumes every node, so every op is on-path.
        weighted = [p for p in cell.parameters() if p.weight_decay]
        assert weighted
        touched = sum(1 for p in weighted if np.any(p.grad != 0))
        assert touched == len(weighted)


class TestCellNetwork:
    def test_forward_shape(self, random_genotype, rng):
        net = CellNetwork(random_genotype, num_cells=4, stem_channels=8, rng=rng)
        assert net(x32((2, 3, 16, 16))).shape == (2, 10)

    def test_channel_doubling_at_reductions(self, genotype, rng):
        net = CellNetwork(genotype, num_cells=6, stem_channels=8, rng=rng)
        reductions = [c for c in net.cells if c.reduction]
        assert len(reductions) == 2  # paper: 4 normal + 2 reduction
        channel_seq = [c.channels for c in net.cells]
        assert channel_seq == [8, 8, 16, 16, 32, 32]

    def test_backward_full_chain(self, genotype, rng):
        net = CellNetwork(genotype, num_cells=3, stem_channels=4, rng=rng)
        x = x32((2, 3, 8, 8))
        logits = net(x)
        loss, grad = F.softmax_cross_entropy(logits, np.array([1, 2]))
        gx = net.backward(grad)
        assert gx.shape == x.shape
        assert np.isfinite(gx).all()

    def test_gradient_descends_loss(self, genotype, rng):
        """One SGD step along the computed gradient must reduce the loss."""
        from repro.nn.optim import SGD

        net = CellNetwork(genotype, num_cells=3, stem_channels=4, rng=rng)
        x = x32((8, 3, 8, 8), seed=4)
        y = np.random.default_rng(5).integers(0, 10, 8)
        opt = SGD(net.parameters(), lr=0.05, momentum=0.0, weight_decay=0.0)
        logits = net(x)
        loss0, grad = F.softmax_cross_entropy(logits, y)
        net.backward(grad)
        opt.step()
        # Re-evaluate on the same batch (training-mode BN, same stats source).
        loss1, _ = F.softmax_cross_entropy(net(x), y)
        assert loss1 < loss0

    def test_param_count_grows_with_cells(self, genotype, rng):
        small = CellNetwork(genotype, num_cells=3, stem_channels=4, rng=rng)
        large = CellNetwork(genotype, num_cells=6, stem_channels=4, rng=rng)
        assert large.num_parameters() > small.num_parameters()

    def test_deterministic_given_rng(self, genotype):
        a = CellNetwork(genotype, num_cells=3, stem_channels=4,
                        rng=np.random.default_rng(11))
        b = CellNetwork(genotype, num_cells=3, stem_channels=4,
                        rng=np.random.default_rng(11))
        x = x32((2, 3, 8, 8), seed=6)
        assert np.array_equal(a(x), b(x))

    def test_many_random_genotypes_run(self):
        space = DnnSpace()
        rng = np.random.default_rng(21)
        x = x32((1, 3, 8, 8), seed=7)
        for _ in range(8):
            g = space.sample(rng)
            net = CellNetwork(g, num_cells=3, stem_channels=4, rng=rng)
            logits = net(x)
            assert logits.shape == (1, 10)
            assert np.isfinite(logits).all()
            net.backward(np.ones_like(logits))
