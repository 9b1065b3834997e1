"""Tests for the Module/Parameter containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import BatchNorm2d, Conv2d, Linear, ReLU, Sequential
from repro.nn.module import Module, Parameter, init_kaiming, init_ones, init_zeros


class TestParameter:
    def test_stores_float32(self):
        p = Parameter(np.zeros((2, 2), dtype=np.float64))
        assert p.data.dtype == np.float32

    def test_grad_initialised_to_zero(self):
        p = Parameter(np.ones((3,)))
        assert np.all(p.grad == 0)
        assert p.grad.shape == (3,)

    def test_zero_grad(self):
        p = Parameter(np.ones((3,)))
        p.grad += 5.0
        p.zero_grad()
        assert np.all(p.grad == 0)

    def test_weight_decay_flag(self):
        assert Parameter(np.ones(1)).weight_decay is True
        assert Parameter(np.ones(1), weight_decay=False).weight_decay is False

    def test_shape_property(self):
        assert Parameter(np.zeros((2, 3))).shape == (2, 3)


class TestModuleTraversal:
    def test_sequential_collects_all_parameters(self):
        net = Sequential(Conv2d(3, 4, 3), BatchNorm2d(4), ReLU(), Linear(4, 2))
        params = list(net.parameters())
        # conv weight, bn gamma+beta, linear weight+bias
        assert len(params) == 5

    def test_nested_lists_and_dicts_traversed(self):
        class Holder(Module):
            def __init__(self):
                super().__init__()
                self.items = [Conv2d(1, 1, 1), {"a": Linear(2, 2)}]
                self.lone = Parameter(np.zeros(3))

        params = list(Holder().parameters())
        assert len(params) == 4  # conv w, linear w+b, lone

    def test_shared_parameter_yielded_once(self):
        class Shared(Module):
            def __init__(self):
                super().__init__()
                self.p = Parameter(np.zeros(2))
                self.alias = self.p

        assert len(list(Shared().parameters())) == 1

    def test_num_parameters(self):
        net = Sequential(Linear(4, 3))
        assert net.num_parameters() == 4 * 3 + 3

    def test_zero_grad_recursive(self):
        net = Sequential(Linear(4, 3), Linear(3, 2))
        for p in net.parameters():
            p.grad += 1.0
        net.zero_grad()
        assert all(np.all(p.grad == 0) for p in net.parameters())


class TestModes:
    def test_train_eval_propagates(self):
        net = Sequential(Conv2d(3, 4, 3), BatchNorm2d(4))
        net.eval()
        assert not net.training
        assert not net[1].training
        net.train()
        assert net[1].training

    def test_bn_eval_mode_has_no_cache(self):
        bn = BatchNorm2d(2)
        bn.eval()
        bn(np.random.default_rng(0).normal(size=(2, 2, 3, 3)).astype(np.float32))
        with pytest.raises(RuntimeError):
            bn.backward(np.ones((2, 2, 3, 3), dtype=np.float32))


class TestInitialisers:
    def test_kaiming_scale(self):
        rng = np.random.default_rng(0)
        w = init_kaiming((64, 32, 3, 3), rng)
        expected_std = np.sqrt(2.0 / (32 * 9))
        assert abs(w.std() - expected_std) / expected_std < 0.1

    def test_zeros_ones(self):
        assert np.all(init_zeros((3,)) == 0)
        assert np.all(init_ones((3,)) == 1)

    def test_kaiming_1d(self):
        rng = np.random.default_rng(0)
        assert init_kaiming((5,), rng).shape == (5,)
