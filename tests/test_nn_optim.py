"""Tests for optimisers and the cosine learning-rate schedule."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam, CosineSchedule, clip_grad_norm


def make_param(value=1.0, grad=0.5, weight_decay=True):
    p = Parameter(np.full(3, value), weight_decay=weight_decay)
    p.grad += grad
    return p


class TestSGD:
    def test_basic_step(self):
        p = make_param(weight_decay=False)
        SGD([p], lr=0.1, momentum=0.0, weight_decay=0.0).step()
        assert np.allclose(p.data, 1.0 - 0.1 * 0.5)

    def test_momentum_accumulates(self):
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=1.0, momentum=0.5, weight_decay=0.0)
        p.grad[:] = 1.0
        opt.step()  # v = -1, x = -1
        p.grad[:] = 1.0
        opt.step()  # v = -1.5, x = -2.5
        assert np.isclose(p.data[0], -2.5)

    def test_weight_decay_applied_only_when_flagged(self):
        decayed = make_param()
        plain = make_param(weight_decay=False)
        opt = SGD([decayed, plain], lr=0.1, momentum=0.0, weight_decay=0.1)
        opt.step()
        # Same gradient: the decay term moves the flagged parameter further.
        assert np.allclose(plain.data, 1.0 - 0.1 * 0.5)
        assert np.all(decayed.data < plain.data)
        assert np.allclose(decayed.data, 1.0 - 0.1 * (0.5 + 0.1 * 1.0))

    def test_skip_zero_grad_leaves_param_untouched(self):
        p = Parameter(np.ones(2))
        opt = SGD([p], lr=0.1, weight_decay=0.1)
        opt.step()
        assert np.allclose(p.data, 1.0)

    def test_skip_zero_grad_velocity_frozen(self):
        """A parameter off the sampled path must not coast on old momentum."""
        p = Parameter(np.zeros(1))
        opt = SGD([p], lr=1.0, momentum=0.9, weight_decay=0.0)
        p.grad[:] = 1.0
        opt.step()
        moved = p.data.copy()
        p.zero_grad()
        opt.step()  # zero grad: should not move
        assert np.array_equal(p.data, moved)

    def test_zero_grad(self):
        p = make_param()
        opt = SGD([p])
        opt.zero_grad()
        assert np.all(p.grad == 0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([])


class TestAdam:
    def test_first_step_is_lr_sized(self):
        p = Parameter(np.zeros(1))
        p.grad[:] = 0.5
        Adam([p], lr=0.01).step()
        # Bias-corrected first Adam step is ~lr * sign(grad).
        assert np.isclose(p.data[0], -0.01, rtol=1e-4)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            p.zero_grad()
            p.grad[:] = 2.0 * p.data  # d/dx x^2
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_weight_decay(self):
        p = Parameter(np.ones(1))
        opt = Adam([p], lr=0.01, weight_decay=1.0)
        opt.step()  # grad = 0 + wd*1 -> moves down
        assert p.data[0] < 1.0

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([])


class TestCosineSchedule:
    def test_endpoints(self):
        sched = CosineSchedule(0.05, 0.0001, total_steps=300)
        assert np.isclose(sched.lr_at(0), 0.05)
        assert np.isclose(sched.lr_at(299), 0.0001)

    def test_monotone_decreasing(self):
        sched = CosineSchedule(0.1, 0.001, total_steps=50)
        lrs = [sched.lr_at(i) for i in range(50)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_midpoint(self):
        sched = CosineSchedule(1.0, 0.0, total_steps=101)
        assert np.isclose(sched.lr_at(50), 0.5, atol=1e-6)

    def test_clamps_out_of_range(self):
        sched = CosineSchedule(0.1, 0.01, total_steps=10)
        assert sched.lr_at(-5) == sched.lr_at(0)
        assert sched.lr_at(100) == sched.lr_at(9)

    def test_apply_sets_optimiser_lr(self):
        p = make_param()
        opt = SGD([p], lr=99.0)
        sched = CosineSchedule(0.05, 0.001, total_steps=10)
        lr = sched.apply(opt, 0)
        assert opt.lr == lr == 0.05

    def test_single_step_schedule(self):
        assert CosineSchedule(0.1, 0.01, total_steps=1).lr_at(0) == 0.1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            CosineSchedule(total_steps=0)
        with pytest.raises(ValueError):
            CosineSchedule(lr_max=0.001, lr_min=0.1)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = make_param(grad=0.1)
        before = p.grad.copy()
        norm = clip_grad_norm([p], max_norm=10.0)
        assert np.array_equal(p.grad, before)
        assert np.isclose(norm, np.sqrt(3 * 0.01), rtol=1e-5)

    def test_clips_above_threshold(self):
        p = make_param(grad=10.0)
        clip_grad_norm([p], max_norm=1.0)
        total = np.sqrt(np.sum(p.grad**2))
        assert np.isclose(total, 1.0, rtol=1e-5)

    def test_multiple_params_global_norm(self):
        a, b = make_param(grad=3.0), make_param(grad=4.0)
        clip_grad_norm([a, b], max_norm=1.0)
        total = np.sqrt(np.sum(a.grad**2) + np.sum(b.grad**2))
        assert np.isclose(total, 1.0, rtol=1e-5)
