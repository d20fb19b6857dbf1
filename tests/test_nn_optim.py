"""Unit tests for optimizers, clipping, and LR schedules (repro.nn.optim)."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import Tensor
from repro.nn.optim import SGD, Adam, clip_grad_norm, CosineAnnealingLR, StepLR


def quadratic_param(value=5.0):
    return Tensor(np.array([value]), requires_grad=True)


def grad_step(param, opt):
    opt.zero_grad()
    loss = (param * param).sum()
    loss.backward()
    opt.step()


class TestSGD:
    def test_plain_sgd_matches_formula(self):
        p = quadratic_param(2.0)
        SGD([p], lr=0.1).step_ = None  # noqa: placeholder to ensure attribute access ok
        opt = SGD([p], lr=0.1)
        grad_step(p, opt)
        # p <- p - lr * 2p = 2 - 0.1*4 = 1.6
        assert p.data[0] == pytest.approx(1.6)

    def test_momentum_accumulates(self):
        p = quadratic_param(1.0)
        opt = SGD([p], lr=0.1, momentum=0.9)
        grad_step(p, opt)  # v=2, p=0.8
        assert p.data[0] == pytest.approx(0.8)
        grad_step(p, opt)  # grad=1.6, v=0.9*2+1.6=3.4, p=0.8-0.34=0.46
        assert p.data[0] == pytest.approx(0.46)

    def test_weight_decay_pulls_to_zero(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        loss = (p * 0.0).sum()  # zero data gradient
        loss.backward()
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_converges_on_quadratic(self):
        p = quadratic_param(10.0)
        opt = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(300):
            grad_step(p, opt)
        assert abs(p.data[0]) < 1e-3

    def test_skips_params_without_grad(self):
        p, q = quadratic_param(1.0), quadratic_param(1.0)
        opt = SGD([p, q], lr=0.1)
        opt.zero_grad()
        (p * p).sum().backward()
        opt.step()
        assert q.data[0] == 1.0

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.0)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.1, momentum=1.0)


class TestAdam:
    def test_first_step_is_lr_sized(self):
        p = quadratic_param(1.0)
        opt = Adam([p], lr=0.01)
        grad_step(p, opt)
        # Bias-corrected first Adam step has magnitude ~lr.
        assert p.data[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_converges_on_quadratic(self):
        p = quadratic_param(3.0)
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            grad_step(p, opt)
        assert abs(p.data[0]) < 1e-2

    def test_weight_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        opt = Adam([p], lr=0.01, weight_decay=0.1)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert p.data[0] < 2.0


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([3.0])
        norm = clip_grad_norm([p], max_norm=5.0)
        assert norm == pytest.approx(3.0)
        assert p.grad[0] == pytest.approx(3.0)

    def test_clips_to_max_norm(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([3.0, 4.0])  # norm 5
        clip_grad_norm([p], max_norm=1.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)
        np.testing.assert_allclose(p.grad, [0.6, 0.8])

    def test_multiple_params_use_global_norm(self):
        p1 = Tensor(np.zeros(1), requires_grad=True)
        p2 = Tensor(np.zeros(1), requires_grad=True)
        p1.grad, p2.grad = np.array([3.0]), np.array([4.0])
        clip_grad_norm([p1, p2], max_norm=5.0)
        np.testing.assert_allclose([p1.grad[0], p2.grad[0]], [3.0, 4.0])
        clip_grad_norm([p1, p2], max_norm=2.5)
        np.testing.assert_allclose([p1.grad[0], p2.grad[0]], [1.5, 2.0])

    def test_params_without_grad_ignored(self):
        p1 = Tensor(np.zeros(1), requires_grad=True)
        p2 = Tensor(np.zeros(1), requires_grad=True)
        p1.grad = np.array([10.0])
        norm = clip_grad_norm([p1, p2], max_norm=1.0)
        assert norm == pytest.approx(10.0)


class TestSchedules:
    def test_cosine_reaches_eta_min(self):
        opt = SGD([quadratic_param()], lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=10, eta_min=0.1)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_cosine_halfway(self):
        opt = SGD([quadratic_param()], lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=10)
        for _ in range(5):
            sched.step()
        assert opt.lr == pytest.approx(0.5)

    def test_cosine_monotone_decreasing(self):
        opt = SGD([quadratic_param()], lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=20)
        lrs = []
        for _ in range(20):
            sched.step()
            lrs.append(opt.lr)
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_cosine_saturates_after_t_max(self):
        opt = SGD([quadratic_param()], lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=5, eta_min=0.2)
        for _ in range(12):
            sched.step()
        assert opt.lr == pytest.approx(0.2)

    def test_step_lr(self):
        opt = SGD([quadratic_param()], lr=1.0)
        sched = StepLR(opt, step_size=3, gamma=0.1)
        for _ in range(3):
            sched.step()
        assert opt.lr == pytest.approx(0.1)
        for _ in range(3):
            sched.step()
        assert opt.lr == pytest.approx(0.01)

    def test_invalid_t_max(self):
        opt = SGD([quadratic_param()], lr=1.0)
        with pytest.raises(ValueError):
            CosineAnnealingLR(opt, t_max=0)


class TestSerialize:
    def test_state_roundtrip_bytes(self):
        from repro.nn import pack_state, unpack_state

        state = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3)}
        restored = unpack_state(pack_state(state))
        assert set(restored) == {"w", "b"}
        np.testing.assert_allclose(restored["w"], state["w"])

    def test_state_size_bytes(self):
        from repro.nn import state_size_bytes

        state = {"w": np.zeros((10, 10)), "b": np.zeros(10)}
        assert state_size_bytes(state) == 4 * 110

    def test_clone_state_is_deep(self):
        from repro.nn import clone_state

        state = {"w": np.zeros(3)}
        cloned = clone_state(state)
        cloned["w"][...] = 5
        assert (state["w"] == 0).all()

    def test_model_size_megabytes(self):
        from repro.nn import model_size_megabytes

        model = nn.Linear(500, 500)  # 250500 params -> ~1.002 MB
        assert model_size_megabytes(model) == pytest.approx(4 * 250500 / 1e6)
