import math

import numpy as np
import pytest

from kltrust.baselines import Adam, AdamW, BaselineConfig, SGDMomentum, make_baseline
from kltrust.errors import NonFiniteError


# ---------------------------------------------------------------------------
# hand-stepped scalar oracles (plain floats, no numpy) for 3-step sequences
# ---------------------------------------------------------------------------

def sgd_oracle(theta, gs, lr, mom, wd):
    buf = 0.0
    out = []
    for g in gs:
        g = g + wd * theta
        buf = mom * buf + g
        theta = theta - lr * buf
        out.append(theta)
    return out


def adam_oracle(theta, gs, lr, b1, b2, eps, wd, decoupled):
    m = v = 0.0
    out = []
    for t, g in enumerate(gs, start=1):
        if decoupled:
            theta = theta * (1.0 - lr * wd)
        else:
            g = g + wd * theta
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out


def run(cls, cfg, theta0, gs):
    opt = cls(1, cfg, np.array([theta0]))
    out = []
    for g in gs:
        opt.step(np.array([g]))
        out.append(opt.mean[0])
    return out


# ---------------------------------------------------------------------------
# sgd
# ---------------------------------------------------------------------------

def test_sgd_momentum_two_steps():
    cfg = BaselineConfig(kind="sgd_momentum", learning_rate=0.1, momentum=0.9)
    traj = run(SGDMomentum, cfg, 0.0, [1.0, 1.0])
    assert traj[0] == pytest.approx(-0.1, rel=1e-14)
    assert traj[1] == pytest.approx(-0.29, rel=1e-14)


def test_sgd_three_step_oracle():
    cfg = BaselineConfig(
        kind="sgd_momentum", learning_rate=0.03, momentum=0.85, weight_decay=0.01
    )
    gs = [1.0, -0.4, 2.2]
    traj = run(SGDMomentum, cfg, 0.7, gs)
    expect = sgd_oracle(0.7, gs, 0.03, 0.85, 0.01)
    for got, want in zip(traj, expect):
        assert got == pytest.approx(want, abs=1e-12)


def test_sgd_zero_momentum_is_plain_sgd():
    cfg = BaselineConfig(kind="sgd_momentum", learning_rate=0.2)
    traj = run(SGDMomentum, cfg, 1.0, [0.5])
    assert traj[0] == pytest.approx(1.0 - 0.2 * 0.5, rel=1e-14)


def test_sgd_zero_gradient_noop():
    cfg = BaselineConfig(kind="sgd_momentum", learning_rate=0.2, momentum=0.9)
    traj = run(SGDMomentum, cfg, 1.5, [0.0])
    assert traj[0] == 1.5


# ---------------------------------------------------------------------------
# adam / adamw
# ---------------------------------------------------------------------------

def test_adam_first_step_is_lr():
    cfg = BaselineConfig(kind="adam", learning_rate=0.1)
    traj = run(Adam, cfg, 0.0, [1.0])
    assert traj[0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_zero_gradient_noop():
    cfg = BaselineConfig(kind="adam", learning_rate=0.1)
    traj = run(Adam, cfg, 0.3, [0.0])
    assert traj[0] == 0.3


def test_adamw_pure_decay():
    cfg = BaselineConfig(kind="adamw", learning_rate=0.1, weight_decay=0.01)
    traj = run(AdamW, cfg, 1.0, [0.0])
    assert traj[0] == pytest.approx(0.999, rel=1e-14)


def test_adam_three_step_oracle():
    cfg = BaselineConfig(
        kind="adam", learning_rate=0.05, beta1=0.8, beta2=0.95, weight_decay=0.02
    )
    gs = [1.0, -0.3, 0.7]
    traj = run(Adam, cfg, -0.2, gs)
    expect = adam_oracle(-0.2, gs, 0.05, 0.8, 0.95, 1e-8, 0.02, decoupled=False)
    for got, want in zip(traj, expect):
        assert got == pytest.approx(want, abs=1e-12)


def test_adamw_three_step_oracle():
    cfg = BaselineConfig(
        kind="adamw", learning_rate=0.05, beta1=0.8, beta2=0.95, weight_decay=0.02
    )
    gs = [1.0, -0.3, 0.7]
    traj = run(AdamW, cfg, -0.2, gs)
    expect = adam_oracle(-0.2, gs, 0.05, 0.8, 0.95, 1e-8, 0.02, decoupled=True)
    for got, want in zip(traj, expect):
        assert got == pytest.approx(want, abs=1e-12)


def test_adam_moments_update_in_place():
    # m and v are written in place, and the held point is never overwritten
    for cls, kind in ((Adam, "adam"), (AdamW, "adamw")):
        cfg = BaselineConfig(kind=kind, learning_rate=0.05, weight_decay=0.02)
        opt = cls(3, cfg, np.ones(3))
        m, v = opt.moments.m, opt.moments.v
        for g in np.random.default_rng(4).normal(size=(3, 3)):
            params = opt.mean
            held = params.copy()
            opt.step(g)
            assert opt.moments.m is m and opt.moments.v is v
            assert np.array_equal(params, held) and opt.mean is not params
        assert opt.moments.t == 3 and np.all(v > 0.0)


def test_adam_equals_adamw_without_decay():
    gs = np.random.default_rng(1).normal(size=(20, 3))
    cfg_a = BaselineConfig(kind="adam", learning_rate=0.01)
    cfg_w = BaselineConfig(kind="adamw", learning_rate=0.01)
    a, w = Adam(3, cfg_a, np.ones(3)), AdamW(3, cfg_w, np.ones(3))
    for g in gs:
        a.step(g)
        w.step(g)
        assert np.array_equal(a.mean, w.mean)


# ---------------------------------------------------------------------------
# schedule / validation / factory
# ---------------------------------------------------------------------------

def test_lr_decays_at_milestones():
    cfg = BaselineConfig(
        kind="sgd_momentum", learning_rate=1.0, schedule_milestones=(1, 3)
    )
    opt = SGDMomentum(1, cfg, np.zeros(1))
    opt.on_epoch_end()
    assert opt.lr == pytest.approx(0.1, rel=1e-14)
    opt.on_epoch_end()
    assert opt.lr == pytest.approx(0.1, rel=1e-14)
    opt.on_epoch_end()
    assert opt.lr == pytest.approx(0.01, rel=1e-14)


def test_rejects_non_finite_input():
    for kind in ("sgd_momentum", "adam", "adamw"):
        cfg = BaselineConfig(kind=kind, learning_rate=0.1)
        with pytest.raises(NonFiniteError):
            make_baseline(1, cfg, np.array([np.inf])).step(np.array([1.0]))
        with pytest.raises(NonFiniteError):
            make_baseline(1, cfg, np.array([1.0])).step(np.array([np.nan]))
        with pytest.raises(ValueError, match="shape"):
            make_baseline(1, cfg, np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            make_baseline(1, cfg, np.zeros(1)).step(np.zeros(2))


def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(kind="rmsprop", learning_rate=0.1)
    with pytest.raises(ValueError):
        BaselineConfig(kind="adam", learning_rate=0.0)
    with pytest.raises(ValueError):
        BaselineConfig(kind="adam", learning_rate=0.1, beta2=1.0)


def test_factory_dispatch():
    for kind, cls in (("sgd_momentum", SGDMomentum), ("adam", Adam), ("adamw", AdamW)):
        mu0 = np.zeros(2)
        opt = make_baseline(2, BaselineConfig(kind=kind, learning_rate=0.1), mu0)
        assert type(opt) is cls
        assert opt.mean is mu0  # the point is held, not copied
