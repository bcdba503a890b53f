import math
import re

import numpy as np
import pytest

from kltrust.baselines import Adam, AdamW, BaselineConfig, Optimizer, SGDMomentum
from kltrust.data import Dataset, SyntheticQuadraticTask, minibatches, synthetic_grad
from kltrust.errors import NonFiniteError
from kltrust.harness import OPTIMIZERS, RunConfig, _QuadraticModel
from kltrust.models import MLP, Batch, SmallCNN, fd_check
from kltrust.optimizer import TrustRegionConfig, TrustRegionOptimizer
from kltrust.surrogate import filter_update, init_state


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
    cfg = BaselineConfig(learning_rate=0.1, momentum=0.9)
    traj = run(SGDMomentum, cfg, 0.0, [1.0, 1.0])
    assert traj[0] == pytest.approx(-0.1, rel=1e-14)
    assert traj[1] == pytest.approx(-0.29, rel=1e-14)


def test_sgd_three_step_oracle():
    cfg = BaselineConfig(
        learning_rate=0.03, momentum=0.85, weight_decay=0.01
    )
    gs = [1.0, -0.4, 2.2]
    traj = run(SGDMomentum, cfg, 0.7, gs)
    expect = sgd_oracle(0.7, gs, 0.03, 0.85, 0.01)
    for got, want in zip(traj, expect):
        assert got == pytest.approx(want, abs=1e-12)


def test_sgd_zero_momentum_is_plain_sgd():
    cfg = BaselineConfig(learning_rate=0.2)
    traj = run(SGDMomentum, cfg, 1.0, [0.5])
    assert traj[0] == pytest.approx(1.0 - 0.2 * 0.5, rel=1e-14)


def test_sgd_zero_gradient_noop():
    cfg = BaselineConfig(learning_rate=0.2, momentum=0.9)
    traj = run(SGDMomentum, cfg, 1.5, [0.0])
    assert traj[0] == 1.5


# ---------------------------------------------------------------------------
# adam / adamw
# ---------------------------------------------------------------------------

def test_adam_first_step_is_lr():
    cfg = BaselineConfig(learning_rate=0.1)
    traj = run(Adam, cfg, 0.0, [1.0])
    assert traj[0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_zero_gradient_noop():
    cfg = BaselineConfig(learning_rate=0.1)
    traj = run(Adam, cfg, 0.3, [0.0])
    assert traj[0] == 0.3


def test_adamw_pure_decay():
    cfg = BaselineConfig(learning_rate=0.1, weight_decay=0.01)
    traj = run(AdamW, cfg, 1.0, [0.0])
    assert traj[0] == pytest.approx(0.999, rel=1e-14)


def test_adam_three_step_oracle():
    cfg = BaselineConfig(
        learning_rate=0.05, beta1=0.8, beta2=0.95, weight_decay=0.02
    )
    gs = [1.0, -0.3, 0.7]
    traj = run(Adam, cfg, -0.2, gs)
    expect = adam_oracle(-0.2, gs, 0.05, 0.8, 0.95, 1e-8, 0.02, decoupled=False)
    for got, want in zip(traj, expect):
        assert got == pytest.approx(want, abs=1e-12)


def test_adamw_three_step_oracle():
    cfg = BaselineConfig(
        learning_rate=0.05, beta1=0.8, beta2=0.95, weight_decay=0.02
    )
    gs = [1.0, -0.3, 0.7]
    traj = run(AdamW, cfg, -0.2, gs)
    expect = adam_oracle(-0.2, gs, 0.05, 0.8, 0.95, 1e-8, 0.02, decoupled=True)
    for got, want in zip(traj, expect):
        assert got == pytest.approx(want, abs=1e-12)


def test_adam_moments_update_in_place():
    # m and v are written in place, and the held point is never overwritten
    for cls in (Adam, AdamW):
        cfg = BaselineConfig(learning_rate=0.05, weight_decay=0.02)
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
    cfg_a = BaselineConfig(learning_rate=0.01)
    cfg_w = BaselineConfig(learning_rate=0.01)
    a, w = Adam(3, cfg_a, np.ones(3)), AdamW(3, cfg_w, np.ones(3))
    for g in gs:
        a.step(g)
        w.step(g)
        assert np.array_equal(a.mean, w.mean)


# ---------------------------------------------------------------------------
# schedule / validation / construction
# ---------------------------------------------------------------------------

def test_lr_decays_at_milestones():
    cfg = BaselineConfig(learning_rate=1.0, schedule_milestones=(1, 3))
    opt = SGDMomentum(1, cfg, np.zeros(1))
    opt.on_epoch_end()
    assert opt.config.learning_rate == pytest.approx(0.1, rel=1e-14)
    assert opt.config.schedule_milestones == (3,)  # only the decays still ahead
    opt.on_epoch_end()
    assert opt.config.learning_rate == pytest.approx(0.1, rel=1e-14)
    opt.on_epoch_end()
    assert opt.config.learning_rate == pytest.approx(0.01, rel=1e-14)
    assert opt.config.schedule_milestones == ()
    # the caller's config is replaced, not written
    assert cfg == BaselineConfig(learning_rate=1.0, schedule_milestones=(1, 3))


# every optimizer class, by its name in the harness's table
NAMES = {SGDMomentum: "sgd", Adam: "adam", AdamW: "adamw", TrustRegionOptimizer: "trust_region"}
each_optimizer = pytest.mark.parametrize("cls", list(NAMES), ids=lambda cls: cls.__name__)


def _config(cls):
    return TrustRegionConfig() if cls is TrustRegionOptimizer else BaselineConfig(0.1)


@each_optimizer
def test_rejects_non_finite_input(cls):
    # one message for every optimizer, naming the step that met the bad value
    for value in (np.inf, -np.inf, np.nan):
        opt = cls(2, _config(cls), np.zeros(2))
        opt.step(np.ones(2))
        with pytest.raises(NonFiniteError, match="^non-finite point or gradient at step 1$"):
            opt.step(np.array([1.0, value]))
        opt.mean[0] = value  # the held point, written under the optimizer
        with pytest.raises(NonFiniteError, match="^non-finite point or gradient at step 1$"):
            opt.step(np.ones(2))
    with pytest.raises(ValueError, match=r"gradient has shape \(3,\), expected \(2,\)"):
        opt.step(np.zeros(3))


def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        BaselineConfig(learning_rate=0.1, beta2=1.0)


@each_optimizer
def test_factory_dispatch(cls):
    assert OPTIMIZERS[NAMES[cls]] is cls  # the harness's one name table
    mu0 = np.zeros(2)
    opt = cls(2, _config(cls), mu0)
    assert isinstance(opt, Optimizer) and opt.n == 2 and opt.step_count == opt.epoch == 0
    assert opt.mean is mu0  # the point is held, not copied
    with pytest.raises(ValueError, match=r"mu0 has shape \(3,\), expected \(2,\)"):
        cls(2, _config(cls), np.zeros(3))


BASE = dict(learning_rate=0.1, momentum=0.5, beta1=0.8, beta2=0.9, adam_eps=1e-3,
            weight_decay=0.01, schedule_milestones=(1,), lr_decay_factor=0.5)


def _trajectory(cls, **changed):
    opt = cls(2, BaselineConfig(**{**BASE, **changed}), np.array([1.0, -2.0]))
    points = []
    for g in ([0.3, -0.1], [0.2, 0.4], [-0.5, 0.1]):
        opt.step(np.array(g))
        opt.on_epoch_end()
        points.append(opt.mean)
    return np.concatenate(points)


@pytest.mark.parametrize("cls", [SGDMomentum, Adam, AdamW])
@pytest.mark.parametrize("name", ["learning_rate", "momentum", "beta1", "beta2", "adam_eps",
                                  "weight_decay", "lr_decay_factor"])
def test_unread_names_exactly_the_fields_a_step_ignores(cls, name):
    # RunConfig rejects a hyperparameter in UNREAD, so UNREAD must not name one that acts
    moved = not np.array_equal(_trajectory(cls), _trajectory(cls, **{name: BASE[name] * 0.9}))
    assert moved == (name not in cls.UNREAD)


def _filter(q=0.1, r=1.0):
    return filter_update(init_state(2, 1.0), np.zeros(2), np.zeros(2), q, r)


def _quadratic_task(noise_scale):
    return SyntheticQuadraticTask(np.zeros(2), np.ones(2), noise_scale)


def _run_config(**kw):
    return RunConfig(task="synthetic_quadratic", optimizer="adam",
                     hyperparams={"learning_rate": 0.1}, **kw)


def _fd_check(h):
    model = MLP((2, 2))
    return fd_check(model, model.init_params(0), Batch(np.ones((1, 2)), np.array([1])), [0], h)


# every size and setting checked outside the configs: (where, name in the message, rule, call)
SITES = [
    ("init_state", "n", "count", lambda v: init_state(v, 1e-3)),
    ("init_state", "p0", "positive", lambda v: init_state(2, v)),
    ("filter_update", "q", "non_negative", lambda v: _filter(q=v)),
    ("filter_update", "r", "positive", lambda v: _filter(r=v)),
    ("minibatches", "batch_size", "count",
     lambda v: next(minibatches(Dataset(np.zeros((4, 1)), np.zeros(4, int)), v, 0, 0))),
    ("synthetic_grad", "draws", "count",
     lambda v: synthetic_grad(_quadratic_task(1.0), np.zeros(2), 0, v)),
    ("SyntheticQuadraticTask", "noise_scale", "non_negative", _quadratic_task),
    ("MLP", "layer_sizes[0]", "count", lambda v: MLP((v, 2))),
    ("MLP", "layer_sizes[1]", "count", lambda v: MLP((4, v))),
    ("SmallCNN", "in_shape[0]", "count", lambda v: SmallCNN((v, 8, 8), 3, channels=(2, 3))),
    ("SmallCNN", "channels[0]", "count", lambda v: SmallCNN((1, 8, 8), 3, channels=(v, 3))),
    ("SmallCNN", "channels[1]", "count", lambda v: SmallCNN((1, 8, 8), 3, channels=(2, v))),
    ("SmallCNN", "num_classes", "count", lambda v: SmallCNN((1, 8, 8), v, channels=(2, 3))),
    ("fd_check", "h", "positive", _fd_check),
    ("RunConfig", "epochs", "count", lambda v: _run_config(epochs=v)),
    ("RunConfig", "batch_size", "count", lambda v: _run_config(batch_size=v)),
    ("RunConfig", "eval_every", "count", lambda v: _run_config(eval_every=v)),
    ("_QuadraticModel", "n", "count", lambda v: _QuadraticModel(4, 0, n=v)),
    ("_QuadraticModel", "steps_per_epoch", "count",
     lambda v: _QuadraticModel(4, 0, steps_per_epoch=v)),
]
# a bool is never a size or a real, a float is never truncated to a size
BAD = {"count": (True, 4.7, 0, -2),
       "positive": (True, 0.0, -1.0, math.nan, math.inf),
       "non_negative": (True, -1e-3, math.nan, math.inf)}
CASES = [(f"{where}.{name}-{bad}", name, call, bad)
         for where, name, rule, call in SITES for bad in BAD[rule]]


@pytest.mark.parametrize("name,call,bad", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_every_size_and_setting_is_judged_by_the_shared_rules(name, call, bad):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "):
        call(bad)


@pytest.mark.parametrize("rule,call", [site[2:] for site in SITES],
                         ids=[f"{site[0]}.{site[1]}" for site in SITES])
def test_every_site_accepts_a_value_at_the_edge_of_its_rule(rule, call):
    call({"count": 1, "positive": 1e-6, "non_negative": 0.0}[rule])
