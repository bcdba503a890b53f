import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from dual_oracle import checked_solve
from test_halves import on_cpus
from test_surrogate import copied, unfused_update

import kltrust.optimizer as optimizer_mod
from kltrust import baselines, harness
from kltrust.baselines import BaselineConfig, Optimizer
from kltrust.data import SyntheticQuadraticTask, synthetic_grad
from kltrust.errors import NonFiniteError
from kltrust.models import MLP, Batch
from kltrust.optimizer import MODES, StepDiagnostics, TrustRegionConfig, TrustRegionOptimizer
from kltrust.surrogate import filter_update, init_state
from kltrust.trust_region import ETA_MIN, solve_eta


def quadratic_grad(D, theta_star):
    def grad(mu):
        return D * (mu - theta_star)
    return grad


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_init_defaults():
    opt = TrustRegionOptimizer(2, TrustRegionConfig(), mu0=np.array([0.3, -0.1]))
    assert np.array_equal(opt.dist.sigma2, [0.01, 0.01])
    assert np.array_equal(opt.filter.p11, [5e-5, 5e-5])
    assert np.array_equal(opt.filter.p22, [5e-5, 5e-5])
    assert opt.step_count == 0 and opt.epoch == 0
    assert not hasattr(opt, "epsilon")  # the bound has one home, opt.config


def test_init_sigma_override():
    opt = TrustRegionOptimizer(1, TrustRegionConfig(sigma2_init=1.0), mu0=np.zeros(1))
    assert opt.dist.sigma2[0] == 1.0


def test_init_dimension_mismatch():
    with pytest.raises(ValueError):
        TrustRegionOptimizer(2, TrustRegionConfig(), mu0=np.zeros(3))


def test_config_validation():
    with pytest.raises(ValueError):
        TrustRegionConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        TrustRegionConfig(mode="bogus")
    with pytest.raises(ValueError):
        TrustRegionConfig(mode="fixed-eta")  # needs fixed_eta value
    with pytest.raises(ValueError, match="mode"):  # the variants have one spelling
        TrustRegionConfig(mode="fixed_eta", fixed_eta=1.0)
    with pytest.raises(ValueError):
        TrustRegionConfig(schedule_milestones=(5, 3))


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def test_converged_surrogate_takes_newton_step():
    # scalar objective with curvature 2 and minimum at 2: prime the filter
    # on varied points of the gradient line g = 2*mu - 4, then a single
    # step with a large bound is the interior Newton step onto -b/a = 2
    cfg = TrustRegionConfig(
        epsilon=5.0, rho=0.0, q=0.0, r=1e-9, sigma2_init=1.0, weight_decay=0.0
    )
    opt = TrustRegionOptimizer(1, cfg, mu0=np.array([1.5]))
    primed = init_state(1, cfg.p0)
    for mu in (-1.0, 0.5, 3.0, 1.0):
        primed = filter_update(
            primed, np.array([mu]), np.array([2.0 * mu - 4.0]), 0.0, 1e-9
        )
    assert primed.a[0] == pytest.approx(2.0, abs=1e-4)
    opt.filter = primed
    diag = opt.step(np.array([2.0 * 1.5 - 4.0]))
    assert diag.eta_star == 0.0
    assert opt.mean[0] == pytest.approx(2.0, abs=1e-4)


def test_quadratic_iterate_converges_even_as_surrogate_drifts():
    # with drift q > 0 and a settled iterate only the combination
    # a*mu + b stays identified; the iterate itself must still hold at
    # the optimum
    cfg = TrustRegionConfig(epsilon=5.0, rho=0.0, q=0.01, r=1e-6, weight_decay=0.0)
    opt = TrustRegionOptimizer(1, cfg, mu0=np.array([0.0]))
    grad = quadratic_grad(np.array([2.0]), np.array([2.0]))
    for _ in range(300):
        opt.step(grad(opt.mean))
    assert opt.mean[0] == pytest.approx(2.0, abs=1e-3)
    assert 2.0 * opt.filter.a[0] + opt.filter.b[0] == pytest.approx(0.0, abs=1e-3)


def test_slope_tracks_the_true_curvature_on_the_noiseless_quadratic():
    # the filter's slope a estimates the diagonal Hessian: on the shipped
    # quadratic's diagonal (n = 10, diag log-spaced 0.1..10, its initial point)
    # without noise, a / diag read 0.0625..1.039 over steps 20..400; it
    # underestimates the flat directions most
    n = 10
    task = SyntheticQuadraticTask(np.resize([0.5, -0.5], n), np.logspace(-1, 1, n), 0.0)
    mu0 = np.random.default_rng([0, 90210]).normal(0.0, 1.0, n)
    opt = TrustRegionOptimizer(n, TrustRegionConfig(epsilon=0.01), mu0)
    for step in range(400):
        opt.step(synthetic_grad(task, opt.mean, step, 1))
        if step + 1 >= 20:
            assert np.all(0.05 * task.diag <= opt.filter.a), step
            assert np.all(opt.filter.a <= 1.1 * task.diag), step
    assert task.loss(opt.mean) < 1e-6 * task.loss(mu0)


@pytest.mark.parametrize("seed", [0, 1])
def test_slope_reads_the_noisy_curvature_3x_high_from_feedback(seed):
    # on the shipped noisy quadratic (n = 10, batch 32, noise 1) at the
    # defaults, the median a / diag after 2000 steps read 3.14 and 2.95 on
    # seeds 0 and 1 (2.93-3.20 on seeds 0-5). The bias is feedback: the step
    # that moves mu_k is driven by the noise in g_(k-1), so that noise enters
    # both sides of the fit. A fresh filter fed the same path with fresh noise
    # read 1.00 and 1.06 (0.84-1.13 on seeds 0-5)
    model = harness._QuadraticModel(32, seed, n=10, noise_scale=1.0)
    cfg = TrustRegionConfig()
    opt = TrustRegionOptimizer(model.n_params, cfg, model.init_params(seed))
    path = []
    for step in range(2000):
        path.append(opt.mean)
        opt.step(model.loss_and_grad(opt.mean, step)[1])
    diag = model.task.diag
    assert 2.6 < np.median(opt.filter.a / diag) < 3.6
    replay = init_state(model.n_params, cfg.p0)
    for step, mu in enumerate(path):  # keys [seed, 2000 + step, 1]: no draw of the run's
        filter_update(replay, mu, synthetic_grad(model.task, mu, 2000 + step, 32), cfg.q, cfg.r)
    assert 0.7 < np.median(replay.a / diag) < 1.4


def test_fixed_eta_freezes_mean():
    cfg = TrustRegionConfig(mode="fixed-eta", fixed_eta=1e12, weight_decay=0.0)
    mu0 = np.array([0.4, -0.9])
    opt = TrustRegionOptimizer(2, cfg, mu0=mu0)
    opt.step(np.array([5.0, -3.0]))
    assert np.linalg.norm(opt.mean - mu0) / np.linalg.norm(mu0) < 1e-6


def test_decoupled_weight_decay():
    cfg = TrustRegionConfig(mode="fixed-eta", fixed_eta=1e15, weight_decay=0.1)
    opt = TrustRegionOptimizer(1, cfg, mu0=np.array([1.0]))
    opt.step(np.array([0.5]))
    assert opt.mean[0] == pytest.approx(0.9, rel=1e-9)


@pytest.mark.parametrize("mode", MODES)
def test_step_leaves_the_arrays_a_caller_holds_unchanged(mode):
    # the harness holds point = opt.mean across step(), and the step writes
    # its results in place only into arrays it has just allocated, and into
    # the filter state, which is the optimizer's own
    cfg = TrustRegionConfig(mode=mode, fixed_eta=1.0, weight_decay=0.01)
    rng = np.random.default_rng(4)
    opt = TrustRegionOptimizer(6, cfg, mu0=rng.normal(size=6))
    for _ in range(3):
        held = [opt.mean, opt.dist.sigma2]
        copies = [x.copy() for x in held]
        grad = rng.normal(size=6)
        if mode != "adam-surrogate":  # no filter
            state, arrays = opt.filter, list(vars(opt.filter).values())
            expected = filter_update(copied(state), opt.mean, grad, cfg.q, cfg.r)
        opt.step(grad)
        assert opt.mean is not held[0]
        for x, before in zip(held, copies):
            assert np.array_equal(x, before)
        if mode != "adam-surrogate":
            assert opt.filter is state
            for x, new, want in zip(arrays, vars(state).values(), vars(expected).values()):
                assert new is x and np.array_equal(x, want)


@pytest.mark.parametrize("mode", MODES)
def test_step_rebinds_the_distribution_it_built(mode):
    # the distribution is the optimizer's state, built and checked once; each
    # step rebinds its fields to the arrays it has just made and checked
    opt = TrustRegionOptimizer(3, TrustRegionConfig(mode=mode, fixed_eta=1.0), mu0=np.ones(3))
    dist = opt.dist
    for g in np.random.default_rng(6).normal(size=(3, 3)):
        opt.step(g)
        assert opt.dist is dist and opt.dist.mu is opt.mean


def test_nan_mean_from_the_solve_fails_at_the_next_step(monkeypatch):
    # as in the baselines, a step's new point is checked by the next step's
    # _check (or the harness's last-step check), not twice
    def nan_solve(a, b, prev, tr):
        res = solve_eta(a, b, prev, tr)
        res.mu[0] = np.nan
        return res

    monkeypatch.setattr(optimizer_mod, "solve_eta", nan_solve)
    opt = TrustRegionOptimizer(2, TrustRegionConfig(), mu0=np.zeros(2))
    opt.step(np.ones(2))
    assert np.isnan(opt.mean[0])
    with pytest.raises(NonFiniteError, match="non-finite point or gradient at step 1"):
        opt.step(np.ones(2))


@pytest.mark.parametrize("cpus", [1, 2])
def test_step_allocates_fewer_than_four_vectors(monkeypatch, cpus):
    # the new variance, the new mean and the clamped slopes, and block scratch
    # (1.25 n-vectors for the filter at n = 4 BLOCK, freed before the solve's
    # half): the filter state is updated in place, and on two CPUs the
    # worker's half allocates nothing
    n = 4 * baselines.BLOCK
    rng = np.random.default_rng(3)
    opt = TrustRegionOptimizer(n, TrustRegionConfig(), mu0=rng.normal(size=n))
    grad = rng.normal(size=n)
    tracemalloc.start()
    try:
        diag = on_cpus(monkeypatch, cpus, lambda: opt.step(grad))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.clamped > 0  # the clamp's copy is in the peak
    assert 3 * 8 * n <= peak < 4 * 8 * n


@pytest.mark.parametrize("epsilon", [0.01, 1e3], ids=["no-newton", "newton"])
def test_one_block_size_splits_the_whole_step(monkeypatch, epsilon):
    # baselines.BLOCK is read at call time by the filter and by the dual solve,
    # so one patch splits both: n = 10 at BLOCK = 8 is blocks of 4, 4 and 2
    assert "BLOCK" not in optimizer_mod.solve_eta.__globals__
    rng = np.random.default_rng(21)
    mu0, grads = rng.normal(size=10), rng.normal(size=(5, 10))

    def steps():
        opt = TrustRegionOptimizer(10, TrustRegionConfig(epsilon=epsilon), mu0)
        # the filter is updated in place, so its slopes are copied per step
        return [(opt.step(g), opt.mean, opt.dist.sigma2, opt.filter.a.copy(), opt.filter.b.copy())
                for g in grads]

    whole = steps()
    monkeypatch.setattr(baselines, "BLOCK", 8)
    blocked = steps()
    assert (sum(d.newton_iters for d, *_ in whole) > 0) == (epsilon > 1.0)
    for (d_whole, *x_whole), (d_blocked, *x_blocked) in zip(whole, blocked):
        assert d_blocked == d_whole
        assert all(np.array_equal(x, y) for x, y in zip(x_blocked, x_whole))


@pytest.mark.parametrize("mode", ["standard", "fixed-eta"])
def test_scaling_the_gradient_by_k_is_dividing_rho_and_nu_by_k(mode):
    # a loss scaled by k = 256 is a setting: the filter's (a, b) scale by k, so
    # the trust region at rho / k and nu / k (and fixed_eta / k) takes the same
    # steps bit for bit, Newton steps included. Adam's eps breaks this scaling,
    # so the adam-surrogate mode is left out
    k = 256.0
    model = MLP((12, 10, 4))
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(320, 12)), rng.integers(0, 4, 320)
    tr = TrustRegionConfig(epsilon=10.0, mode=mode, fixed_eta=1.0 if mode == "fixed-eta" else None)
    tr_k = replace(tr, rho=tr.rho / k, nu=tr.nu / k,
                   fixed_eta=None if tr.fixed_eta is None else tr.fixed_eta / k)
    mu0 = model.init_params(seed=1)
    scaled = TrustRegionOptimizer(model.n_params, tr, mu0.copy())
    unscaled = TrustRegionOptimizer(model.n_params, tr_k, mu0.copy())
    newton = 0
    for rows in np.split(np.arange(320), 40):
        batch = Batch(x[rows], y[rows])
        d_scaled = scaled.step(k * model.loss_and_grad(scaled.mean, batch)[1])
        d_unscaled = unscaled.step(model.loss_and_grad(unscaled.mean, batch)[1])
        assert d_scaled == replace(d_unscaled, eta_star=k * d_unscaled.eta_star)
        assert np.array_equal(scaled.mean, unscaled.mean)
        assert np.array_equal(scaled.dist.sigma2, unscaled.dist.sigma2)
        newton += d_scaled.newton_iters
    assert (newton > 0) == (mode == "standard")


def test_rejects_non_finite_gradient_with_step_index():
    opt = TrustRegionOptimizer(1, TrustRegionConfig(), mu0=np.zeros(1))
    opt.step(np.array([1.0]))
    with pytest.raises(ValueError, match="step 1"):
        opt.step(np.array([np.nan]))


def test_rejects_wrong_gradient_shape():
    opt = TrustRegionOptimizer(2, TrustRegionConfig(), mu0=np.zeros(2))
    with pytest.raises(ValueError):
        opt.step(np.zeros(3))


def test_negative_fitted_curvature_is_clamped_and_counted():
    # gradients with negative slope in mu drive the fitted a below zero
    cfg = TrustRegionConfig(epsilon=0.05, q=0.0, r=1e-3)
    opt = TrustRegionOptimizer(1, cfg, mu0=np.array([0.5]))
    clamps = 0
    for _ in range(30):
        diag = opt.step(-2.0 * opt.mean + 1.0)
        clamps += diag.clamped
        assert np.all(opt.dist.sigma2 > 0.0)
    assert clamps > 0
    assert opt.filter.a[0] < 0.0  # raw fit stays negative; clamp is per-step


def test_adam_surrogate_mode_bypasses_filter():
    cfg = TrustRegionConfig(mode="adam-surrogate")
    opt = TrustRegionOptimizer(3, cfg, mu0=np.zeros(3))
    rng = np.random.default_rng(0)
    for _ in range(10):
        diag = opt.step(rng.normal(size=3))
        assert diag.clamped == 0  # sqrt(v_hat) + eps is always positive
    assert not hasattr(opt, "filter")  # never built: five n-vectors it would not read
    assert opt.moments.t == 10


# ---------------------------------------------------------------------------
# epsilon schedule
# ---------------------------------------------------------------------------

def test_epoch_milestone_decays_epsilon():
    cfg = TrustRegionConfig(epsilon=0.085675, schedule_milestones=(1,))
    opt = TrustRegionOptimizer(1, cfg, mu0=np.zeros(1))
    opt.on_epoch_end()
    assert opt.config.epsilon == pytest.approx(0.085675 * 0.006, rel=1e-12)
    assert cfg.epsilon == 0.085675  # the caller's config is replaced, not written


def test_non_milestone_epoch_keeps_epsilon():
    cfg = TrustRegionConfig(epsilon=0.02, schedule_milestones=(3,))
    opt = TrustRegionOptimizer(1, cfg, mu0=np.zeros(1))
    opt.on_epoch_end()
    assert opt.config is cfg


def test_two_milestones_compound():
    cfg = TrustRegionConfig(epsilon=1.0, schedule_milestones=(1, 2))
    opt = TrustRegionOptimizer(1, cfg, mu0=np.zeros(1))
    opt.on_epoch_end()
    assert opt.config.schedule_milestones == (2,)  # only the decays still ahead
    opt.on_epoch_end()
    assert opt.config.epsilon == pytest.approx(0.006**2, rel=1e-12)
    assert opt.config.schedule_milestones == ()


@pytest.mark.parametrize("cls, name, value, factor, milestones", [
    (TrustRegionConfig, "epsilon", 1e-5, 1e-320, (1,)),  # underflows to 0 at the first decay
    (TrustRegionConfig, "epsilon", 0.01, 1e200, (1, 2)),  # overflows to inf at the second
    (TrustRegionConfig, "epsilon", 1e-300, 1e-10, (1, 3, 5)),
    (TrustRegionConfig, "epsilon", 1e-5, 1e-304, (1,)),  # 1e-309: subnormal, not zero
    (BaselineConfig, "learning_rate", 0.01, 1e-320, (1,)),  # 1e-322: subnormal
    (BaselineConfig, "learning_rate", 0.01, 1e200, (1, 2)),
], ids=["underflow", "overflow", "underflow-late", "subnormal", "lr-subnormal", "lr-overflow"])
def test_epsilon_that_decays_out_of_range_is_rejected(cls, name, value, factor, milestones):
    # one rule for both schedules: the decayed value stays a normal float
    factor_name = "epsilon_decay_factor" if name == "epsilon" else "lr_decay_factor"
    with pytest.raises(ValueError, match=f"{name} decayed by {factor_name}"):
        cls(**{name: value, factor_name: factor}, schedule_milestones=milestones)


@pytest.mark.parametrize("cls, decay", [
    (TrustRegionConfig, ("epsilon", "epsilon_decay_factor")),
    (BaselineConfig, ("learning_rate", "lr_decay_factor")),
])
def test_each_config_names_the_field_its_milestones_decay(cls, decay):
    # a class attribute that check_decay and on_epoch_end read, not a setting
    names = {f.name for f in fields(cls)}
    assert cls.DECAY == decay and set(decay) <= names and "DECAY" not in names
    assert not hasattr(Optimizer, "DECAY")


def test_epsilon_decayed_to_the_edge_of_the_range_is_accepted():
    # 1e-5 * 1e-300 is still a normal float; one more decay would underflow
    cfg = TrustRegionConfig(epsilon=1e-5, epsilon_decay_factor=1e-300,
                            schedule_milestones=(1,))
    opt = TrustRegionOptimizer(1, cfg, mu0=np.zeros(1))
    opt.on_epoch_end()
    assert opt.config.epsilon == 1e-5 * 1e-300 > 0.0
    with pytest.raises(ValueError, match="epsilon decayed"):
        replace(opt.config, schedule_milestones=(2,))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_kl_safety_and_variance_positivity():
    rng = np.random.default_rng(9)
    cfg = TrustRegionConfig(epsilon=0.02)
    opt = TrustRegionOptimizer(5, cfg, mu0=rng.normal(size=5))
    for _ in range(200):
        diag = opt.step(rng.normal(scale=3.0, size=5))
        assert diag.c_mu <= 1.1 * opt.config.epsilon + 1e-15
        assert np.all(opt.dist.sigma2 > 0.0)


def test_sigma_identical_across_forced_eta():
    grads = np.random.default_rng(4).normal(size=(50, 3))
    trajs = []
    for eta in (0.1, 1.0, 10.0):
        cfg = TrustRegionConfig(mode="fixed-eta", fixed_eta=eta)
        opt = TrustRegionOptimizer(3, cfg, mu0=np.zeros(3))
        sig = []
        for g in grads:
            opt.step(g)
            sig.append(opt.dist.sigma2.copy())
        trajs.append(np.array(sig))
    # variance path never depends on the multiplier... but the mean path
    # feeds the filter, so compare only the first step (shared filter input)
    assert np.array_equal(trajs[0][0], trajs[1][0])
    assert np.array_equal(trajs[1][0], trajs[2][0])


def test_mode_equivalence_standard_vs_fixed(monkeypatch):
    # each fixed-eta step matches the reference mean; standard mode with its
    # solve forced to the same eta takes the same steps, bitwise
    eta = 2.5
    grads = np.random.default_rng(12).normal(size=(30, 4))
    monkeypatch.setattr(optimizer_mod, "solve_eta", checked_solve)
    fix = TrustRegionOptimizer(
        4, TrustRegionConfig(mode="fixed-eta", fixed_eta=eta), mu0=np.zeros(4)
    )
    fixed = [(fix.step(g), fix.dist.mu.copy(), fix.dist.sigma2.copy()) for g in grads]

    def forced_solve(a, b, prev, tr):
        return checked_solve(a, b, prev, replace(tr, mode="fixed-eta", fixed_eta=eta))

    monkeypatch.setattr(optimizer_mod, "solve_eta", forced_solve)
    std = TrustRegionOptimizer(4, TrustRegionConfig(mode="standard"), mu0=np.zeros(4))
    for g, (diag, mu, sigma2) in zip(grads, fixed):
        assert std.step(g) == diag
        assert np.array_equal(std.dist.mu, mu)
        assert np.array_equal(std.dist.sigma2, sigma2)


def test_deterministic_replay():
    grads = np.random.default_rng(8).normal(size=(80, 6))

    def run():
        opt = TrustRegionOptimizer(6, TrustRegionConfig(), mu0=np.linspace(-1, 1, 6))
        out = []
        for g in grads:
            opt.step(g)
            out.append(opt.mean.copy())
        return np.array(out)

    assert np.array_equal(run(), run())


def test_quadratic_convergence_smoke():
    n = 10
    D = np.logspace(np.log10(0.1), np.log10(10.0), n)
    theta_star = np.array([0.5, -0.5] * 5)
    opt = TrustRegionOptimizer(n, TrustRegionConfig(epsilon=0.01), mu0=np.zeros(n))
    grad = quadratic_grad(D, theta_star)
    for _ in range(200):
        opt.step(grad(opt.mean))
    assert np.linalg.norm(opt.mean - theta_star) < 1e-3


def test_diagnostics_fields():
    opt = TrustRegionOptimizer(2, TrustRegionConfig(), mu0=np.zeros(2))
    diag = opt.step(np.array([1.0, -1.0]))
    assert isinstance(diag, StepDiagnostics)
    assert diag.eta_star >= 0.0
    assert diag.c_mu >= 0.0
    assert diag.newton_iters >= 0
    assert diag.clamped >= 0


# ---------------------------------------------------------------------------
# a multi-block oracle: the step against whole-vector algebra
# ---------------------------------------------------------------------------

def whole_vector_solve(a, b, mu, s, tr):
    """solve_eta's arithmetic with w, z and p as n-vectors and np.dot over them."""
    eps, rl = tr.epsilon, tr.rho * tr.lambda_prec
    w = (a + rl) * s
    z = ((a + rl) * mu + b) * np.sqrt(s)
    start = 0.0 if w.min() >= ETA_MIN else ETA_MIN
    zz = float(np.dot(z, z))
    eta = max(start, math.sqrt(zz) / math.sqrt(2.0 * eps) - w.max())
    p = z / (w + eta)
    c = 0.5 * float(np.dot(p, p))
    iterations = 0
    done = c <= eps if eta == start else abs(c - eps) <= 0.1 * eps
    while not done:
        eta += float(2.0 * c * (math.sqrt(c / eps) - 1.0) / np.dot(p, p / (w + eta)))
        iterations += 1
        p = z / (w + eta)
        c = 0.5 * float(np.dot(p, p))
        done = abs(c - eps) <= 0.1 * eps
    return eta, mu - np.sqrt(s) * p, c, iterations


def test_multi_block_step_is_bitwise_the_whole_vector_step():
    # n = 3 BLOCK + 77 ends in a partial block; epsilon = 1000 makes the
    # solves take Newton steps until the milestone at step 10 cuts it to 1
    n = 3 * baselines.BLOCK + 77
    rng = np.random.default_rng(0)
    curvature, target = rng.uniform(0.5, 2.0, n), rng.normal(size=n)
    cfg = TrustRegionConfig(epsilon=1e3, sigma2_init=1.0, p0=1.0, q=0.01, r=0.1,
                            weight_decay=1e-3, epsilon_decay_factor=1e-3,
                            schedule_milestones=(1,))
    opt = TrustRegionOptimizer(n, cfg, mu0=np.zeros(n))
    state, mu, sigma2 = init_state(n, cfg.p0), np.zeros(n), np.full(n, cfg.sigma2_init)
    iterations, clamps = set(), set()
    for t in range(20):
        if t == 10:
            opt.on_epoch_end()
        tr = opt.config
        grad = curvature * (mu - target) + rng.normal(0.0, 0.3, n)
        diag = opt.step(grad)
        state, _ = unfused_update(state, mu, grad, tr.q, tr.r)
        a = np.maximum(state.a, 0.0)
        eta, mu_new, c, its = whole_vector_solve(a, state.b, mu, sigma2, tr)
        sigma2 = (tr.rho + tr.nu) / ((a + tr.rho * tr.lambda_prec) + tr.nu / sigma2)
        mu = mu_new * (1.0 - tr.weight_decay)
        assert (diag.eta_star, diag.c_mu, diag.newton_iters) == (eta, c, its), t
        assert diag.clamped == np.count_nonzero(state.a < 0.0), t
        assert np.array_equal(opt.mean, mu) and np.array_equal(opt.dist.sigma2, sigma2), t
        iterations.add(its > 0)
        clamps.add(diag.clamped > 0)
    assert iterations == clamps == {False, True}  # 0-step and Newton solves, both clamp paths
