import numpy as np
import pytest

import kltrust.optimizer as optimizer_mod
from kltrust.optimizer import StepDiagnostics, TrustRegionConfig, TrustRegionOptimizer
from kltrust.trust_region import DualSolve, kl_mean_term, primal_mean


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
        TrustRegionConfig(mode="fixed_eta")  # needs fixed_eta value
    with pytest.raises(ValueError):
        TrustRegionConfig(schedule_milestones=(5, 3))


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def test_converged_surrogate_takes_newton_step():
    # scalar objective with curvature 2 and minimum at 2: prime the filter
    # on varied points of the gradient line g = 2*mu - 4, then a single
    # step with a large bound is the interior Newton step onto -b/a = 2
    from kltrust.surrogate import filter_update, init_state

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


def test_fixed_eta_freezes_mean():
    cfg = TrustRegionConfig(mode="fixed_eta", fixed_eta=1e12, weight_decay=0.0)
    mu0 = np.array([0.4, -0.9])
    opt = TrustRegionOptimizer(2, cfg, mu0=mu0)
    opt.step(np.array([5.0, -3.0]))
    assert np.linalg.norm(opt.mean - mu0) / np.linalg.norm(mu0) < 1e-6


def test_decoupled_weight_decay():
    cfg = TrustRegionConfig(mode="fixed_eta", fixed_eta=1e15, weight_decay=0.1)
    opt = TrustRegionOptimizer(1, cfg, mu0=np.array([1.0]))
    opt.step(np.array([0.5]))
    assert opt.mean[0] == pytest.approx(0.9, rel=1e-9)


@pytest.mark.parametrize("mode", ["standard", "fixed_eta", "adam_surrogate"])
def test_step_leaves_the_arrays_a_caller_holds_unchanged(mode):
    # the harness holds point = opt.mean across step(), and the step writes
    # its results in place: only into arrays it has just allocated
    cfg = TrustRegionConfig(mode=mode, fixed_eta=1.0, weight_decay=0.01)
    rng = np.random.default_rng(4)
    opt = TrustRegionOptimizer(6, cfg, mu0=rng.normal(size=6))
    for _ in range(3):
        held = [opt.mean, opt.dist.sigma2, *vars(opt.filter).values()]
        copies = [x.copy() for x in held]
        opt.step(rng.normal(size=6))
        assert opt.mean is not held[0]
        for x, before in zip(held, copies):
            assert np.array_equal(x, before)


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
    cfg = TrustRegionConfig(mode="adam_surrogate")
    opt = TrustRegionOptimizer(3, cfg, mu0=np.zeros(3))
    rng = np.random.default_rng(0)
    for _ in range(10):
        diag = opt.step(rng.normal(size=3))
        assert diag.clamped == 0  # sqrt(v_hat) + eps is always positive
    assert np.array_equal(opt.filter.a, np.zeros(3))  # untouched
    assert opt.moments.t == 10


# ---------------------------------------------------------------------------
# epsilon schedule
# ---------------------------------------------------------------------------

def test_epoch_milestone_decays_epsilon():
    cfg = TrustRegionConfig(epsilon=0.085675, schedule_milestones=(1,))
    opt = TrustRegionOptimizer(1, cfg, mu0=np.zeros(1))
    opt.on_epoch_end()
    assert opt.epsilon == pytest.approx(0.085675 * 0.006, rel=1e-12)


def test_non_milestone_epoch_keeps_epsilon():
    cfg = TrustRegionConfig(epsilon=0.02, schedule_milestones=(3,))
    opt = TrustRegionOptimizer(1, cfg, mu0=np.zeros(1))
    opt.on_epoch_end()
    assert opt.epsilon == 0.02


def test_two_milestones_compound():
    cfg = TrustRegionConfig(epsilon=1.0, schedule_milestones=(1, 2))
    opt = TrustRegionOptimizer(1, cfg, mu0=np.zeros(1))
    opt.on_epoch_end()
    opt.on_epoch_end()
    assert opt.epsilon == pytest.approx(0.006**2, rel=1e-12)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_kl_safety_and_variance_positivity():
    rng = np.random.default_rng(9)
    cfg = TrustRegionConfig(epsilon=0.02)
    opt = TrustRegionOptimizer(5, cfg, mu0=rng.normal(size=5))
    for _ in range(200):
        diag = opt.step(rng.normal(scale=3.0, size=5))
        assert diag.c_mu <= 1.1 * opt.epsilon + 1e-15
        assert np.all(opt.dist.sigma2 > 0.0)


def test_sigma_identical_across_forced_eta():
    grads = np.random.default_rng(4).normal(size=(50, 3))
    trajs = []
    for eta in (0.1, 1.0, 10.0):
        cfg = TrustRegionConfig(mode="fixed_eta", fixed_eta=eta)
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
    eta = 2.5
    grads = np.random.default_rng(12).normal(size=(30, 4))

    def forced_solve(a, b, prev, tr):
        mu = primal_mean(a, b, prev, eta, tr)
        return DualSolve(eta, mu, kl_mean_term(mu, prev), 0)

    monkeypatch.setattr(optimizer_mod, "solve_eta", forced_solve)
    std = TrustRegionOptimizer(4, TrustRegionConfig(mode="standard"), mu0=np.zeros(4))
    fix = TrustRegionOptimizer(
        4, TrustRegionConfig(mode="fixed_eta", fixed_eta=eta), mu0=np.zeros(4)
    )
    for g in grads:
        std.step(g)
        fix.step(g)
        assert np.array_equal(std.dist.mu, fix.dist.mu)
        assert np.array_equal(std.dist.sigma2, fix.dist.sigma2)


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
    assert diag.bisect_iters >= 0
    assert diag.clamped >= 0
