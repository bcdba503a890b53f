import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kltrust import surrogate
from kltrust.errors import NonFiniteError
from kltrust.optimizer import TrustRegionConfig
from kltrust.trust_region import (
    ETA_MIN,
    DualSolverError,
    ParameterDistribution,
    dual_derivative,
    kl_mean_term,
    primal_mean,
    primal_variance,
    solve_eta,
)


def dist(mu, sigma2):
    return ParameterDistribution(np.asarray(mu, float), np.asarray(sigma2, float))


def params(epsilon=0.1, rho=0.0, nu=1.0, lam=0.0):
    return TrustRegionConfig(epsilon=epsilon, rho=rho, nu=nu, lambda_prec=lam)


def random_instance(rng, eps):
    n = int(rng.integers(1, 101))
    a = rng.uniform(0.0, 10.0, size=n)
    b = rng.uniform(-10.0, 10.0, size=n)
    prev = dist(rng.uniform(-1.0, 1.0, size=n), rng.uniform(1e-4, 1.0, size=n))
    tr = TrustRegionConfig(
        epsilon=eps,
        rho=float(rng.uniform(0.01, 1.0)),
        nu=float(rng.uniform(0.5, 2.0)),
        lambda_prec=float(rng.uniform(0.0, 0.01)),
    )
    return a, b, prev, tr


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_distribution_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        dist([0.0], [0.0])
    with pytest.raises(ValueError):
        dist([0.0], [-1.0])
    # non-finite entries are numerical faults, which are ValueErrors too
    for mu, sigma2 in (([np.inf], [1.0]), ([np.nan], [1.0]), ([0.0], [np.inf])):
        with pytest.raises(NonFiniteError):
            dist(mu, sigma2)


def test_params_validation():
    with pytest.raises(ValueError):
        params(epsilon=0.0)
    with pytest.raises(ValueError):
        params(nu=-1.0)
    with pytest.raises(ValueError):
        params(rho=-0.1)
    params(rho=0.0, lam=0.0)  # unregularized corner is allowed


# ---------------------------------------------------------------------------
# primal_mean
# ---------------------------------------------------------------------------

def test_mean_closed_form():
    mu = primal_mean(np.array([2.0]), np.array([-4.0]), dist([0.0], [1.0]), 2.0, params())
    assert mu[0] == pytest.approx(1.0, rel=1e-14)


def test_mean_infinite_eta_freezes():
    prev = dist([0.7, -1.2], [0.3, 2.0])
    mu = primal_mean(np.array([3.0, 1.0]), np.array([5.0, -2.0]), prev, 1e12, params())
    assert np.linalg.norm(mu - prev.mu) / np.linalg.norm(prev.mu) < 1e-6


def test_mean_eta_zero_is_newton_step():
    mu = primal_mean(np.array([2.0]), np.array([-4.0]), dist([9.0], [1.0]), 0.0, params())
    assert mu[0] == pytest.approx(2.0, rel=1e-14)


def test_mean_domain_error_names_dimension():
    with pytest.raises(ValueError, match="dimension 1"):
        primal_mean(
            np.array([1.0, 0.0]), np.array([0.0, 1.0]), dist([0.0, 0.0], [1.0, 1.0]),
            0.0, params(),
        )


# ---------------------------------------------------------------------------
# primal_variance
# ---------------------------------------------------------------------------

def test_variance_closed_form():
    out = primal_variance(np.array([1.0]), dist([0.0], [1.0]), params(rho=1.0, nu=1.0, lam=1.0))
    assert out[0] == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_variance_no_curvature_doubles_scale():
    for s in (0.2, 1.0, 3.0):
        out = primal_variance(
            np.array([0.0]), dist([0.0], [s]), params(rho=1.0, nu=1.0, lam=1e-12)
        )
        assert out[0] == pytest.approx(2.0 * s, rel=1e-9)


def test_variance_high_curvature_stays_positive():
    tr = params(rho=1.0, nu=1.0, lam=1.0)
    out = primal_variance(np.array([1e12]), dist([0.0], [1.0]), tr)
    assert 0.0 < out[0] == pytest.approx(2.0 / 1e12, rel=1e-9)


def test_variance_rejects_non_positive_or_nan_entries():
    tr = params(rho=1.0, nu=1.0, lam=0.0)
    for a in ([-2.0, 1.0], [np.nan, 1.0], [1.0, -1.5]):
        with pytest.raises(NonFiniteError):
            primal_variance(np.array(a), dist([0.0, 0.0], [1.0, 1.0]), tr)


def test_variance_signature_has_no_eta():
    assert "eta" not in inspect.signature(primal_variance).parameters


# ---------------------------------------------------------------------------
# kl_mean_term
# ---------------------------------------------------------------------------

def test_kl_zero_step():
    prev = dist([1.0, -2.0], [0.5, 0.1])
    assert kl_mean_term(prev.mu.copy(), prev) == 0.0


def test_kl_unit_value():
    assert kl_mean_term(np.array([1.0, 1.0]), dist([0.0, 0.0], [1.0, 1.0])) == 1.0


def test_kl_scales_inversely_with_variance():
    mu_new = np.array([0.3, -0.4])
    base = kl_mean_term(mu_new, dist([0.0, 0.0], [1.0, 1.0]))
    quartered = kl_mean_term(mu_new, dist([0.0, 0.0], [4.0, 4.0]))
    assert quartered == pytest.approx(base / 4.0, rel=1e-14)


# ---------------------------------------------------------------------------
# dual_derivative
# ---------------------------------------------------------------------------

def test_dual_derivative_zero_step_is_minus_epsilon():
    # b = -mu_prev * (a + rho*lambda) makes mu(eta) = mu_prev for every eta
    tr = params(epsilon=0.05, rho=2.0, nu=1.0, lam=0.25)
    a = np.array([1.5])
    prev = dist([0.8], [0.3])
    b = -prev.mu * (a + tr.rho * tr.lambda_prec)
    for eta in (0.1, 1.0, 50.0):
        assert dual_derivative(eta, a, b, prev, tr) == pytest.approx(-0.05, rel=1e-12)


def test_dual_derivative_closed_form_instance():
    # c_mu(eta) = 1/(2 eta^2) for a=0, b=-1, mu_prev=0, sigma2=1
    a, b = np.array([0.0]), np.array([-1.0])
    prev = dist([0.0], [1.0])
    tr = params(epsilon=0.02)
    assert dual_derivative(5.0, a, b, prev, tr) == pytest.approx(0.0, abs=1e-15)
    assert dual_derivative(10.0, a, b, prev, tr) == pytest.approx(-0.015, rel=1e-12)


# ---------------------------------------------------------------------------
# solve_eta
# ---------------------------------------------------------------------------

def test_solve_analytic_root():
    a, b = np.array([0.0]), np.array([-1.0])
    prev = dist([0.0], [1.0])
    tr = params(epsilon=0.02)
    res = solve_eta(a, b, prev, tr)
    assert res.eta_star == pytest.approx(5.0, rel=0.06)
    assert res.mu[0] == pytest.approx(0.2, rel=0.06)
    assert abs(res.c_mu - 0.02) <= 0.1 * 0.02


def test_solve_zero_step_inside_region():
    res = solve_eta(np.array([1.0]), np.array([0.0]), dist([0.0], [1.0]), params(epsilon=0.01))
    assert res.eta_star == 0.0
    assert res.mu[0] == 0.0
    assert res.iterations == 0


def test_solve_tiny_unconstrained_step_inside_region():
    tr = params(epsilon=0.01, rho=1.0, nu=1.0, lam=1e-3)
    res = solve_eta(np.array([1e6]), np.array([1.0]), dist([0.0], [1.0]), tr)
    assert res.eta_star == 0.0
    assert res.mu[0] == pytest.approx(-1e-6, rel=1e-3)
    assert res.c_mu < tr.epsilon


def test_solve_undefined_eta_zero_returns_min_bracket():
    # a + rho*lambda == 0 with a zero surrogate step: optimum interior but
    # the eta = 0 mean is undefined
    res = solve_eta(np.array([0.0]), np.array([0.0]), dist([0.5], [1.0]), params(epsilon=0.01))
    assert res.eta_star == ETA_MIN
    assert res.mu[0] == pytest.approx(0.5, rel=1e-12)


def test_blocked_setup_matches_one_block(monkeypatch):
    rng = np.random.default_rng(31)
    a, b = rng.uniform(0.0, 10.0, size=10), rng.uniform(-10.0, 10.0, size=10)
    prev = dist(rng.uniform(-1.0, 1.0, size=10), rng.uniform(1e-4, 1.0, size=10))
    for tr in (params(epsilon=0.01, rho=0.1, lam=0.01), params(epsilon=1e3)):
        # a_j = b_j = 0 in the last, partial block of 4 + 4 + 2: with
        # rho*lambda = 0 the solve must start from ETA_MIN, as 0/0 at eta = 0
        # would raise DualSolverError
        a[-1] = b[-1] = 0.0
        whole = solve_eta(a, b, prev, tr)
        monkeypatch.setattr(surrogate, "BLOCK", 4)
        blocked = solve_eta(a, b, prev, tr)
        monkeypatch.undo()
        assert (blocked.eta_star, blocked.c_mu, blocked.iterations) == (
            whole.eta_star, whole.c_mu, whole.iterations)
        assert np.array_equal(blocked.mu, whole.mu)
    assert whole.eta_star >= ETA_MIN


def test_network_shaped_solve_lands_in_the_band_at_its_lower_bound():
    # several blocks, slopes that leave every w_j = s_j * (a_j + rho*lambda)
    # far below eta*: the start sqrt(z.z / (2 epsilon)) - max w is in the band
    rng = np.random.default_rng(5)
    n = 3 * surrogate.BLOCK + 77
    a, b = rng.uniform(0.0, 1e-2, size=n), rng.normal(0.0, 0.05, size=n)
    prev = dist(rng.normal(0.0, 0.05, size=n), np.full(n, 0.01))
    tr = TrustRegionConfig(epsilon=0.01, rho=0.05, lambda_prec=0.0015)
    res = solve_eta(a, b, prev, tr)
    assert res.iterations == 0
    assert res.eta_star > 0.0
    assert abs(res.c_mu - tr.epsilon) <= 0.1 * tr.epsilon
    assert np.allclose(res.mu, primal_mean(a, b, prev, res.eta_star, tr), rtol=1e-12, atol=0.0)
    # the optimizer applies weight decay to the solve's mean in place
    for held in (prev.mu, prev.sigma2, a, b):
        assert not np.shares_memory(res.mu, held)


def solve_peak(a, b, prev, tr):
    """The tracemalloc peak of one solve, in n-vectors."""
    tracemalloc.start()
    try:
        res = solve_eta(a, b, prev, tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res, peak / (8 * prev.n)


def test_solve_allocates_one_vector_and_a_second_only_for_newton():
    # z, p and the new mean share the solve's one n-vector, and w and
    # sqrt(sigma2) are rebuilt per block in scratch (half an n-vector at
    # n = 4 BLOCK); Newton's p / (w + eta) is the only other n-vector
    rng = np.random.default_rng(6)
    n = 4 * surrogate.BLOCK
    a, b = rng.uniform(0.0, 1.0, size=n), rng.normal(size=n)
    prev = dist(rng.normal(size=n), rng.uniform(0.5, 1.0, size=n))
    res, peak = solve_peak(a, b, prev, params(epsilon=0.01))
    assert res.iterations == 0
    # the lower bound shows that numpy's allocations are traced at all
    assert 1 <= peak < 2
    res, peak = solve_peak(a, b, prev, params(epsilon=1e3))
    assert res.iterations > 0
    assert 2 <= peak < 3


def test_solve_pathological_surrogate_raises():
    with pytest.raises(DualSolverError, match=r"leaves eta <= 1e\+12"):
        solve_eta(np.array([0.0]), np.array([1e15]), dist([0.0], [1.0]), params(epsilon=0.01))


def test_solve_root_beyond_eta_max_raises_at_the_lower_bound():
    # the lower bound already exceeds ETA_MAX, so no Newton step is taken
    with pytest.raises(DualSolverError, match=r"bound eta=7\.07107e\+15 .* leaves eta <= 1e\+12"):
        solve_eta(np.array([0.0]), np.array([1e15]), dist([0.0], [1.0]), params(epsilon=0.01))


@pytest.mark.parametrize("a, b", [
    ([1.0, 1.0], [1e200, 1e200]),  # z.z overflows
    ([np.nan, 1.0], [1.0, 1.0]),  # z.z is NaN
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_bound_keeps_the_zero_start_and_its_fault(a, b):
    with pytest.raises(DualSolverError, match=r"Newton step 1 from eta=0 "):
        solve_eta(np.array(a), np.array(b), dist([0.0, 0.0], [1.0, 1.0]), params(epsilon=0.01))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_constraint_satisfied_on_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(200):
        eps = float(10 ** rng.uniform(-3, -1))
        a, b, prev, tr = random_instance(rng, eps)
        res = solve_eta(a, b, prev, tr)
        if res.eta_star == 0.0:
            assert res.c_mu <= eps
        else:
            assert abs(res.c_mu - eps) <= 0.1 * eps + 1e-15


def test_c_mu_nonincreasing_in_eta():
    rng = np.random.default_rng(17)
    a, b, prev, tr = random_instance(rng, 0.05)
    grid = np.logspace(-6, 6, 200)
    vals = [
        kl_mean_term(primal_mean(a, b, prev, eta, tr), prev) for eta in grid
    ]
    assert all(v1 >= v2 - 1e-12 * max(v1, 1.0) for v1, v2 in zip(vals[:-1], vals[1:]))


def test_limit_laws():
    rng = np.random.default_rng(23)
    n = 20
    a = rng.uniform(0.5, 5.0, size=n)
    b = rng.uniform(-3.0, 3.0, size=n)
    prev = dist(rng.uniform(-2.0, 2.0, size=n), rng.uniform(0.1, 1.0, size=n))
    tr = params(epsilon=0.01)
    frozen = primal_mean(a, b, prev, 1e12, tr)
    assert np.linalg.norm(frozen - prev.mu) / np.linalg.norm(prev.mu) < 1e-6
    newton = primal_mean(a, b, prev, 0.0, tr)
    assert np.allclose(newton, -b / a, rtol=1e-10)


def test_variance_unaffected_by_solver_calls():
    rng = np.random.default_rng(47)
    a, b, prev, tr = random_instance(rng, 0.02)
    before = primal_variance(a, prev, tr)
    solve_eta(a, b, prev, tr)
    after = primal_variance(a, prev, tr)
    assert np.array_equal(before, after)


# ---------------------------------------------------------------------------
# properties of the Newton solve, against the primal_mean/kl_mean_term
# reference, including a_j + rho*lambda = 0 corners
# ---------------------------------------------------------------------------

def floats(lo, hi):
    # subnormals would test the reference's underflow, not the solver
    return st.floats(lo, hi, allow_subnormal=False)


@st.composite
def dual_instances(draw):
    n = draw(st.integers(1, 20))
    vec = lambda elem: draw(st.lists(elem, min_size=n, max_size=n))
    a = np.array(vec(st.one_of(st.just(0.0), floats(0.0, 100.0))))
    b = np.array(vec(floats(-100.0, 100.0)))
    prev = dist(vec(floats(-10.0, 10.0)), vec(floats(1e-4, 10.0)))
    tr = TrustRegionConfig(
        epsilon=draw(floats(1e-3, 1e-1)),
        rho=draw(st.one_of(st.just(0.0), floats(0.0, 1.0))),
        nu=1.0,
        lambda_prec=draw(st.one_of(st.just(0.0), floats(0.0, 0.01))),
    )
    return a, b, prev, tr


@settings(max_examples=300, deadline=None)
@given(dual_instances())
def test_solve_properties(instance):
    a, b, prev, tr = instance
    eps = tr.epsilon
    res = solve_eta(a, b, prev, tr)
    assert res.eta_star >= 0.0
    assert res.c_mu <= 1.1 * eps
    if res.eta_star in (0.0, ETA_MIN):
        # interior: eta* = 0, or ETA_MIN where the eta = 0 step is undefined
        assert res.iterations == 0
        assert res.c_mu <= eps
    else:
        assert abs(res.c_mu - eps) <= 0.1 * eps
    if res.eta_star > ETA_MIN:
        # neither the lower-bound start nor a Newton step passes the root
        c, err = c_mu_and_rounding(a, b, prev, res.eta_star, tr)
        assert c >= eps - err
    ref = primal_mean(a, b, prev, res.eta_star, tr)
    # both forms round relative to the magnitudes they combine
    assert np.all(np.abs(res.mu - ref) <= 1e-10 * (np.abs(ref) + np.abs(prev.mu)))
    # kl_mean_term subtracts mu_prev again, losing up to an ulp of it
    assert res.c_mu == pytest.approx(kl_mean_term(res.mu, prev), rel=1e-10, abs=1e-10 * eps)


def c_mu_and_rounding(a, b, prev, eta, tr):
    """C_mu(eta) by the reference, and a bound on the rounding in it."""
    mu = primal_mean(a, b, prev, eta, tr)
    c = kl_mean_term(mu, prev)
    ulp = np.finfo(float).eps
    denom = a + eta / prev.sigma2 + tr.rho * tr.lambda_prec
    d = np.abs(mu - prev.mu)
    # primal_mean rounds relative to the terms of its quotient, the step
    # relative to itself; the bound on d then carries through d^2/s and the sum
    delta = 8 * ulp * ((eta * np.abs(prev.mu) / prev.sigma2 + np.abs(b)) / denom + d)
    err = 0.5 * np.sum((2.0 * d + delta) * delta / prev.sigma2) + 4 * len(a) * ulp * c
    return c, err


@settings(max_examples=300, deadline=None)
@given(dual_instances(), st.lists(st.one_of(st.just(0.0), floats(ETA_MIN, 1e6)),
                                  min_size=2, max_size=2))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # C overflows near a_j = 0
def test_c_mu_monotone_in_eta(instance, etas):
    a, b, prev, tr = instance
    lo, hi = sorted(etas)
    # at eta = 0 the mean is undefined where a_j + rho*lambda = 0
    assume(np.all(a + lo / prev.sigma2 + tr.rho * tr.lambda_prec > 0.0))
    c_lo, err_lo = c_mu_and_rounding(a, b, prev, lo, tr)
    c_hi, err_hi = c_mu_and_rounding(a, b, prev, hi, tr)
    assert c_lo == math.inf or c_lo >= c_hi - (err_lo + err_hi)
