import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from dual_oracle import (
    assert_matches_oracle,
    assert_mean_matches_oracle,
    c_mu_and_rounding,
    kl_mean_term,
    primal_mean,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_halves import on_cpus

from kltrust import baselines
from kltrust.errors import NonFiniteError
from kltrust.optimizer import TrustRegionConfig
from kltrust.trust_region import (
    ETA_MIN,
    DualSolverError,
    ParameterDistribution,
    dual_derivative,
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


@pytest.mark.parametrize("mu,sigma2", [
    ([0.0, 1.0], [1.0]), ([0.0], [1.0, 1.0]), ([[0.0]], [[1.0]]), (0.0, 1.0),
], ids=["shorter-sigma2", "shorter-mu", "matrices", "scalars"])
def test_distribution_rejects_mismatched_shapes(mu, sigma2):
    with pytest.raises(ValueError, match="mu and sigma2 must be 1-d vectors of equal length"):
        dist(mu, sigma2)


def test_an_empty_distribution_is_rejected():
    # a sweep over no dimensions has no extremes to check
    with pytest.raises(ValueError, match="mu and sigma2 must be 1-d vectors of equal length >= 1"):
        dist([], [])


SURROGATE_READERS = {
    "solve_eta": lambda a, b, prev: solve_eta(a, b, prev, params()),
    "primal_variance": lambda a, b, prev: primal_variance(a, prev, params()),
    "primal_mean": lambda a, b, prev: primal_mean(a, b, prev, 1.0, params()),
}


@pytest.mark.parametrize("length", [8, 4, 1], ids=["n+3", "n-1", "1"])
@pytest.mark.parametrize("name", SURROGATE_READERS)
def test_a_or_b_of_another_length_is_rejected_by_name(name, length):
    # n = 5: a longer vector was cut to its first n entries, a shorter one
    # failed to broadcast without naming it, and a length-1 one broadcast
    fn, prev = SURROGATE_READERS[name], dist(np.zeros(5), np.ones(5))
    good, bad = np.ones(5), np.ones(length)
    with pytest.raises(ValueError, match=rf"^a (and b )?must have length 5, got \({length},\)"):
        fn(bad, good, prev)
    if name != "primal_variance":  # the variance reads no b
        with pytest.raises(ValueError,
                           match=rf"^a and b must have length 5, got \(5,\) and \({length},\)$"):
            fn(good, bad, prev)


def test_params_validation():
    with pytest.raises(ValueError):
        params(epsilon=0.0)
    with pytest.raises(ValueError):
        params(nu=-1.0)
    with pytest.raises(ValueError):
        params(rho=-0.1)
    params(rho=0.0, lam=0.0)  # unregularized corner is allowed


# ---------------------------------------------------------------------------
# the reference mean, primal_mean
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
    with pytest.raises(NonFiniteError, match="non-positive or NaN"):
        primal_variance(np.array([np.nan, 1.0]), dist([0.0, 0.0], [1.0, 1.0]), tr)


def test_variance_floors_negative_slopes_at_zero():
    # sigma2_prev = 1 and rho = nu = 1: (rho + nu) / (max(a, 0) + 1)
    tr = params(rho=1.0, nu=1.0, lam=0.0)
    for a in ([-2.0, 1.0], [1.0, -1.5], [-1e300, -0.0]):
        out = primal_variance(np.array(a), dist([0.0, 0.0], [1.0, 1.0]), tr)
        assert out.tolist() == [2.0 / (max(x, 0.0) + 1.0) for x in a]


def test_variance_rejects_an_entry_that_overflows_to_inf():
    # nu / sigma2_prev = 1e-308 leaves (rho + nu) / 1e-308 beyond the float range
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="inf"):
        primal_variance(np.array([0.0, 1.0]), dist([0.0, 0.0], [1e308, 1.0]),
                        params(rho=1.0, nu=1.0, lam=0.0))


def test_variance_signature_has_no_eta():
    assert "eta" not in inspect.signature(primal_variance).parameters


# ---------------------------------------------------------------------------
# the reference C_mu, kl_mean_term
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
        monkeypatch.setattr(baselines, "BLOCK", 8)
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
    n = 3 * baselines.BLOCK + 77
    a, b = rng.uniform(0.0, 1e-2, size=n), rng.normal(0.0, 0.05, size=n)
    prev = dist(rng.normal(0.0, 0.05, size=n), np.full(n, 0.01))
    tr = TrustRegionConfig(epsilon=0.01, rho=0.05, lambda_prec=0.0015)
    res = solve_eta(a, b, prev, tr)
    assert res.iterations == 0
    assert res.eta_star > 0.0
    assert abs(res.c_mu - tr.epsilon) <= 0.1 * tr.epsilon
    assert np.allclose(res.mu, primal_mean(a, b, prev, res.eta_star, tr), rtol=1e-12, atol=0.0)
    # the solve's mean is its own array, which it decays in place
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


@pytest.mark.parametrize("cpus", [1, 2])
def test_solve_allocates_one_vector_and_a_second_only_for_newton(monkeypatch, cpus):
    # z, p and the new mean share the solve's one n-vector (also at a fixed
    # multiplier, where the reference formula peaks at 3), and w and
    # sqrt(sigma2) are rebuilt per block in scratch (half an n-vector at
    # n = 4 BLOCK); Newton's p / (w + eta) is the only other n-vector, and
    # on two CPUs the worker's half allocates nothing
    monkeypatch.setattr(baselines, "_cpus", lambda: cpus)
    rng = np.random.default_rng(6)
    n = 4 * baselines.BLOCK
    a, b = rng.uniform(0.0, 1.0, size=n), rng.normal(size=n)
    prev = dist(rng.normal(size=n), rng.uniform(0.5, 1.0, size=n))
    res, peak = solve_peak(a, b, prev, params(epsilon=0.01))
    assert res.iterations == 0
    # the lower bound shows that numpy's allocations are traced at all
    assert 1 <= peak < 2
    res, peak = solve_peak(a, b, prev, params(epsilon=1e3))
    assert res.iterations > 0
    assert 2 <= peak < 3
    # a fixed multiplier takes the path without Newton
    res, peak = solve_peak(a, b, prev, replace(params(), mode="fixed-eta", fixed_eta=1e3))
    assert (res.eta_star, res.iterations) == (1e3, 0)
    assert 1 <= peak < 2


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


@pytest.mark.parametrize("k", [10.0, 256.0, 300.0])
def test_scaling_the_surrogate_by_k_is_dividing_rho_and_nu_by_k(k):
    # the step for (k a, k b) at (rho, nu) is the step for (a, b) at
    # (rho / k, nu / k), with eta* multiplied by k: a loss scale is a setting.
    # A power of two scales every rounding exactly, so k = 256 is bitwise
    rng = np.random.default_rng(29)
    interior = newton = 0
    for _ in range(1000):
        a, b, prev, tr = random_instance(rng, float(10 ** rng.uniform(-3, 3)))
        # w = s (a + rho lambda) >= ETA_MIN at both scales, so both start at 0
        assert tr.rho * tr.lambda_prec > 0.0
        tr_k = replace(tr, rho=tr.rho / k, nu=tr.nu / k)
        scaled, unscaled = solve_eta(k * a, k * b, prev, tr), solve_eta(a, b, prev, tr_k)
        var_scaled, var_unscaled = primal_variance(k * a, prev, tr), primal_variance(a, prev, tr_k)
        interior += scaled.eta_star == 0.0
        newton += scaled.iterations > 0
        assert scaled.iterations == unscaled.iterations
        if k == 256.0:
            assert scaled.eta_star == k * unscaled.eta_star and scaled.c_mu == unscaled.c_mu
            assert np.array_equal(scaled.mu, unscaled.mu)
            assert np.array_equal(var_scaled, var_unscaled)
            continue
        assert scaled.eta_star == pytest.approx(k * unscaled.eta_star, rel=1e-13, abs=0.0)
        assert scaled.c_mu == pytest.approx(unscaled.c_mu, rel=1e-14)
        assert np.max(np.abs(scaled.mu - unscaled.mu)) <= 4e-15 * np.max(np.abs(unscaled.mu))
        np.testing.assert_allclose(var_scaled, var_unscaled, rtol=2e-15, atol=0.0)
    assert 0 < interior < 1000 and newton > 0  # both exits and Newton are covered


def test_c_mu_nonincreasing_in_eta():
    rng = np.random.default_rng(17)
    a, b, prev, tr = random_instance(rng, 0.05)
    grid = np.logspace(-6, 6, 200)
    vals = [dual_derivative(eta, a, b, prev, tr) + tr.epsilon for eta in grid]
    assert all(v1 >= v2 - 1e-12 * max(v1, 1.0) for v1, v2 in zip(vals[:-1], vals[1:]))


def test_limit_laws():
    rng = np.random.default_rng(23)
    n = 20
    a = rng.uniform(0.5, 5.0, size=n)
    b = rng.uniform(-3.0, 3.0, size=n)
    prev = dist(rng.uniform(-2.0, 2.0, size=n), rng.uniform(0.1, 1.0, size=n))
    tr = replace(params(epsilon=0.01), mode="fixed-eta", fixed_eta=1e12)
    frozen = solve_eta(a, b, prev, tr).mu
    assert np.linalg.norm(frozen - prev.mu) / np.linalg.norm(prev.mu) < 1e-6
    newton = solve_eta(a, b, prev, replace(tr, fixed_eta=0.0)).mu
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
    assert_mean_matches_oracle(res.mu, a, b, prev, res.eta_star, tr)
    # kl_mean_term subtracts mu_prev again, losing up to an ulp of it
    assert res.c_mu == pytest.approx(kl_mean_term(res.mu, prev), rel=1e-10, abs=1e-10 * eps)


@st.composite
def negative_slope_instances(draw):
    """A dual instance with slopes below 0: one at least, and -0.0 among the draws."""
    a, b, prev, tr = draw(dual_instances())
    below = floats(-1e300, -1e-300)
    for j in draw(st.sets(st.integers(0, len(a) - 1))):
        a[j] = draw(st.one_of(st.just(-0.0), below))
    a[draw(st.integers(0, len(a) - 1))] = draw(below)
    return a, b, prev, tr


@settings(max_examples=300, deadline=None)
@given(negative_slope_instances(), st.data())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # C overflows near a_j = 0
def test_negative_slopes_are_read_as_zero(instance, data):
    a, b, prev, tr = instance
    floored = np.maximum(a, 0.0)
    assert primal_variance(a, prev, tr).tobytes() == primal_variance(floored, prev, tr).tobytes()
    eta = data.draw(etas((floored + tr.rho * tr.lambda_prec) * prev.sigma2))
    for mode in (tr, replace(tr, mode="fixed-eta", fixed_eta=eta)):
        res, ref = solve_eta(a, b, prev, mode), solve_eta(floored, b, prev, mode)
        assert (res.eta_star, res.mu.tobytes(), res.c_mu, res.iterations) == (
            ref.eta_star, ref.mu.tobytes(), ref.c_mu, ref.iterations)
        if mode is tr:  # the dual's root, on every exit
            assert res.c_mu <= 1.1 * tr.epsilon


@st.composite
def signed_slope_instances(draw):
    """A dual instance whose slopes mix entries below 0 with -0.0 and
    subnormals of either sign."""
    a, b, prev, tr = draw(dual_instances())
    tiny = float(np.finfo(float).smallest_subnormal)
    odd = st.sampled_from([-0.0, tiny, -tiny, 1e-310, -1e-310]) | floats(-1e300, -1e-300)
    for j in draw(st.sets(st.integers(0, len(a) - 1))):
        a[j] = draw(odd)
    return a, b, prev, tr


@settings(max_examples=50, deadline=None)
@given(signed_slope_instances(), st.data())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # C overflows near a_j = 0
def test_the_solve_counts_the_slopes_below_zero(instance, data):
    # -0.0 is not below 0; tiled to n = 4 BLOCK, on one CPU and on two, the
    # count is summed over the blocks of both parts
    a, b, prev, tr = instance
    n = 4 * baselines.BLOCK
    tiled = (np.resize(a, n), np.resize(b, n), dist(np.resize(prev.mu, n),
                                                    np.resize(prev.sigma2, n)))
    eta = data.draw(etas((np.maximum(a, 0.0) + tr.rho * tr.lambda_prec) * prev.sigma2))
    for mode in (tr, replace(tr, mode="fixed-eta", fixed_eta=eta)):
        assert solve_eta(a, b, prev, mode).clamped == np.count_nonzero(a < 0.0)
        for cpus in (1, 2):
            res = on_cpus(pytest.MonkeyPatch(), cpus, lambda: solve_eta(*tiled, mode))
            assert res.clamped == np.count_nonzero(tiled[0] < 0.0)


@pytest.mark.parametrize("mode, epsilon", [("standard", 0.01), ("standard", 1e3),
                                           ("fixed-eta", 0.01)],
                         ids=["no-newton", "newton", "fixed-eta"])
@pytest.mark.parametrize("decay", [2e-6, 0.1])
def test_the_solve_decays_the_mean_it_makes(mode, epsilon, decay):
    # bitwise the undecayed mean times 1 - weight_decay; the multiplier, C_mu
    # and the counts are those of the step before the decay
    rng = np.random.default_rng(38)
    n = 3 * baselines.BLOCK + 77
    a, b = rng.normal(size=n), rng.normal(size=n)
    prev = dist(rng.normal(size=n), rng.uniform(0.5, 1.0, size=n))
    tr = TrustRegionConfig(epsilon=epsilon, mode=mode, fixed_eta=10.0)
    plain = solve_eta(a, b, prev, tr)
    decayed = solve_eta(a, b, prev, replace(tr, weight_decay=decay))
    assert (plain.iterations > 0) == (epsilon == 1e3)
    assert (decayed.eta_star, decayed.c_mu, decayed.iterations, decayed.clamped) == (
        plain.eta_star, plain.c_mu, plain.iterations, plain.clamped)
    assert decayed.mu.tobytes() == np.multiply(plain.mu, 1.0 - decay).tobytes()


def etas(curvature):
    """Multipliers for an instance whose a + rho*lambda, or w, is `curvature`.
    At eta = 0 the mean is undefined where a curvature_j is 0, so 0 is drawn
    only where none is; any eta >= ETA_MIN keeps every denominator positive."""
    eta = floats(ETA_MIN, 1e6)
    return st.one_of(st.just(0.0), eta) if np.all(curvature > 0.0) else eta


@st.composite
def monotone_instances(draw):
    """A dual instance and two multipliers lo <= hi."""
    a, b, prev, tr = draw(dual_instances())
    eta = etas(a + tr.rho * tr.lambda_prec)
    return a, b, prev, tr, *sorted(draw(st.lists(eta, min_size=2, max_size=2)))


@settings(max_examples=300, deadline=None)
@given(monotone_instances())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # C overflows near a_j = 0
def test_c_mu_monotone_in_eta(instance):
    a, b, prev, tr, lo, hi = instance
    c_lo, err_lo = c_mu_and_rounding(a, b, prev, lo, tr)
    c_hi, err_hi = c_mu_and_rounding(a, b, prev, hi, tr)
    assert c_lo == math.inf or c_lo >= c_hi - (err_lo + err_hi)


@st.composite
def fixed_eta_instances(draw):
    """A dual instance in the fixed-eta mode, at a multiplier from `etas`:
    0 only where every w_j = (a_j + rho*lambda) s_j > 0, as solve_eta rounds
    it, where its mean at eta = 0 is defined."""
    a, b, prev, tr = draw(dual_instances())
    eta = draw(etas((a + tr.rho * tr.lambda_prec) * prev.sigma2))
    return a, b, prev, replace(tr, mode="fixed-eta", fixed_eta=eta)


@settings(max_examples=300, deadline=None)
@given(fixed_eta_instances())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # C overflows near a_j = 0
def test_a_fixed_eta_solve_is_the_reference_mean_at_its_multiplier(instance):
    a, b, prev, tr = instance
    res = solve_eta(a, b, prev, tr)
    assert res.iterations == 0 and res.eta_star == tr.fixed_eta
    assert_matches_oracle(res, a, b, prev, tr)


@settings(max_examples=100, deadline=None)
@given(dual_instances(), st.sampled_from([None, 1e3]))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # C overflows near a_j = 0
def test_a_fixed_eta_solve_at_the_root_is_the_standard_solve(instance, epsilon):
    # the two modes are one path: started at the standard solve's eta*, the
    # fixed-eta solve is its last evaluation and its mean, bitwise, with or
    # without Newton steps before it (epsilon 1e3 takes some), and tiled to
    # n = 4 BLOCK on one CPU and on two
    a, b, prev, tr = instance
    tr = tr if epsilon is None else replace(tr, epsilon=epsilon)
    n = 4 * baselines.BLOCK
    tiled = (np.resize(a, n), np.resize(b, n), dist(np.resize(prev.mu, n),
                                                    np.resize(prev.sigma2, n)))

    def one_path(args):
        res = solve_eta(*args, tr)
        fixed = solve_eta(*args, replace(tr, mode="fixed-eta", fixed_eta=res.eta_star))
        assert fixed.mu.tobytes() == res.mu.tobytes()
        assert (fixed.eta_star, fixed.c_mu, fixed.clamped, fixed.iterations) == (
            res.eta_star, res.c_mu, res.clamped, 0)

    one_path((a, b, prev))
    for cpus in (1, 2):
        on_cpus(pytest.MonkeyPatch(), cpus, lambda: one_path(tiled))


@settings(max_examples=100, deadline=None)
@given(dual_instances(), st.data())
def test_a_fixed_eta_zero_denominator_is_named_as_the_reference_names_it(instance, data):
    # at eta = 0 with rho*lambda = 0, w_j = 0 where a_j = 0; the first such j is named
    a, b, prev, tr = instance
    a[data.draw(st.integers(0, len(a) - 1))] = 0.0
    tr = replace(tr, lambda_prec=0.0, mode="fixed-eta", fixed_eta=0.0)
    j = int(np.flatnonzero(a == 0.0)[0])
    message = rf"^non-positive denominator in dimension {j}: a=0\.0, eta=0\.0, rho\*lambda=0\.0$"
    with pytest.raises(NonFiniteError, match=message):
        solve_eta(a, b, prev, tr)
    with pytest.raises(NonFiniteError, match=message):
        primal_mean(a, b, prev, 0.0, tr)
