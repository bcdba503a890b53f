import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kltrust import surrogate
from kltrust.errors import NonFiniteError, NumericalFault
from kltrust.surrogate import (
    FilterConsistencyError,
    SurrogateState,
    filter_update,
    init_state,
)


# ---------------------------------------------------------------------------
# Independent oracles. These deliberately use a different algebra path than
# the production code: explicit 2x2 matrices, gain via solve, and the
# (I - K H) P form for the posterior covariance.
# ---------------------------------------------------------------------------

def dense_filter(mus, gs, q, r, p0):
    """Textbook scalar-state Kalman recursion with explicit 2x2 matrices."""
    m = np.zeros(2)
    P = np.eye(2) * p0
    I = np.eye(2)
    for mu, g in zip(mus, gs):
        H = np.array([[mu, 1.0]])
        P_pred = P + q * I
        S = H @ P_pred @ H.T + r
        K = P_pred @ H.T / S
        m = m + (K * (g - H @ m)).ravel()
        P = (I - K @ H) @ P_pred
    return m, P


def batch_bayes(mus, gs, r, p0):
    """Conjugate posterior of the static linear model over the full history."""
    X = np.column_stack([mus, np.ones(len(mus))])
    prec = np.eye(2) / p0 + X.T @ X / r
    cov = np.linalg.inv(prec)
    mean = cov @ (X.T @ np.asarray(gs)) / r
    return mean, cov


def pd_and_finite(state):
    """The filter's rule, unfolded: the state and every determinant are finite
    and every 2x2 covariance is positive definite."""
    det = state.p11 * state.p22 - state.p12 * state.p12
    entries = (*vars(state).values(), det)
    return all(np.all(np.isfinite(x)) for x in entries) and bool(
        np.all(state.p11 > 0.0) and np.all(det > 0.0))


def copied(state):
    """A state with copies of the arrays of `state`, which filter_update writes."""
    return SurrogateState(*(np.copy(x) for x in vars(state).values()))


def run_filter(mus, gs, q, r, p0):
    state = init_state(1, p0)
    for mu, g in zip(mus, gs):
        state = filter_update(state, np.array([mu]), np.array([g]), q, r)
    return state


# ---------------------------------------------------------------------------
# init_state
# ---------------------------------------------------------------------------

def test_init_default_prior():
    state = init_state(3, 0.00005)
    assert np.array_equal(state.a, np.zeros(3))
    assert np.array_equal(state.b, np.zeros(3))
    assert np.array_equal(state.p11, np.full(3, 5e-5))
    assert np.array_equal(state.p22, np.full(3, 5e-5))
    assert np.array_equal(state.p12, np.zeros(3))


def test_init_unit_prior():
    state = init_state(1, 1.0)
    assert state.p11[0] == state.p22[0] == 1.0
    assert state.p12[0] == 0.0


@pytest.mark.parametrize("n,p0", [(0, 1.0), (1, 0.0), (1, -2.0), (1, np.nan)])
def test_init_rejects_bad_args(n, p0):
    with pytest.raises(ValueError):
        init_state(n, p0)


# ---------------------------------------------------------------------------
# filter_update
# ---------------------------------------------------------------------------

def test_single_update_matches_scalar_oracle():
    # frozen values from exact scalar evaluation of the update equations
    state = run_filter([1.0], [1.0], q=0.01, r=1.0, p0=5e-5)
    assert state.a[0] == pytest.approx(0.009851975296539556, rel=1e-12)
    assert state.b[0] == pytest.approx(0.009851975296539556, rel=1e-12)
    assert state.p11[0] == pytest.approx(0.009950987648269778, rel=1e-12)
    assert state.p22[0] == pytest.approx(0.009950987648269778, rel=1e-12)
    assert state.p12[0] == pytest.approx(-9.901235173022252e-05, rel=1e-12)


def test_huge_measurement_noise_ignores_observation():
    state = init_state(1, 1.0)
    updated = filter_update(state, np.array([3.0]), np.array([7.0]), 0.0, 1e12)
    assert abs(updated.a[0]) < 1e-9
    assert abs(updated.b[0]) < 1e-9


def test_static_model_matches_batch_posterior():
    # q=0 reduces the recursion to conjugate Bayesian linear regression
    rng = np.random.default_rng(7)
    mus = rng.uniform(-2.0, 2.0, size=12)
    gs = 2.0 * mus - 4.0 + rng.normal(0.0, 0.1, size=12)
    state = run_filter(mus, gs, q=0.0, r=0.01, p0=0.5)
    mean, cov = batch_bayes(mus, gs, r=0.01, p0=0.5)
    assert state.a[0] == pytest.approx(mean[0], rel=1e-9)
    assert state.b[0] == pytest.approx(mean[1], rel=1e-9)
    assert state.p11[0] == pytest.approx(cov[0, 0], rel=1e-9)
    assert state.p12[0] == pytest.approx(cov[0, 1], rel=1e-9)
    assert state.p22[0] == pytest.approx(cov[1, 1], rel=1e-9)


def test_noiseless_line_recovers_coefficients():
    rng = np.random.default_rng(3)
    mus = rng.uniform(-3.0, 3.0, size=20)
    state = run_filter(mus, 2.0 * mus - 4.0, q=0.0, r=1e-6, p0=1.0)
    assert state.a[0] == pytest.approx(2.0, abs=1e-3)
    assert state.b[0] == pytest.approx(-4.0, abs=1e-3)


def test_posterior_variance_shrinks_on_observed_direction():
    state = init_state(1, 1.0)
    prev = np.inf
    for _ in range(10):
        state = filter_update(state, np.array([1.5]), np.array([2.0]), 0.0, 0.5)
        h_var = 1.5 * (1.5 * state.p11[0] + 2 * state.p12[0]) + state.p22[0]
        assert h_var < prev
        prev = h_var


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
def test_rejects_bad_inputs():  # a zero gain meets the inf gradient (0 * inf) before the check
    state = init_state(2, 1.0)
    ok = np.zeros(2)
    with pytest.raises(ValueError):
        filter_update(state, np.zeros(3), ok, 0.1, 1.0)
    # a raise leaves the state it was given undefined, so each case gets a copy
    with pytest.raises(ValueError):
        filter_update(copied(state), np.array([np.nan, 0.0]), ok, 0.1, 1.0)
    with pytest.raises(ValueError):
        filter_update(copied(state), ok, np.array([np.inf, 0.0]), 0.1, 1.0)
    with pytest.raises(ValueError):
        filter_update(state, ok, ok, -0.1, 1.0)
    with pytest.raises(ValueError):
        filter_update(state, ok, ok, 0.1, 0.0)


def test_pd_violation_raises_consistency_error():
    # neither state passes the oracle, and filter_update's own check rejects
    # the update of each
    bad = SurrogateState(
        a=np.zeros(1),
        b=np.zeros(1),
        p11=np.array([1.0]),
        p12=np.array([2.0]),  # det < 0
        p22=np.array([1.0]),
    )
    nonfinite = init_state(2, 1.0)
    nonfinite.b[1] = np.nan
    for state in (bad, nonfinite):
        assert not pd_and_finite(state)
        zeros = np.zeros(state.n)
        with pytest.raises(FilterConsistencyError):
            filter_update(state, zeros, zeros, 0.0, 1.0)


def test_overflowing_mean_is_a_numerical_fault():
    # finite inputs whose innovation variance overflows: the seed fails as a
    # numerical fault instead of the filter keeping a silently wrong state
    state = init_state(2, 5e-5)
    with np.errstate(over="ignore"), pytest.raises(FilterConsistencyError) as exc:
        filter_update(state, np.array([1e160, 0.5]), np.array([1.0, 1.0]), 0.01, 1.0)
    assert isinstance(exc.value, NumericalFault)


# ---------------------------------------------------------------------------
# fresh state
# ---------------------------------------------------------------------------

def test_params_of_fresh_state_are_zero():
    state = init_state(4, 1.0)
    assert np.array_equal(state.a, np.zeros(4))
    assert np.array_equal(state.b, np.zeros(4))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_recursion_equals_dense_forward_filtering():
    # scalar sequences of length <= 20 against the dense 2x2 oracle
    rng = np.random.default_rng(2024)
    for _ in range(50):
        T = int(rng.integers(1, 21))
        q = float(rng.uniform(0.0, 0.1))
        r = float(rng.uniform(0.01, 10.0))
        mus = rng.uniform(-3.0, 3.0, size=T)
        gs = rng.uniform(-5.0, 5.0, size=T)
        state = run_filter(mus, gs, q, r, p0=5e-5)
        m, P = dense_filter(mus, gs, q, r, p0=5e-5)
        assert state.a[0] == pytest.approx(m[0], rel=1e-8, abs=1e-14)
        assert state.b[0] == pytest.approx(m[1], rel=1e-8, abs=1e-14)
        assert state.p11[0] == pytest.approx(P[0, 0], rel=1e-8)
        assert state.p12[0] == pytest.approx(P[0, 1], rel=1e-8, abs=1e-14)
        assert state.p22[0] == pytest.approx(P[1, 1], rel=1e-8)


def test_pd_preserved_over_long_runs():
    rng = np.random.default_rng(11)
    state = init_state(5, 5e-5)
    for _ in range(300):
        mu = rng.normal(size=5)
        g = rng.normal(size=5)
        state = filter_update(state, mu, g, q=float(rng.uniform(0, 0.05)), r=0.5)
    det = state.p11 * state.p22 - state.p12**2
    assert np.all(state.p11 > 0) and np.all(state.p22 > 0) and np.all(det > 0)


@settings(max_examples=200, deadline=None)
@given(
    p0=st.floats(1e-6, 1.0),
    q=st.one_of(st.just(0.0), st.floats(0.0, 0.1, allow_subnormal=False)),
    r=st.floats(1e-2, 10.0),
    steps=st.lists(
        st.tuples(*[st.floats(-1e3, 1e3, allow_subnormal=False)] * 2), min_size=1, max_size=30
    ),
)
def test_covariance_stays_pd_over_random_sequences(p0, q, r, steps):
    state = init_state(1, p0)
    for mu, g in steps:
        state = filter_update(state, np.array([mu]), np.array([g]), q, r)
        assert pd_and_finite(state)


@settings(max_examples=100, deadline=None)
@given(
    p0=st.floats(1e-6, 1.0),
    q=st.one_of(st.just(0.0), st.floats(0.0, 0.1, allow_subnormal=False)),
    r=st.floats(1e-2, 10.0),
    mu_max=st.floats(1e-3, 1e3),
    g_max=st.floats(1e-3, 1e3),
    hold=st.floats(0.0, 1.0),
    steps=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_state_stays_pd_over_long_multidimensional_sequences(
        p0, q, r, mu_max, g_max, hold, steps, seed):
    # 16 dimensions with |mu| <= mu_max <= 1e3; each mu_j keeps its last value
    # with probability `hold`, which leaves one direction of (a, b) unobserved
    rng = np.random.default_rng(seed)
    state = init_state(16, p0)
    mu = rng.uniform(-mu_max, mu_max, 16)
    for _ in range(steps):
        mu = np.where(rng.random(16) < hold, mu, rng.uniform(-mu_max, mu_max, 16))
        state = filter_update(state, mu, rng.uniform(-g_max, g_max, 16), q, r)
        assert pd_and_finite(state)


def test_dimensions_update_independently(monkeypatch):
    rng = np.random.default_rng(5)
    mu = rng.normal(size=6)
    g = rng.normal(size=6)
    state = init_state(6, 0.3)
    # one block, then two blocks with the second one partial
    for block in (surrogate.BLOCK, 4):
        monkeypatch.setattr(surrogate, "BLOCK", block)
        joint = filter_update(copied(state), mu, g, 0.02, 1.3)
        for j in range(6):
            single = filter_update(init_state(1, 0.3), mu[j : j + 1], g[j : j + 1], 0.02, 1.3)
            for name in ("a", "b", "p11", "p12", "p22"):
                assert getattr(joint, name)[j] == getattr(single, name)[0]


def unfused_update(state, mu, g, q, r):
    """filter_update's arithmetic as whole-vector expressions, and its v."""
    p11 = state.p11 + q
    p22 = state.p22 + q
    t1 = mu * p11 + state.p12
    t2 = mu * state.p12 + p22
    v = np.maximum(mu * t1 + t2 + r, r)
    resid = g - (mu * state.a + state.b)
    k1, k2 = t1 / v, t2 / v
    new = SurrogateState(
        state.a + k1 * resid, state.b + k2 * resid,
        p11 - k1 * t1, state.p12 - k1 * t2, p22 - k2 * t2,
    )
    return new, v


def oracle_fault(state, v):
    """The unfolded check: pd_and_finite, then a finite sum of v."""
    return not (pd_and_finite(state) and np.isfinite(v.sum()))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_folded_check_catches_a_fault_in_every_block(monkeypatch):
    # n = 10 at BLOCK = 4 is blocks of 4, 4 and 2 dimensions
    monkeypatch.setattr(surrogate, "BLOCK", 4)
    rng = np.random.default_rng(9)
    mu, g = rng.normal(size=10), rng.normal(size=10)
    state = init_state(10, 0.3)
    state = filter_update(state, rng.normal(size=10), rng.normal(size=10), 0.02, 1.3)

    def negative_det(s, m, j):
        s.p12[j] = 2.0 * np.sqrt(s.p11[j] * s.p22[j]) + 1.0
        m[j] = 0.0

    def nan_p12(s, m, j):
        s.p12[j] = np.nan

    def overflowing_v(s, m, j):
        m[j] = 1e160

    for fault in (negative_det, nan_p12, overflowing_v):
        for j in (1, 5, 9):  # the first, the middle and the last, partial block
            bad = copied(state)
            m = mu.copy()
            fault(bad, m, j)
            ref, v = unfused_update(bad, m, g, 0.02, 1.3)
            assert oracle_fault(ref, v), (fault.__name__, j)
            with pytest.raises(FilterConsistencyError):
                filter_update(bad, m, g, 0.02, 1.3)

    # and where nothing is wrong the blocked update is the unfused one, bitwise
    ref, _ = unfused_update(state, mu, g, 0.02, 1.3)
    for block in (4, 8192):
        monkeypatch.setattr(surrogate, "BLOCK", block)
        new = filter_update(copied(state), mu, g, 0.02, 1.3)
        for name in ("a", "b", "p11", "p12", "p22"):
            assert np.array_equal(getattr(new, name), getattr(ref, name)), (block, name)


@pytest.mark.parametrize("block, n", [(4, 10), (None, 2 * surrogate.BLOCK + 5)],
                         ids=["partial-last-block", "default-block"])
def test_update_writes_the_state_in_place(monkeypatch, block, n):
    # the update returns the state it was given, with the same five arrays
    # holding the unfused update of the old state, bitwise
    if block is not None:
        monkeypatch.setattr(surrogate, "BLOCK", block)
    rng = np.random.default_rng(12)
    state = filter_update(init_state(n, 0.3), rng.normal(size=n), rng.normal(size=n), 0.02, 1.3)
    mu, g = rng.normal(size=n), rng.normal(size=n)
    arrays = dict(vars(state))
    ref, _ = unfused_update(copied(state), mu, g, 0.02, 1.3)
    assert filter_update(state, mu, g, 0.02, 1.3) is state
    for name, x in arrays.items():
        assert getattr(state, name) is x, name
        assert np.array_equal(x, getattr(ref, name)), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_input_in_every_block_is_caught(monkeypatch):
    # the inputs are checked by the block loop's finite sum, not up front:
    # n = 10 at BLOCK = 4 is blocks of 4, 4 and 2 dimensions
    monkeypatch.setattr(surrogate, "BLOCK", 4)
    rng = np.random.default_rng(10)
    mu, g = rng.normal(size=10), rng.normal(size=10)
    fresh = init_state(10, 0.3)
    warm = filter_update(copied(fresh), rng.normal(size=10), rng.normal(size=10), 0.02, 1.3)
    assert warm is not fresh and np.all(fresh.p12 == 0.0)

    def bad_mu(m, gg, j, value):
        m[j] = value

    def bad_g(m, gg, j, value):
        gg[j] = value

    def bad_g_zero_gain(m, gg, j, value):
        # on the fresh state (p12 = 0) mu_j = 0 zeroes the gain's first entry,
        # and the inf reaches a as 0 * inf = NaN
        m[j], gg[j] = 0.0, value

    for state in (fresh, warm):
        for fault in (bad_mu, bad_g, bad_g_zero_gain):
            for value in (np.nan, np.inf, -np.inf):
                for j in (1, 5, 9):  # the first, the middle and the last, partial block
                    m, gg = mu.copy(), g.copy()
                    fault(m, gg, j, value)
                    with pytest.raises(NonFiniteError):
                        filter_update(copied(state), m, gg, 0.02, 1.3)


def test_permutation_equivariance():
    rng = np.random.default_rng(6)
    mu = rng.normal(size=8)
    g = rng.normal(size=8)
    perm = rng.permutation(8)
    direct = filter_update(init_state(8, 0.2), mu, g, 0.01, 0.7)
    permuted = filter_update(init_state(8, 0.2), mu[perm], g[perm], 0.01, 0.7)
    assert np.array_equal(direct.a[perm], permuted.a)
    assert np.array_equal(direct.b[perm], permuted.b)
    assert np.array_equal(direct.p11[perm], permuted.p11)


def test_older_observations_have_less_influence():
    # inject a unit bump into g at different lags; with q > 0 the recent
    # bump must move the final mean more than any older one
    T, q, r = 12, 0.05, 1.0
    mus = np.full(T, 0.8)
    gs = np.full(T, 1.0)
    base = run_filter(mus, gs, q, r, p0=5e-5)
    base_m = np.array([base.a[0], base.b[0]])
    deltas = []
    for t in range(T):
        bumped = gs.copy()
        bumped[t] += 1.0
        st = run_filter(mus, bumped, q, r, p0=5e-5)
        deltas.append(np.linalg.norm(np.array([st.a[0], st.b[0]]) - base_m))
    for earlier, later in zip(deltas[:-1], deltas[1:]):
        assert earlier < later
