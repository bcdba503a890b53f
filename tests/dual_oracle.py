"""Reference oracles for the trust-region mean: the textbook closed form of the
mean at a fixed multiplier and the mean part of the KL, computed directly.

`solve_eta` builds its mean as mu_prev - sqrt(s) * z / (w + eta) and its C_mu
as 1/2 p.p; these compute the same quantities by the other algebraic form, so
the tests can check one against the other.
"""

import numpy as np

from kltrust.errors import NonFiniteError
from kltrust.trust_region import (
    ParameterDistribution,
    TrustRegionConfig,
    _check_lengths,
    solve_eta,
)


def primal_mean(
    a: np.ndarray,
    b: np.ndarray,
    prev: ParameterDistribution,
    eta: float,
    tr: TrustRegionConfig,
) -> np.ndarray:
    """Optimal mean for a fixed multiplier eta >= 0 (a_j >= 0 expected).

    Raises NonFiniteError naming the first dimension whose denominator is <= 0.

    mu_j(eta) = (eta * mu_prev_j / sigma2_prev_j - b_j)
                / (a_j + eta / sigma2_prev_j + rho * lambda_prec)
    """
    _check_lengths(prev, a=a, b=b)
    rl = tr.rho * tr.lambda_prec
    denom = a + eta / prev.sigma2 + rl
    if np.any(denom <= 0.0):
        j = int(np.nonzero(denom <= 0.0)[0][0])
        raise NonFiniteError(
            f"non-positive denominator in dimension {j}: "
            f"a={a[j]}, eta={eta}, rho*lambda={rl}"
        )
    return (eta * prev.mu / prev.sigma2 - b) / denom


def kl_mean_term(mu_new: np.ndarray, prev: ParameterDistribution) -> float:
    """Mean part of KL(new || prev): 1/2 * sum (delta)^2 / sigma2_prev."""
    d = mu_new - prev.mu
    return 0.5 * float(np.sum(d * d / prev.sigma2))


def underflow(a, prev, eta, tr, step):
    """A bound, per dimension, on what underflow costs either form of a mean
    step of size `step`: half a subnormal step per operation, in the
    reference's eta * mu_prev / s and its quotient, and in solve_eta's z, w
    and p, which / s and the quotients magnify (w by the step itself)."""
    denom = a + eta / prev.sigma2 + tr.rho * tr.lambda_prec
    return np.finfo(float).smallest_subnormal * (
        2.0 + (4.0 + step) * (1.0 + 1.0 / prev.sigma2) / denom)


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
    delta += underflow(a, prev, eta, tr, d)
    # d^2/s (or solve_eta's p^2) can underflow too, by half a subnormal step per operation
    tiny = np.finfo(float).smallest_subnormal * (1.0 + 1.0 / prev.sigma2)
    err = 0.5 * np.sum((2.0 * d + delta) * delta / prev.sigma2 + tiny) + 4 * len(a) * ulp * c
    return c, err


def assert_mean_matches_oracle(mu, a, b, prev, eta, tr):
    """A mean against the reference mean at eta. Where both overflow (a_j +
    rho*lambda near 0 at eta = 0) they must agree."""
    ref = primal_mean(a, b, prev, eta, tr)
    step = np.abs(ref - prev.mu)
    # both forms round relative to the magnitudes they combine
    tol = 1e-10 * (np.abs(ref) + np.abs(prev.mu)) + underflow(a, prev, eta, tr, step)
    # solve_eta's p = (mu_prev - mu) / sqrt(s) overflows first where s < 1
    big = step / np.sqrt(prev.sigma2) >= (1 - 1e-10) * np.finfo(float).max
    assert np.all((np.abs(mu - ref) <= tol) | (mu == ref) | (np.isinf(mu) & big))


def assert_matches_oracle(res, a, b, prev, tr):
    """A solve's mean and C_mu against the reference at its multiplier."""
    assert_mean_matches_oracle(res.mu, a, b, prev, res.eta_star, tr)
    c, err = c_mu_and_rounding(a, b, prev, res.eta_star, tr)
    assert res.c_mu == c or abs(res.c_mu - c) <= err


def checked_solve(a, b, prev, tr):
    """solve_eta, checked against the reference at the slopes it reads, floored
    at 0: a stand-in for the optimizer's `solve_eta` in the fixed-eta mode."""
    res = solve_eta(a, b, prev, tr)
    assert_matches_oracle(res, np.maximum(a, 0.0), b, prev, tr)
    return res
