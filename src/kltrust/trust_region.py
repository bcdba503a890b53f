"""Closed-form primal updates and the dual bisection for the KL trust region.

A diagonal Gaussian over parameters is updated by minimizing the expected
quadratic surrogate plus covariance/prior regularizers, subject to a bound
epsilon on the mean part of the KL divergence to the previous distribution:

    C_mu = 1/2 * sum_j (mu_j - mu_prev_j)^2 / sigma2_prev_j  <=  epsilon.

The mean and variance have closed forms given the Lagrange multiplier eta of
that constraint; the variance is eta-free. eta itself is the root of
g'(eta) = C_mu(mu(eta)) - epsilon, found by warm-started bisection. C_mu(eta)
is non-increasing, so the root is unique when it exists; when g' < 0
everywhere the optimum is interior and eta* = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFault

ETA_MIN = 1e-12
ETA_MAX = 1e12


class DualSolverError(NumericalFault, RuntimeError):
    """Bracket expansion hit [ETA_MIN, ETA_MAX] without a sign change."""

    def __init__(self, message: str, lo: float, hi: float):
        super().__init__(message)
        self.lo = lo
        self.hi = hi


@dataclass(frozen=True)
class ParameterDistribution:
    """Diagonal Gaussian over the parameter vector."""

    mu: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        if self.mu.shape != self.sigma2.shape or self.mu.ndim != 1:
            raise ValueError("mu and sigma2 must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.sigma2))):
            raise ValueError("distribution contains non-finite entries")
        if np.any(self.sigma2 <= 0.0):
            raise ValueError("sigma2 must be strictly positive")

    @property
    def n(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class TrustRegionParams:
    """Constraint bound and regularizer weights of one step.

    epsilon bounds C_mu; rho weights the prior KL, nu the covariance KL,
    lambda_prec is the precision of the zero-mean Gaussian prior. rho and
    lambda_prec may be zero (unregularized corner used by several contracts);
    epsilon and nu must be positive.
    """

    epsilon: float
    rho: float
    nu: float
    lambda_prec: float

    def __post_init__(self):
        vals = (self.epsilon, self.rho, self.nu, self.lambda_prec)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("trust-region parameters must be finite")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.nu <= 0.0:
            raise ValueError(f"nu must be > 0, got {self.nu}")
        if self.rho < 0.0 or self.lambda_prec < 0.0:
            raise ValueError("rho and lambda_prec must be >= 0")


@dataclass(frozen=True)
class DualSolve:
    """Result of one dual solve: multiplier, new mean, and diagnostics."""

    eta_star: float
    mu: np.ndarray
    c_mu: float
    iterations: int


def primal_mean(
    a: np.ndarray,
    b: np.ndarray,
    prev: ParameterDistribution,
    eta: float,
    tr: TrustRegionParams,
) -> np.ndarray:
    """Optimal mean for a fixed multiplier eta >= 0 (a_j >= 0 expected).

    mu_j(eta) = (eta * mu_prev_j / sigma2_prev_j - b_j)
                / (a_j + eta / sigma2_prev_j + rho * lambda_prec)
    """
    rl = tr.rho * tr.lambda_prec
    denom = a + eta / prev.sigma2 + rl
    if np.any(denom <= 0.0):
        j = int(np.nonzero(denom <= 0.0)[0][0])
        raise ValueError(
            f"non-positive denominator in dimension {j}: "
            f"a={a[j]}, eta={eta}, rho*lambda={rl}"
        )
    return (eta * prev.mu / prev.sigma2 - b) / denom


def primal_variance(
    a: np.ndarray,
    prev: ParameterDistribution,
    tr: TrustRegionParams,
) -> np.ndarray:
    """Optimal variance; structurally independent of the multiplier.

    sigma2_j = (rho + nu) / (a_j + rho * lambda_prec + nu / sigma2_prev_j)
    """
    out = (tr.rho + tr.nu) / (a + tr.rho * tr.lambda_prec + tr.nu / prev.sigma2)
    if np.any(out <= 0.0):
        raise ValueError("variance update produced a non-positive entry; a_j < 0?")
    return out


def kl_mean_term(mu_new: np.ndarray, prev: ParameterDistribution) -> float:
    """Mean part of KL(new || prev): 1/2 * sum (delta)^2 / sigma2_prev."""
    d = mu_new - prev.mu
    return 0.5 * float(np.sum(d * d / prev.sigma2))


def dual_derivative(
    eta: float,
    a: np.ndarray,
    b: np.ndarray,
    prev: ParameterDistribution,
    tr: TrustRegionParams,
) -> float:
    """g'(eta) = C_mu(mu(eta)) - epsilon; positive means constraint violated."""
    return kl_mean_term(primal_mean(a, b, prev, eta, tr), prev) - tr.epsilon


def solve_eta(
    a: np.ndarray,
    b: np.ndarray,
    prev: ParameterDistribution,
    tr: TrustRegionParams,
    eta_warm: float = 1.0,
    width_tol: float | None = None,
    max_iter: int = 200,
) -> DualSolve:
    """Find eta* >= 0 and the corresponding constrained mean.

    Brackets the root of g' around the warm seed (bounds eta_warm/3 and
    3*eta_warm, expanded geometrically by 3 per side within
    [ETA_MIN, ETA_MAX]), then bisects on the arithmetic midpoint until
    |g'(eta)| <= 0.1 * epsilon. A positive `width_tol` additionally permits
    stopping once the bracket is narrower than it; the returned point is then
    clamped to the feasible side (C_mu <= epsilon) if the midpoint overshoots,
    so C_mu(eta*) <= 1.1 * epsilon holds on every exit path.

    When g' < 0 everywhere, the surrogate optimum lies inside the region:
    returns eta* = 0 when the eta = 0 mean is defined (all a_j + rho*lambda
    > 0), otherwise the smallest expanded bracket bound.
    """
    if eta_warm <= 0.0 or not math.isfinite(eta_warm):
        eta_warm = 1.0
    band = 0.1 * tr.epsilon
    rl = tr.rho * tr.lambda_prec

    def result(eta: float, iterations: int) -> DualSolve:
        mu = primal_mean(a, b, prev, eta, tr)
        return DualSolve(eta, mu, kl_mean_term(mu, prev), iterations)

    # interior optimum: the unconstrained (eta = 0) step already satisfies
    # the bound, so the multiplier is zero
    if np.all(a + rl > 0.0):
        mu0 = primal_mean(a, b, prev, 0.0, tr)
        c0 = kl_mean_term(mu0, prev)
        if c0 <= tr.epsilon:
            return DualSolve(0.0, mu0, c0, 0)

    lo = max(eta_warm / 3.0, ETA_MIN)
    hi = min(3.0 * eta_warm, ETA_MAX)
    g_lo = dual_derivative(lo, a, b, prev, tr)
    g_hi = dual_derivative(hi, a, b, prev, tr)

    # expand upward while the constraint is still violated at hi
    while g_hi > 0.0:
        if hi >= ETA_MAX:
            raise DualSolverError(
                f"constraint still violated at eta={hi:g} "
                f"(g'={g_hi:g}); surrogate is pathological",
                lo,
                hi,
            )
        lo, g_lo = hi, g_hi
        hi = min(hi * 3.0, ETA_MAX)
        g_hi = dual_derivative(hi, a, b, prev, tr)

    # expand downward while even lo is inside the region
    while g_lo <= 0.0:
        if lo <= ETA_MIN:
            # interior optimum with eta = 0 undefined (some a_j + rl == 0):
            # settle for the smallest admissible multiplier
            return result(lo, 0)
        hi, g_hi = lo, g_lo
        lo = max(lo / 3.0, ETA_MIN)
        g_lo = dual_derivative(lo, a, b, prev, tr)

    if abs(g_lo) <= band:
        return result(lo, 0)
    if abs(g_hi) <= band:
        return result(hi, 0)

    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        g_mid = dual_derivative(mid, a, b, prev, tr)
        if abs(g_mid) <= band:
            return result(mid, it)
        if g_mid > 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
        if width_tol is not None and hi - lo < width_tol:
            # coarse exit: keep the step inside the region if mid overshoots
            return result(mid if g_mid <= 0.0 else hi, it)

    raise DualSolverError(
        f"bisection failed to reach |g'| <= {band:g} in {max_iter} iterations",
        lo,
        hi,
    )
