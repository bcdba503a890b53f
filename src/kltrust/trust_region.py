"""Closed-form primal updates and the secular-equation dual for the KL trust region.

A diagonal Gaussian over parameters is updated by minimizing the expected
quadratic surrogate plus covariance/prior regularizers, subject to a bound
epsilon on the mean part of the KL divergence to the previous distribution:

    C_mu = 1/2 * sum_j (mu_j - mu_prev_j)^2 / sigma2_prev_j  <=  epsilon.

The mean and variance have closed forms given the Lagrange multiplier eta of
that constraint; the variance is eta-free. eta itself is the root of
C_mu(eta) = epsilon, the secular equation of a trust-region subproblem,
solved by Newton's method from the classic lower bound on the root (More &
Sorensen 1983, "Computing a trust region step"), which on a network already
lies in the solver's band. When C_mu(0) <= epsilon the optimum is interior
and eta* = 0.
The functions read epsilon, rho, nu and lambda_prec from the optimizer's
TrustRegionConfig, passed as `tr`, which checks their ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import surrogate
from .errors import NonFiniteError, NumericalFault

if TYPE_CHECKING:  # the optimizer module imports this one
    from .optimizer import TrustRegionConfig

ETA_MIN = 1e-12
ETA_MAX = 1e12
MAX_ITER = 50  # Newton steps before a solve fails; 0 or 1 are typical from the bound


class DualSolverError(NumericalFault, RuntimeError):
    """Newton did not reach the band: the root lies beyond ETA_MAX, the
    surrogate is non-finite, or MAX_ITER steps ran out."""


@dataclass(frozen=True)
class ParameterDistribution:
    """Diagonal Gaussian over the parameter vector."""

    mu: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        if self.mu.shape != self.sigma2.shape or self.mu.ndim != 1:
            raise ValueError("mu and sigma2 must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.sigma2))):
            raise NonFiniteError("distribution contains non-finite entries")
        if np.any(self.sigma2 <= 0.0):
            raise ValueError("sigma2 must be strictly positive")

    @property
    def n(self) -> int:
        return self.mu.shape[0]


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
    tr: TrustRegionConfig,
) -> np.ndarray:
    """Optimal mean for a fixed multiplier eta >= 0 (a_j >= 0 expected).

    Raises NonFiniteError naming the first dimension whose denominator is <= 0.

    mu_j(eta) = (eta * mu_prev_j / sigma2_prev_j - b_j)
                / (a_j + eta / sigma2_prev_j + rho * lambda_prec)
    """
    rl = tr.rho * tr.lambda_prec
    denom = a + eta / prev.sigma2 + rl
    if np.any(denom <= 0.0):
        j = int(np.nonzero(denom <= 0.0)[0][0])
        raise NonFiniteError(
            f"non-positive denominator in dimension {j}: "
            f"a={a[j]}, eta={eta}, rho*lambda={rl}"
        )
    return (eta * prev.mu / prev.sigma2 - b) / denom


def primal_variance(
    a: np.ndarray,
    prev: ParameterDistribution,
    tr: TrustRegionConfig,
) -> np.ndarray:
    """Optimal variance; structurally independent of the multiplier.

    sigma2_j = (rho + nu) / (a_j + rho * lambda_prec + nu / sigma2_prev_j)
    """
    out = np.add(a, tr.rho * tr.lambda_prec)
    out += tr.nu / prev.sigma2
    np.divide(tr.rho + tr.nu, out, out=out)
    if not out.min() > 0.0:  # also false for a NaN
        raise NonFiniteError("variance update produced a non-positive or NaN entry; a_j < 0?")
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
    tr: TrustRegionConfig,
) -> float:
    """g'(eta) = C_mu(mu(eta)) - epsilon; positive means constraint violated."""
    return kl_mean_term(primal_mean(a, b, prev, eta, tr), prev) - tr.epsilon


def solve_eta(
    a: np.ndarray,
    b: np.ndarray,
    prev: ParameterDistribution,
    tr: TrustRegionConfig,
) -> DualSolve:
    """Find eta* >= 0 and the corresponding constrained mean.

    With s = sigma2_prev, w = s * (a + rho*lambda) and
    z = sqrt(s) * ((a + rho*lambda) * mu_prev + b), the mean step is
    mu(eta) - mu_prev = -sqrt(s) * z / (w + eta), so

        C(eta) = 1/2 * sum_j z_j^2 / (w_j + eta)^2

    (the trust-region secular equation). Newton's method on the concave,
    increasing phi(eta) = 1/sqrt(C(eta)) - 1/sqrt(epsilon) rises
    monotonically toward the root from any start below it, and stops once
    |C - epsilon| <= 0.1 * epsilon, so C_mu(eta*) <= 1.1 * epsilon on every
    exit. It starts at eta = 0 (ETA_MIN when some w_j < ETA_MIN) or, when
    larger, at the lower bound L = sqrt(z.z / (2 epsilon)) - max_j w_j on the
    root, since C(eta) >= z.z / (2 (max_j w_j + eta)^2) (More & Sorensen
    1983; Conn, Gould & Toint 2000, section 7.3). A start at L proves
    C(0) > epsilon; from eta = 0 the first evaluation is the interior test,
    and when C <= epsilon there the step is returned with eta* = 0 (or
    ETA_MIN). When every w_j is far below eta*, as on a network, L lies in
    the band and no Newton step is taken. `iterations` counts Newton steps.
    One n-vector holds z, then each evaluation's p = z / (w + eta), then the
    returned mean; w, and z after a Newton step, are rebuilt per block from
    a, b and prev. Only Newton allocates a second n-vector, p / (w + eta).
    """
    eps = tr.epsilon
    rl = tr.rho * tr.lambda_prec
    n, block = prev.n, surrogate.BLOCK
    # per block: w in scratch that stays in cache, and z, if asked, into out
    out = np.empty(n)
    scratch = np.empty((2, min(block, n)))

    def blocks(z: bool):
        for lo in range(0, n, block):
            s = slice(lo, lo + block)
            w, root = scratch[:, : min(block, n - lo)]
            np.add(a[s], rl, out=w)
            if z:
                zs = np.multiply(w, prev.mu[s], out=out[s])
                zs += b[s]
                zs *= np.sqrt(prev.sigma2[s], out=root)
            w *= prev.sigma2[s]
            yield s, w

    w_min, w_max = np.inf, -np.inf
    for _, w in blocks(z=True):
        w_min, w_max = min(w_min, w.min()), max(w_max, w.max())

    def secular(eta: float, z: bool) -> float:
        # p = z / (w + eta) gives C = 1/2 p.p and -C'(eta) = p.(p / (w + eta))
        for s, w in blocks(z):
            w += eta
            out[s] /= w
        return 0.5 * float(np.dot(out, out))

    # below ETA_MIN a w_j makes the eta = 0 step undefined (w_j = 0) or
    # overflow C and C', so the solve starts at the smallest multiplier
    start = 0.0 if w_min >= ETA_MIN else ETA_MIN
    zz = float(np.dot(out, out))
    # a non-finite z.z (overflow or NaN) bounds nothing, and the start stays
    bound = math.sqrt(zz) / math.sqrt(2.0 * eps) - w_max if math.isfinite(zz) else -math.inf
    if bound > ETA_MAX:
        raise DualSolverError(
            f"the lower bound eta={bound:g} on the root leaves "
            f"eta <= {ETA_MAX:g}; surrogate is pathological"
        )
    eta = max(start, bound)
    c = secular(eta, z=False)  # out still holds z
    iterations = 0
    # from the start this is the interior test; a start at the bound proves
    # C(0) > epsilon. A NaN C is not done, and its Newton step fails below
    done = c <= eps if eta == start else abs(c - eps) <= 0.1 * eps
    dp = None if done else np.empty(n)  # p / (w + eta), only when Newton runs
    while not done:
        for s, w in blocks(z=False):
            w += eta
            np.divide(out[s], w, out=dp[s])
        # numpy division: a zero C' gives an infinite step, which fails below
        step = float(2.0 * c * (math.sqrt(c / eps) - 1.0) / np.dot(out, dp))
        iterations += 1
        if not (eta + step <= ETA_MAX and iterations <= MAX_ITER):
            raise DualSolverError(
                f"Newton step {iterations} from eta={eta:g} (C_mu={c:g}) leaves "
                f"eta <= {ETA_MAX:g} or MAX_ITER={MAX_ITER}; surrogate is pathological"
            )
        eta += step
        c = secular(eta, z=True)
        done = abs(c - eps) <= 0.1 * eps
    # mu(eta*) = mu_prev - sqrt(s) * p, written over p
    for lo in range(0, n, block):
        p, root = out[lo : lo + block], scratch[0, : min(block, n - lo)]
        p *= np.sqrt(prev.sigma2[lo : lo + block], out=root)
        np.subtract(prev.mu[lo : lo + block], p, out=p)
    return DualSolve(eta, out, c, iterations)
