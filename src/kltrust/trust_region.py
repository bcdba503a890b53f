"""Closed-form primal updates and the secular-equation dual for the KL trust region.

A diagonal Gaussian over parameters is updated by minimizing the expected
quadratic surrogate plus covariance/prior regularizers, subject to a bound
epsilon on the mean part of the KL divergence to the previous distribution:

    C_mu = 1/2 * sum_j (mu_j - mu_prev_j)^2 / sigma2_prev_j  <=  epsilon.

The mean and variance have closed forms given the Lagrange multiplier eta of
that constraint; the variance is eta-free. eta itself is the root of
C_mu(eta) = epsilon, the secular equation of a trust-region subproblem,
solved by Newton's method (More & Sorensen 1983, "Computing a trust region
step"). When C_mu(0) <= epsilon the optimum is interior and eta* = 0.
The functions read epsilon, rho, nu and lambda_prec from the optimizer's
TrustRegionConfig, passed as `tr`, which checks their ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonFiniteError, NumericalFault
from .surrogate import BLOCK

if TYPE_CHECKING:  # the optimizer module imports this one
    from .optimizer import TrustRegionConfig

ETA_MIN = 1e-12
ETA_MAX = 1e12
MAX_ITER = 50  # Newton steps before a solve fails; about 2 are typical


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
    g~ = (a + rho*lambda) * mu_prev + b, the mean step is
    mu(eta) - mu_prev = -s * g~ / (w + eta), so

        C(eta) = 1/2 * sum_j s_j g~_j^2 / (w_j + eta)^2

    (the trust-region secular equation). Newton's method on the concave,
    increasing phi(eta) = 1/sqrt(C(eta)) - 1/sqrt(epsilon) starts at
    eta = 0, or at ETA_MIN when some w_j < ETA_MIN, and its iterates rise
    monotonically toward the root without passing it; it stops once
    |C - epsilon| <= 0.1 * epsilon, so C_mu(eta*) <= 1.1 * epsilon on every
    exit. The first evaluation is the interior test: when C <= epsilon there
    the step is returned with eta* = 0 (or ETA_MIN) and no iterations.
    `iterations` counts Newton steps.
    """
    eps = tr.epsilon
    rl = tr.rho * tr.lambda_prec
    n = prev.n
    w, z, root_s = np.empty(n), np.empty(n), np.empty(n)
    w_min = np.inf
    # one sweep, BLOCK dimensions at a time, so each block is read from memory once
    for lo in range(0, n, BLOCK):
        s = slice(lo, lo + BLOCK)
        ws, zs, rs = w[s], z[s], root_s[s]
        np.add(a[s], rl, out=ws)
        np.multiply(ws, prev.mu[s], out=zs)
        zs += b[s]
        ws *= prev.sigma2[s]
        np.sqrt(prev.sigma2[s], out=rs)
        zs *= rs
        w_min = min(w_min, ws.min())
    # z = sqrt(s) * g~, so p = z / (w + eta) gives C = 1/2 p.p and
    # -C'(eta) = p.(p / (w + eta)): one pass each over two work buffers
    d = np.empty_like(w)
    p = np.empty_like(w)

    def secular(eta: float) -> float:
        np.add(w, eta, out=d)
        np.divide(z, d, out=p)
        return 0.5 * float(np.dot(p, p))

    # below ETA_MIN a w_j makes the eta = 0 step undefined (w_j = 0) or
    # overflow C and C', so the solve starts at the smallest multiplier
    eta = 0.0 if w_min >= ETA_MIN else ETA_MIN
    c = secular(eta)
    iterations = 0
    done = c <= eps  # a NaN C is not done, and its Newton step fails below
    while not done:
        np.divide(p, d, out=d)
        # numpy division: a zero C' gives an infinite step, which fails below
        step = float(2.0 * c * (math.sqrt(c / eps) - 1.0) / np.dot(p, d))
        iterations += 1
        if not (eta + step <= ETA_MAX and iterations <= MAX_ITER):
            raise DualSolverError(
                f"Newton step {iterations} from eta={eta:g} (C_mu={c:g}) leaves "
                f"eta <= {ETA_MAX:g} or MAX_ITER={MAX_ITER}; surrogate is pathological"
            )
        eta += step
        c = secular(eta)
        done = abs(c - eps) <= 0.1 * eps
    p *= root_s
    return DualSolve(eta, np.subtract(prev.mu, p, out=p), c, iterations)
