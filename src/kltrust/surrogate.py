"""Recursive least-squares fit of a per-dimension linear gradient model.

Each parameter dimension j carries an independent 2-dimensional state
w_j = (a_j, b_j) modelling the stochastic gradient as g_j ~ a_j * mu_j + b_j.
The state drifts as a Gaussian random walk with variance q and is observed
through the noisy measurement g_j with variance r, so the posterior is
maintained by a scalar-vectorized Kalman update. (a, b) are the MAP
coefficients of the quadratic surrogate used by the trust-region step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFault

# dimensions per block of filter_update: the block's temporaries stay in
# cache instead of each one streaming an n-vector through memory
BLOCK = 8192


class FilterConsistencyError(NumericalFault, RuntimeError):
    """Filter covariance lost positive definiteness (numerical fault)."""


@dataclass
class SurrogateState:
    """Per-dimension filter state: MAP mean (a, b) and 2x2 covariance.

    The covariance of dimension j is [[p11_j, p12_j], [p12_j, p22_j]];
    only the unique entries are stored, as three parallel vectors.
    """

    a: np.ndarray
    b: np.ndarray
    p11: np.ndarray
    p12: np.ndarray
    p22: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def validate(self) -> None:
        """Raise FilterConsistencyError unless the state is finite and every
        covariance is positive definite."""
        vecs = (self.a, self.b, self.p11, self.p12, self.p22)
        if any(v.shape != (self.n,) for v in vecs):
            raise ValueError("state vectors must share one length")
        # p11 > 0 and det > 0 imply p22 > 0, and finite p11 and det imply
        # finite p12 and p22. NaN fails every comparison, and a sum is finite
        # only when every entry is (or it leaves the float range, also a fault)
        det = self.p11 * self.p22
        det -= self.p12 * self.p12
        total = self.a.sum() + self.b.sum() + self.p11.sum() + det.sum()
        if not (min(self.p11.min(), det.min()) > 0.0 and np.isfinite(total)):
            raise FilterConsistencyError("covariance not positive definite or state non-finite")


def init_state(n: int, p0: float) -> SurrogateState:
    """Zero-mean prior with isotropic 2x2 covariance p0 * I per dimension."""
    if n < 1:
        raise ValueError(f"parameter dimension must be >= 1, got {n}")
    if not np.isfinite(p0) or p0 <= 0.0:
        raise ValueError(f"prior variance p0 must be > 0, got {p0}")
    zeros = np.zeros(n, dtype=np.float64)
    p_diag = np.full(n, float(p0), dtype=np.float64)
    return SurrogateState(
        a=zeros.copy(),
        b=zeros.copy(),
        p11=p_diag.copy(),
        p12=zeros.copy(),
        p22=p_diag,
    )


def filter_update(
    state: SurrogateState,
    mu: np.ndarray,
    g: np.ndarray,
    q: float,
    r: float,
) -> SurrogateState:
    """One vectorized Kalman step on every dimension.

    Per dimension, with H = (mu_j, 1) and t = P- H^T:
        P- = P + q*I
        t  = (mu_j p11- + p12, mu_j p12 + p22-)
        v  = H t + r
        m <- m + t * (g_j - H m) / v
        P <- P- - t t^T / v
    The dimensions are updated BLOCK at a time. Returns a new state; the
    input state is not mutated. Raises FilterConsistencyError when the new
    covariance is not positive definite or the new state is not finite.
    """
    mu = np.asarray(mu, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if mu.shape != (state.n,) or g.shape != (state.n,):
        raise ValueError(
            f"expected vectors of length {state.n}, got {mu.shape} and {g.shape}"
        )
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(g))):
        raise ValueError("mu and g must be finite")
    if not np.isfinite(q) or q < 0.0:
        raise ValueError(f"drift variance q must be >= 0, got {q}")
    if not np.isfinite(r) or r <= 0.0:
        raise ValueError(f"measurement variance r must be > 0, got {r}")

    new = SurrogateState(*(np.empty(state.n) for _ in range(5)))
    v_sum = 0.0
    for lo in range(0, state.n, BLOCK):
        s = slice(lo, lo + BLOCK)
        m, a, b, p12 = mu[s], state.a[s], state.b[s], state.p12[s]
        p11 = state.p11[s] + q
        p22 = state.p22[s] + q
        t1 = m * p11 + p12
        t2 = m * p12 + p22
        # innovation variance; >= r analytically, clamped against underflow
        v = np.maximum(m * t1 + t2 + r, r)
        v_sum += v.sum()
        resid = g[s] - (m * a + b)
        k1 = t1 / v
        k2 = t2 / v
        new.a[s] = a + k1 * resid
        new.b[s] = b + k2 * resid
        new.p11[s] = p11 - k1 * t1
        new.p12[s] = p12 - k1 * t2
        new.p22[s] = p22 - k2 * t2
    # an overflowed v zeroes the gain and would leave the state silently unchanged
    if not np.isfinite(v_sum):
        raise FilterConsistencyError("innovation variance overflowed")
    new.validate()
    return new


def surrogate_params(state: SurrogateState) -> tuple[np.ndarray, np.ndarray]:
    """Current MAP coefficients (a, b), read-only copies."""
    return state.a.copy(), state.b.copy()
