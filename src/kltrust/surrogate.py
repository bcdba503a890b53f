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
        vecs = (self.a, self.b, self.p11, self.p12, self.p22)
        if any(v.shape != (self.n,) for v in vecs):
            raise ValueError("state vectors must share one length")
        if not all(np.all(np.isfinite(v)) for v in vecs):
            raise ValueError("state contains non-finite entries")
        det = self.p11 * self.p22 - self.p12**2
        if np.any(self.p11 <= 0.0) or np.any(self.p22 <= 0.0) or np.any(det <= 0.0):
            raise FilterConsistencyError("covariance not positive definite")


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

    Per dimension, with H = (mu_j, 1):
        P- = P + q*I
        v  = H P- H^T + r
        K  = P- H^T / v
        m <- m + K * (g_j - H m)
        P <- P- - v * K K^T
    Returns a new state; the input state is not mutated.
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

    p11 = state.p11 + q
    p12 = state.p12.copy()
    p22 = state.p22 + q

    # innovation variance; >= r analytically, clamped against underflow
    v = mu * (mu * p11 + 2.0 * p12) + p22 + r
    np.maximum(v, r, out=v)

    k1 = (mu * p11 + p12) / v
    k2 = (mu * p12 + p22) / v

    resid = g - (mu * state.a + state.b)
    new = SurrogateState(
        a=state.a + k1 * resid,
        b=state.b + k2 * resid,
        p11=p11 - v * k1 * k1,
        p12=p12 - v * k1 * k2,
        p22=p22 - v * k2 * k2,
    )
    new.validate()
    return new


def surrogate_params(state: SurrogateState) -> tuple[np.ndarray, np.ndarray]:
    """Current MAP coefficients (a, b), read-only copies."""
    return state.a.copy(), state.b.copy()
