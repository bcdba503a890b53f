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

from .errors import NonFiniteError, NumericalFault

# dimensions per block of filter_update (and of solve_eta's setup): the
# block's temporaries stay in cache instead of each one streaming an n-vector
# through memory
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
    The dimensions are updated BLOCK at a time, and each block is checked
    as SurrogateState.validate checks a state while it is still in cache.
    Returns a new state; the input state is not mutated. Raises
    NonFiniteError when mu or g is not finite, and otherwise
    FilterConsistencyError when the new covariance is not positive definite,
    the new state is not finite or an innovation variance overflowed.
    """
    mu = np.asarray(mu, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if mu.shape != (state.n,) or g.shape != (state.n,):
        raise ValueError(
            f"expected vectors of length {state.n}, got {mu.shape} and {g.shape}"
        )
    if not np.isfinite(q) or q < 0.0:
        raise ValueError(f"drift variance q must be >= 0, got {q}")
    if not np.isfinite(r) or r <= 0.0:
        raise ValueError(f"measurement variance r must be > 0, got {r}")

    n = state.n
    new = SurrogateState(*(np.empty(n) for _ in range(5)))
    # one set of block buffers for every block; P- is staged in new.p11/p22
    scratch = np.empty((6, min(BLOCK, n)))
    low, total = np.inf, 0.0
    for lo in range(0, n, BLOCK):
        s = slice(lo, min(lo + BLOCK, n))
        t1, t2, v, resid, k, x = scratch[:, : s.stop - lo]
        m, a, b, p12 = mu[s], state.a[s], state.b[s], state.p12[s]
        p11 = np.add(state.p11[s], q, out=new.p11[s])
        p22 = np.add(state.p22[s], q, out=new.p22[s])
        np.multiply(m, p11, out=t1)
        t1 += p12
        np.multiply(m, p12, out=t2)
        t2 += p22
        # innovation variance; >= r analytically, clamped against underflow
        np.multiply(m, t1, out=v)
        v += t2
        v += r
        np.maximum(v, r, out=v)
        np.multiply(m, a, out=resid)
        resid += b
        np.subtract(g[s], resid, out=resid)
        np.divide(t1, v, out=k)  # the gain's first entry
        np.add(a, np.multiply(k, resid, out=x), out=new.a[s])
        np.subtract(p12, np.multiply(k, t2, out=x), out=new.p12[s])
        p11 -= np.multiply(k, t1, out=x)
        np.divide(t2, v, out=k)  # its second entry
        np.add(b, np.multiply(k, resid, out=x), out=new.b[s])
        p22 -= np.multiply(k, t2, out=x)
        # SurrogateState.validate on the block while it is in cache, and the
        # innovation variance: an overflowed v zeroes the gain and would leave
        # the state silently unchanged. A NaN can slip past min() but not sum().
        # A NaN or inf in mu or g always reaches a or b (0 * inf is NaN), so
        # the sum checks the inputs too
        det = np.multiply(p11, p22, out=t1)
        det -= np.multiply(new.p12[s], new.p12[s], out=x)
        low = min(low, p11.min(), det.min())
        total += new.a[s].sum() + new.b[s].sum() + p11.sum() + det.sum() + v.sum()
    if not (low > 0.0 and np.isfinite(total)):
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(g))):
            raise NonFiniteError("mu and g must be finite")
        raise FilterConsistencyError("covariance not positive definite or state non-finite")
    return new
