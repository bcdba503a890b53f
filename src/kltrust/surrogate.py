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

from .baselines import check, halves
from .errors import NonFiniteError, NumericalFault

# the columns of the scratch that sweep() allocates per row; each sweep reads
# it at call time. Each part of halves() walks its range in blocks of
# BLOCK // 2 in its own half of those columns, so a block's temporaries stay
# in cache instead of each one streaming an n-vector through memory. A split
# costs per numpy call, not per part, so the blocks are wide: timed in process
# at n = 203,530 on a 2-vCPU VM (4 rounds of 200 calls), the p50 filter_update
# read 5.2-5.5 ms split in blocks of 8K per part against 3.8-4.2 ms on one
# thread, 2.6 against 2.6-2.7 ms at 16K, 2.1 against 2.6 ms at 32K and
# 2.2-2.3 against 3.2-3.4 ms at 64K. At 64K per part the solve (1.0 ms against
# 1.1 at 32K) and the variance (0.28 against 0.33 ms) gain, the filter does
# not, and the scratch doubles.
# The filter's scratch is 5 rows of BLOCK, 2.6 MB
BLOCK = 1 << 16


def sweep(fn, n: int, rows: int) -> list:
    """fn(block, columns) for each block of BLOCK // 2 in range(n), where
    `columns` are as many columns of one (rows, min(BLOCK, n)) scratch array;
    returns what fn returned, in block order. Each part that halves() makes
    walks its own blocks on its own thread: the part at 0 in the first
    columns, the other from column min(start, BLOCK // 2), so the two never
    share one."""
    size = BLOCK // 2  # so BLOCK >= 2
    scratch = np.empty((rows, min(BLOCK, n)))
    done = {}

    def part(h: slice) -> None:
        col = min(h.start, size)
        for lo in range(h.start, h.stop, size):
            hi = min(lo + size, h.stop)
            done[lo] = fn(slice(lo, hi), scratch[:, col : col + hi - lo])

    halves(part, n)
    return [done[lo] for lo in sorted(done)]


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


def init_state(n: int, p0: float) -> SurrogateState:
    """Zero-mean prior with isotropic 2x2 covariance p0 * I per dimension."""
    check("count", n=n)
    check("positive", p0=p0)
    p0 = float(p0)
    return SurrogateState(np.zeros(n), np.zeros(n), np.full(n, p0), np.zeros(n), np.full(n, p0))


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
    The dimensions are updated a block at a time, on two threads (sweep),
    and each block is checked while it is still in cache: every new
    covariance positive definite and the new state finite.
    Writes the new state over `state`, in place, and returns it; each block
    reads every old entry before it writes one. Raises NonFiniteError when
    mu or g is not finite, and otherwise FilterConsistencyError when the new
    covariance is not positive definite, the new state is not finite or an
    innovation variance overflowed; after either, `state` is undefined.
    """
    mu = np.asarray(mu, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if mu.shape != (state.n,) or g.shape != (state.n,):
        raise ValueError(
            f"expected vectors of length {state.n}, got {mu.shape} and {g.shape}"
        )
    check("non_negative", q=q)
    check("positive", r=r)

    def block(s: slice, scratch: np.ndarray) -> tuple[float, float]:
        t1, t2, v, resid, k = scratch
        m, a, b = mu[s], state.a[s], state.b[s]
        p11, p12, p22 = state.p11[s], state.p12[s], state.p22[s]
        p11 += q  # P-, staged in place
        p22 += q
        np.multiply(m, p11, out=t1)
        t1 += p12
        np.multiply(m, p12, out=t2)
        t2 += p22
        # innovation variance; >= r analytically, clamped against underflow
        np.multiply(m, t1, out=v)
        v += t2
        v += r
        np.maximum(v, r, out=v)
        v_sum = v.sum()
        np.multiply(m, a, out=resid)
        resid += b
        np.subtract(g[s], resid, out=resid)
        np.divide(t1, v, out=k)  # the gain's first entry
        k2 = np.divide(t2, v, out=v)  # its second, over v
        # each state entry's update reads only values made before any update
        p11 -= np.multiply(t1, k, out=t1)
        p12 -= np.multiply(k, t2, out=t1)
        a += np.multiply(k, resid, out=k)
        b += np.multiply(resid, k2, out=resid)
        p22 -= np.multiply(t2, k2, out=t2)
        # the block's check while it is in cache: p11 > 0 and det > 0
        # imply p22 > 0, and finite p11 and det imply finite p12 and p22.
        # numpy's min() keeps a NaN, but the builtin min() that merges the
        # lows drops it, so the sum catches it. An overflowed v zeroes the
        # gain and would leave the state silently unchanged. A NaN or inf in
        # mu or g always reaches a or b (0 * inf is NaN), so the sum checks
        # them too
        det = np.multiply(p11, p22, out=t1)
        det -= np.multiply(p12, p12, out=t2)
        return min(p11.min(), det.min()), a.sum() + b.sum() + p11.sum() + det.sum() + v_sum

    lows, sums = zip(*sweep(block, state.n, 5))
    if not (min(lows) > 0.0 and np.isfinite(sum(sums))):
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(g))):
            raise NonFiniteError("mu and g must be finite")
        raise FilterConsistencyError("covariance not positive definite or state non-finite")
    return state
