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
and eta* = 0. The `fixed-eta` ablation passes its own eta instead.
Both closed forms read each slope a_j as max(a_j, 0), where the surrogate is
convex. They read epsilon, rho, nu and lambda_prec from the optimizer's
TrustRegionConfig, defined here and passed as `tr`, which checks their ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import check_decay, check_milestones, check_reals, sweep
from .errors import NonFiniteError, NumericalFault

ETA_MIN = 1e-12
ETA_MAX = 1e12
MAX_ITER = 50  # Newton steps before a solve fails; 0 or 1 are typical from the bound

# the trust-region variants, spelled as the CLI, the CSV and the file names spell them
MODES = ("standard", "fixed-eta", "adam-surrogate")


@dataclass
class TrustRegionConfig:
    """Hyperparameters of the trust-region optimizer.

    epsilon, rho, q and r are the task-tuned knobs; the remaining defaults
    (nu, lambda_prec, sigma2_init, p0) rarely need changing. epsilon decays
    by `epsilon_decay_factor` at each epoch in `schedule_milestones`, and
    must stay a normal float (>= sys.float_info.min) through every decay.
    """

    DECAY = ("epsilon", "epsilon_decay_factor")  # for check_decay and on_epoch_end; not a field
    epsilon: float = 0.01
    rho: float = 0.05
    q: float = 0.01
    r: float = 1.0
    nu: float = 1.3
    lambda_prec: float = 0.0015
    sigma2_init: float = 0.01
    p0: float = 0.00005
    weight_decay: float = 0.0
    epsilon_decay_factor: float = 0.006
    schedule_milestones: tuple[int, ...] = ()
    mode: str = "standard"
    fixed_eta: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        # fixed_eta is optional outside its mode, checked wherever it is set
        fixed = ("fixed_eta",) if self.mode == "fixed-eta" or self.fixed_eta is not None else ()
        check_reals(self, positive=("epsilon", "r", "nu", "sigma2_init", "p0",
                                    "epsilon_decay_factor"),
                    non_negative=("rho", "q", "lambda_prec", "weight_decay") + fixed)
        self.schedule_milestones = check_milestones(self.schedule_milestones,
                                                    "schedule_milestones")
        check_decay(self)


class DualSolverError(NumericalFault, RuntimeError):
    """Newton did not reach the band: the root lies beyond ETA_MAX, the
    surrogate is non-finite, or MAX_ITER steps ran out."""


@dataclass
class ParameterDistribution:
    """Diagonal Gaussian over the parameter vector; the optimizer rebinds its fields."""

    mu: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        if self.mu.shape != self.sigma2.shape or self.mu.ndim != 1 or not self.mu.size:
            raise ValueError("mu and sigma2 must be 1-d vectors of equal length >= 1")
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.sigma2))):
            raise NonFiniteError("distribution contains non-finite entries")
        if np.any(self.sigma2 <= 0.0):
            raise ValueError("sigma2 must be strictly positive")

    @property
    def n(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class DualSolve:
    """One dual solve: eta*, C_mu, the mean after the decay, and diagnostics."""

    eta_star: float
    mu: np.ndarray
    c_mu: float
    iterations: int
    clamped: int


def _check_lengths(prev: ParameterDistribution, **vectors) -> None:
    """Raise ValueError unless each of `vectors` has prev's length."""
    if any(np.shape(x) != (prev.n,) for x in vectors.values()):
        raise ValueError(f"{' and '.join(vectors)} must have length {prev.n}, got "
                         + " and ".join(str(np.shape(x)) for x in vectors.values()))


def primal_variance(
    a: np.ndarray,
    prev: ParameterDistribution,
    tr: TrustRegionConfig,
) -> np.ndarray:
    """Optimal variance; structurally independent of the multiplier.

    sigma2_j = (rho + nu) / (max(a_j, 0) + rho * lambda_prec + nu / sigma2_prev_j)

    Computed a block at a time on two threads (baselines.sweep).
    """
    _check_lengths(prev, a=a)
    rl, nu = tr.rho * tr.lambda_prec, tr.nu
    out = np.empty(prev.n)

    def block(s: slice, scratch: np.ndarray) -> tuple[float, float]:
        o = np.maximum(a[s], 0.0, out=out[s])
        o += rl
        o += np.divide(nu, prev.sigma2[s], out=scratch[0])
        np.divide(tr.rho + nu, o, out=o)
        return o.min(), o.max()

    lows, highs = zip(*sweep(block, prev.n, 1))
    if not 0.0 < np.min(lows) <= np.max(highs) < math.inf:  # also false for a NaN
        raise NonFiniteError("variance update produced a non-positive or NaN entry, or inf")
    return out


def solve_eta(
    a: np.ndarray,
    b: np.ndarray,
    prev: ParameterDistribution,
    tr: TrustRegionConfig,
) -> DualSolve:
    """Find eta* >= 0 and the corresponding constrained mean, then decay it.

    With s = sigma2_prev, w = s * (max(a, 0) + rho*lambda) and
    z = sqrt(s) * ((max(a, 0) + rho*lambda) * mu_prev + b), the mean step is
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
    `fixed-eta` is this solve started at tr.fixed_eta and done after its
    first evaluation; both modes leave through one exit. The returned mean is
    mu(eta*) * (1 - weight_decay), decoupled decay (Loshchilov & Hutter 2019);
    eta_star and c_mu precede it. `clamped` counts a_j < 0. One n-vector
    holds z, then each evaluation's p = z / (w + eta), then the returned mean;
    w, and z after a Newton step, are rebuilt per block from a, b and prev.
    One block function divides by w + eta: in place for C, and for Newton's
    C' into a second n-vector, p / (w + eta), that only Newton allocates.
    Each sweep runs on two threads (baselines.sweep), and each dot runs
    here on the whole vector, so no result depends on the split.
    """
    _check_lengths(prev, a=a, b=b)
    eps = tr.epsilon
    rl = tr.rho * tr.lambda_prec
    n = prev.n
    out = np.empty(n)

    def w_of(s: slice, scratch: np.ndarray, z: bool) -> np.ndarray:
        # w for the block s in scratch that stays in cache, and z, if asked,
        # into out
        w, root = scratch
        np.maximum(a[s], 0.0, out=w)
        w += rl
        if z:
            zs = np.multiply(w, prev.mu[s], out=out[s])
            zs += b[s]
            zs *= np.sqrt(prev.sigma2[s], out=root)
        w *= prev.sigma2[s]
        return w

    def setup(s: slice, scratch: np.ndarray) -> tuple[float, float, int]:
        w = w_of(s, scratch, z=True)
        return w.min(), w.max(), np.count_nonzero(a[s] < 0.0)  # a block-sized mask

    def divide(z: bool, into: np.ndarray) -> np.float64:
        # out / (w + eta) into `into` at the current eta, then out.into: over
        # out, p = z / (w + eta) and p.p = 2 C; into dp, p.dp = -C'(eta)
        def block(s: slice, scratch: np.ndarray) -> None:
            w = w_of(s, scratch, z)
            w += eta
            np.divide(out[s], w, out=into[s])

        sweep(block, n, 2)
        return np.dot(out, into)

    def mean(s: slice, scratch: np.ndarray) -> None:
        # mu(eta*) = mu_prev - sqrt(s) * p, written over p, then decayed
        p = out[s]
        p *= np.sqrt(prev.sigma2[s], out=scratch[0])
        np.subtract(prev.mu[s], p, out=p)
        if tr.weight_decay > 0.0:
            p *= 1.0 - tr.weight_decay

    w_lows, w_highs, counts = zip(*sweep(setup, n, 2))
    w_min, w_max = np.min(w_lows), np.max(w_highs)  # a NaN kept
    fixed = tr.mode == "fixed-eta"
    if fixed:
        eta = tr.fixed_eta
        if w_min + eta <= 0.0:  # w + eta rounds monotonically in w
            j = int(np.flatnonzero((np.maximum(a, 0.0) + rl) * prev.sigma2 + eta <= 0.0)[0])
            raise NonFiniteError(f"non-positive denominator in dimension {j}: "
                                 f"a={max(a[j], 0.0)}, eta={eta}, rho*lambda={rl}")
    else:
        # below ETA_MIN a w_j makes the eta = 0 step undefined (w_j = 0) or
        # overflow C and C', so the solve starts at the smallest multiplier; a
        # NaN w_j is not below it, and makes z.z NaN, which fails the solve
        start = ETA_MIN if w_min < ETA_MIN else 0.0
        zz = float(np.dot(out, out))
        # a non-finite z.z (overflow or NaN) bounds nothing, and the start stays
        bound = math.sqrt(zz) / math.sqrt(2.0 * eps) - w_max if math.isfinite(zz) else -math.inf
        if bound > ETA_MAX:
            raise DualSolverError(
                f"the lower bound eta={bound:g} on the root leaves "
                f"eta <= {ETA_MAX:g}; surrogate is pathological"
            )
        eta = max(start, bound)
    c = 0.5 * float(divide(False, out))  # out still holds z
    iterations = 0
    # fixed-eta is done here; from the start this is the interior test, and a
    # start at the bound proves C(0) > epsilon. A NaN C is not done, and its
    # Newton step fails below
    done = fixed or (c <= eps if eta == start else abs(c - eps) <= 0.1 * eps)
    dp = None if done else np.empty(n)  # p / (w + eta), only when Newton runs
    while not done:
        # numpy division: a zero C' gives an infinite step, which fails below
        step = float(2.0 * c * (math.sqrt(c / eps) - 1.0) / divide(False, dp))
        iterations += 1
        if not (eta + step <= ETA_MAX and iterations <= MAX_ITER):
            raise DualSolverError(
                f"Newton step {iterations} from eta={eta:g} (C_mu={c:g}) leaves "
                f"eta <= {ETA_MAX:g} or MAX_ITER={MAX_ITER}; surrogate is pathological"
            )
        eta += step
        c = 0.5 * float(divide(True, out))
        done = abs(c - eps) <= 0.1 * eps
    sweep(mean, n, 1)
    return DualSolve(eta, out, c, iterations, sum(counts))


def dual_derivative(eta: float, a: np.ndarray, b: np.ndarray, prev: ParameterDistribution,
                    tr: TrustRegionConfig) -> float:
    """g'(eta) = C_mu(mu(eta)) - epsilon; positive means constraint violated."""
    return solve_eta(a, b, prev, replace(tr, mode="fixed-eta", fixed_eta=eta)).c_mu - tr.epsilon
