"""KL trust-region optimizer with Kalman-filtered curvature estimates.

One step: feed the new stochastic gradient to the per-dimension filter,
clamp the fitted slopes at zero, update the variance via its closed form,
solve the dual for the constrained mean, then apply decoupled weight decay.
Two ablation modes replace parts of that pipeline: `fixed_eta` skips the
dual solve, `adam_surrogate` derives the quadratic surrogate from Adam-style
moment estimates instead of the filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import AdamMoments
from .errors import NonFiniteError
from .surrogate import SurrogateState, filter_update, init_state
from .trust_region import (
    DualSolve,
    ParameterDistribution,
    TrustRegionParams,
    kl_mean_term,
    primal_mean,
    primal_variance,
    solve_eta,
)

MODES = ("standard", "fixed_eta", "adam_surrogate")


@dataclass
class TrustRegionConfig:
    """Hyperparameters of the trust-region optimizer.

    epsilon, rho, q and r are the task-tuned knobs; the remaining defaults
    (nu, lambda_prec, sigma2_init, p0) rarely need changing. epsilon decays
    by `epsilon_decay_factor` at each epoch in `schedule_milestones`.
    """

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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        for name in ("epsilon", "rho", "q", "r", "nu", "lambda_prec",
                     "sigma2_init", "p0", "weight_decay", "epsilon_decay_factor"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("epsilon", "nu", "sigma2_init", "p0", "epsilon_decay_factor", "r"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        for name in ("rho", "lambda_prec", "q", "weight_decay"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        self.schedule_milestones = tuple(self.schedule_milestones)
        if any(b >= a for a, b in zip(self.schedule_milestones[1:],
                                      self.schedule_milestones[:-1])):
            raise ValueError("schedule_milestones must be strictly increasing")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "fixed_eta":
            if self.fixed_eta is None or self.fixed_eta < 0.0:
                raise ValueError("fixed_eta mode requires fixed_eta >= 0")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ValueError("adam betas must lie in [0, 1)")

    def trust_region(self, epsilon: float) -> TrustRegionParams:
        return TrustRegionParams(epsilon, self.rho, self.nu, self.lambda_prec)


@dataclass(frozen=True)
class StepDiagnostics:
    eta_star: float
    c_mu: float
    bisect_iters: int
    clamped: int


class TrustRegionOptimizer:
    """Maintains the parameter distribution and advances it per gradient."""

    def __init__(self, n: int, config: TrustRegionConfig, mu0: np.ndarray):
        mu0 = np.asarray(mu0, dtype=np.float64)
        if mu0.shape != (n,):
            raise ValueError(f"mu0 has shape {mu0.shape}, expected ({n},)")
        self.config = config
        self.dist = ParameterDistribution(
            mu0.copy(), np.full(n, config.sigma2_init, dtype=np.float64)
        )
        self.filter: SurrogateState = init_state(n, config.p0)
        self.step_count = 0
        self.epoch = 0
        self.epsilon = config.epsilon
        if config.mode == "adam_surrogate":
            self.moments = AdamMoments(n, config.adam_beta1, config.adam_beta2)

    @property
    def n(self) -> int:
        return self.dist.n

    @property
    def mean(self) -> np.ndarray:
        """Current point estimate (MAP mean of the parameter distribution)."""
        return self.dist.mu

    def _surrogate(self, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        if cfg.mode == "adam_surrogate":
            m_hat, v_hat = self.moments.update(grad)
            a = np.sqrt(v_hat) + cfg.adam_eps
            return a, m_hat - a * self.dist.mu
        self.filter = filter_update(self.filter, self.dist.mu, grad, cfg.q, cfg.r)
        # the solver only reads (a, b) and clamping copies a, so no copies here
        return self.filter.a, self.filter.b

    def step(self, grad: np.ndarray) -> StepDiagnostics:
        cfg = self.config
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != (self.n,):
            raise ValueError(f"gradient has shape {grad.shape}, expected ({self.n},)")
        if not np.all(np.isfinite(grad)):
            raise NonFiniteError(f"non-finite gradient at step {self.step_count}")

        a, b = self._surrogate(grad)
        clamped = int(np.count_nonzero(a < 0.0))
        if clamped:
            a = np.maximum(a, 0.0)

        tr = cfg.trust_region(self.epsilon)
        sigma2_new = primal_variance(a, self.dist, tr)

        if cfg.mode == "fixed_eta":
            mu_new = primal_mean(a, b, self.dist, cfg.fixed_eta, tr)
            res = DualSolve(cfg.fixed_eta, mu_new, kl_mean_term(mu_new, self.dist), 0)
        else:
            res = solve_eta(a, b, self.dist, tr)

        mu_new = res.mu
        if cfg.weight_decay > 0.0:
            # in place: the mean is the solve's own fresh array
            mu_new *= 1.0 - cfg.weight_decay

        self.dist = ParameterDistribution(mu_new, sigma2_new)
        self.step_count += 1
        return StepDiagnostics(res.eta_star, res.c_mu, res.iterations, clamped)

    def on_epoch_end(self) -> None:
        self.epoch += 1
        if self.epoch in self.config.schedule_milestones:
            self.epsilon *= self.config.epsilon_decay_factor
