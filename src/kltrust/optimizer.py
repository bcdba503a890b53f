"""KL trust-region optimizer with Kalman-filtered curvature estimates.

One step: feed the new stochastic gradient to the per-dimension filter,
clamp the fitted slopes at zero, update the variance via its closed form,
solve the dual for the constrained mean, then apply decoupled weight decay.
Two ablation modes replace parts of that pipeline: `fixed-eta` skips the
dual solve, `adam-surrogate` derives the quadratic surrogate from Adam's
moment estimates, at Adam's default constants, instead of the filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import (AdamMoments, BaselineConfig, Optimizer, check_decay, check_milestones,
                        check_reals)
from .surrogate import SurrogateState, filter_update, init_state
from .trust_region import (
    DualSolve,
    ParameterDistribution,
    kl_mean_term,
    primal_mean,
    primal_variance,
    solve_eta,
)

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
        check_decay(self, "epsilon", "epsilon_decay_factor")


@dataclass(frozen=True)
class StepDiagnostics:
    eta_star: float
    c_mu: float
    bisect_iters: int
    clamped: int


class TrustRegionOptimizer(Optimizer):
    """Maintains the parameter distribution and advances it per gradient;
    `mean` is the distribution's mean, and milestones decay epsilon."""

    DECAY = ("epsilon", "epsilon_decay_factor")

    def __init__(self, n: int, config: TrustRegionConfig, mu0: np.ndarray):
        super().__init__(n, config, mu0)
        self.dist = ParameterDistribution(self.mean, np.full(n, config.sigma2_init, np.float64))
        if config.mode == "adam-surrogate":  # its surrogate never reads a filter
            self.moments = AdamMoments(n, BaselineConfig.beta1, BaselineConfig.beta2,
                                       BaselineConfig.adam_eps)
        else:
            self.filter: SurrogateState = init_state(n, config.p0)

    def _surrogate(self, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        if cfg.mode == "adam-surrogate":
            m_hat, a = self.moments.update(grad)  # a = sqrt(v_hat) + eps
            return a, m_hat - a * self.dist.mu
        filter_update(self.filter, self.dist.mu, grad, cfg.q, cfg.r)  # in place
        # the solver only reads (a, b) and clamping copies a, so no copies here
        return self.filter.a, self.filter.b

    def step(self, grad: np.ndarray) -> StepDiagnostics:
        grad = self._check(grad)
        cfg = self.config
        a, b = self._surrogate(grad)
        clamped = int(np.count_nonzero(a < 0.0))
        if clamped:
            a = np.maximum(a, 0.0)

        sigma2_new = primal_variance(a, self.dist, cfg)

        if cfg.mode == "fixed-eta":
            mu_new = primal_mean(a, b, self.dist, cfg.fixed_eta, cfg)
            res = DualSolve(cfg.fixed_eta, mu_new, kl_mean_term(mu_new, self.dist), 0)
        else:
            res = solve_eta(a, b, self.dist, cfg)

        mu_new = res.mu
        if cfg.weight_decay > 0.0:
            # in place: the mean is the solve's own fresh array
            mu_new *= 1.0 - cfg.weight_decay

        self.dist = ParameterDistribution(mu_new, sigma2_new)
        self.mean = mu_new
        return StepDiagnostics(res.eta_star, res.c_mu, res.iterations, clamped)
