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

from .baselines import AdamMoments, BaselineConfig, Optimizer
from .surrogate import SurrogateState, filter_update, init_state
from .trust_region import (  # MODES and the config are also imported from here
    MODES,
    DualSolve,
    ParameterDistribution,
    TrustRegionConfig,
    kl_mean_term,
    primal_mean,
    primal_variance,
    solve_eta,
)


@dataclass(frozen=True)
class StepDiagnostics:
    """One step's report; each field is a metrics CSV column (its epoch mean)."""
    eta_star: float
    c_mu: float
    newton_iters: int
    clamped: int


class TrustRegionOptimizer(Optimizer):
    """Maintains the parameter distribution `dist`, built once, and advances
    it per gradient by rebinding its fields; `mean` is `dist.mu`."""

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
            mu_new *= 1.0 - cfg.weight_decay  # in place: the solve's own fresh array

        # checked where made: sigma2 by primal_variance, the mean by the next _check
        self.dist.mu = self.mean = mu_new
        self.dist.sigma2 = sigma2_new
        return StepDiagnostics(res.eta_star, res.c_mu, res.iterations, clamped)
