"""KL trust-region optimizer with Kalman-filtered curvature estimates.

One step: feed the new stochastic gradient to the per-dimension filter,
update the variance via its closed form, and solve the dual for the mean,
which the solve also decays (decoupled weight decay); both closed forms floor
the fitted slopes at zero, and the solve counts the slopes it floors.
Two ablation modes replace parts of that pipeline: `fixed-eta` solves for
the mean at the constant multiplier `fixed_eta` instead of the dual's root,
`adam-surrogate` derives the quadratic surrogate from Adam's moment
estimates, at Adam's default constants, instead of the filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import AdamMoments, BaselineConfig, Optimizer
from .surrogate import SurrogateState, filter_update, init_state
from .trust_region import (  # MODES and the config are also imported from here
    MODES,
    ParameterDistribution,
    TrustRegionConfig,
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
        # the solver only reads (a, b), so no copies here
        return self.filter.a, self.filter.b

    def step(self, grad: np.ndarray) -> StepDiagnostics:
        a, b = self._surrogate(self._check(grad))
        cfg = self.config
        sigma2_new = primal_variance(a, self.dist, cfg)
        res = solve_eta(a, b, self.dist, cfg)  # in fixed-eta mode, at cfg.fixed_eta
        # checked where made: sigma2 by primal_variance, the mean by the next _check
        self.dist.mu = self.mean = res.mu
        self.dist.sigma2 = sigma2_new
        return StepDiagnostics(res.eta_star, res.c_mu, res.iterations, res.clamped)
