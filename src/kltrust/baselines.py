"""Reference first-order optimizers: SGD with momentum, Adam, AdamW.

Standard published update rules; weight decay is coupled (added to the
gradient) for SGD and Adam, decoupled for AdamW. All three share the
step-decay learning-rate schedule driven by on_epoch_end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError

KINDS = ("sgd_momentum", "adam", "adamw")


@dataclass
class BaselineConfig:
    kind: str
    learning_rate: float
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    schedule_milestones: tuple[int, ...] = ()
    lr_decay_factor: float = 0.1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("momentum", "beta1", "beta2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {v}")
        if self.adam_eps <= 0.0 or self.weight_decay < 0.0 or self.lr_decay_factor <= 0.0:
            raise ValueError("adam_eps > 0, weight_decay >= 0, lr_decay_factor > 0 required")
        self.schedule_milestones = tuple(self.schedule_milestones)


class _Baseline:
    def __init__(self, n: int, config: BaselineConfig):
        self.n = n
        self.config = config
        self.lr = config.learning_rate
        self.epoch = 0

    def _check(self, params: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        params = np.asarray(params, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        if params.shape != (self.n,) or grad.shape != (self.n,):
            raise ValueError(f"expected vectors of length {self.n}")
        if not (np.all(np.isfinite(params)) and np.all(np.isfinite(grad))):
            raise NonFiniteError("non-finite params or gradient")
        return params, grad

    def on_epoch_end(self) -> None:
        self.epoch += 1
        if self.epoch in self.config.schedule_milestones:
            self.lr *= self.config.lr_decay_factor


class SGDMomentum(_Baseline):
    """Heavy-ball SGD; weight decay is folded into the gradient."""

    def __init__(self, n: int, config: BaselineConfig):
        super().__init__(n, config)
        self.buf = np.zeros(n)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        params, grad = self._check(params, grad)
        if self.config.weight_decay > 0.0:
            grad = grad + self.config.weight_decay * params
        self.buf = self.config.momentum * self.buf + grad
        return params - self.lr * self.buf


class AdamMoments:
    """Adam's moment estimates; `update` rebinds m, then v, freeing each old one."""

    def __init__(self, n: int, beta1: float, beta2: float):
        self.beta1 = beta1
        self.beta2 = beta2
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def update(self, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fold in one gradient; return the bias-corrected (m_hat, v_hat)."""
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad**2
        return self.m / (1.0 - self.beta1**self.t), self.v / (1.0 - self.beta2**self.t)


class Adam(_Baseline):
    """Bias-corrected Adam; weight decay is folded into the gradient."""

    def __init__(self, n: int, config: BaselineConfig):
        super().__init__(n, config)
        self.moments = AdamMoments(n, config.beta1, config.beta2)

    def _delta(self, grad: np.ndarray) -> np.ndarray:
        m_hat, v_hat = self.moments.update(grad)
        return self.lr * m_hat / (np.sqrt(v_hat) + self.config.adam_eps)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        params, grad = self._check(params, grad)
        if self.config.weight_decay > 0.0:
            grad = grad + self.config.weight_decay * params
        return params - self._delta(grad)


class AdamW(Adam):
    """Adam with decoupled decay applied to params before the Adam delta."""

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        params, grad = self._check(params, grad)
        if self.config.weight_decay > 0.0:
            params = params * (1.0 - self.lr * self.config.weight_decay)
        return params - self._delta(grad)


def make_baseline(n: int, config: BaselineConfig) -> _Baseline:
    cls = {"sgd_momentum": SGDMomentum, "adam": Adam, "adamw": AdamW}[config.kind]
    return cls(n, config)
