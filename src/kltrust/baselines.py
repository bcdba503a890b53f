"""Reference first-order optimizers: SGD with momentum, Adam, AdamW.

Standard published update rules; weight decay is coupled (added to the
gradient) for SGD and Adam, decoupled for AdamW. All three share the
step-decay learning-rate schedule driven by on_epoch_end.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError

KINDS = ("sgd_momentum", "adam", "adamw")


# the value rules every config shares, here in the module the others import

def finite(x) -> bool:
    """A real number within the float range (so not NaN); a bool is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and (
        abs(x) <= sys.float_info.max if isinstance(x, numbers.Integral) else math.isfinite(x))


def count(x) -> bool:
    """An integer >= 1; a bool is not one."""
    return isinstance(x, numbers.Integral) and finite(x) and x >= 1


_RULES = {"positive": (lambda v: v > 0.0, "> 0"),
          "non_negative": (lambda v: v >= 0.0, ">= 0"),
          "unit": (lambda v: 0.0 <= v < 1.0, "in [0, 1)")}


def check_reals(config, **names_by_rule) -> None:
    """Raise ValueError naming the first field that is not finite within its rule."""
    for rule, names in names_by_rule.items():
        ok, text = _RULES[rule]
        for name in names:
            v = getattr(config, name)
            if not (finite(v) and ok(v)):
                raise ValueError(f"{name} must be finite and {text}, got {v!r}")


def check_milestones(values, name: str) -> tuple[int, ...]:
    """`values` as a tuple of ints; they must be strictly increasing integers >= 1."""
    ms = tuple(values) if isinstance(values, (list, tuple)) else None
    if ms is None or not (all(map(count, ms)) and all(a < b for a, b in zip(ms, ms[1:]))):
        raise ValueError(f"{name} must be strictly increasing integers >= 1, got {values!r}")
    return tuple(map(int, ms))


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
        check_reals(self, positive=("learning_rate", "adam_eps", "lr_decay_factor"),
                    non_negative=("weight_decay",), unit=("momentum", "beta1", "beta2"))
        self.schedule_milestones = check_milestones(self.schedule_milestones,
                                                    "schedule_milestones")


class _Baseline:
    """Holds the point `mean`; `step(grad)` binds it to a new array, so a
    caller may hold the previous point across the step."""

    def __init__(self, n: int, config: BaselineConfig, mu0: np.ndarray):
        mu0 = np.asarray(mu0, dtype=np.float64)
        if mu0.shape != (n,):
            raise ValueError(f"mu0 has shape {mu0.shape}, expected ({n},)")
        self.n = n
        self.config = config
        self.mean = mu0
        self.lr = config.learning_rate
        self.epoch = 0

    def _check(self, grad: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != (self.n,):
            raise ValueError(f"gradient has shape {grad.shape}, expected ({self.n},)")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(grad))):
            raise NonFiniteError("non-finite params or gradient")
        return grad

    def on_epoch_end(self) -> None:
        self.epoch += 1
        if self.epoch in self.config.schedule_milestones:
            self.lr *= self.config.lr_decay_factor


class SGDMomentum(_Baseline):
    """Heavy-ball SGD; weight decay is folded into the gradient."""

    def __init__(self, n: int, config: BaselineConfig, mu0: np.ndarray):
        super().__init__(n, config, mu0)
        self.buf = np.zeros(n)

    def step(self, grad: np.ndarray) -> None:
        grad = self._check(grad)
        if self.config.weight_decay > 0.0:
            grad = grad + self.config.weight_decay * self.mean
        self.buf = self.config.momentum * self.buf + grad
        self.mean = self.mean - self.lr * self.buf


class AdamMoments:
    """Adam's moment estimates; `update` writes m and v in place."""

    def __init__(self, n: int, beta1: float, beta2: float):
        self.beta1 = beta1
        self.beta2 = beta2
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def update(self, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fold in one gradient; return the bias-corrected (m_hat, v_hat) as
        new arrays the caller may overwrite."""
        self.t += 1
        # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g^2, with
        # the same roundings as those expressions
        x = np.multiply(grad, 1.0 - self.beta1)
        self.m *= self.beta1
        self.m += x
        np.multiply(grad, grad, out=x)
        x *= 1.0 - self.beta2
        self.v *= self.beta2
        self.v += x
        m_hat = np.divide(self.m, 1.0 - self.beta1**self.t, out=x)
        return m_hat, self.v / (1.0 - self.beta2**self.t)


class Adam(_Baseline):
    """Bias-corrected Adam; weight decay is folded into the gradient."""

    def __init__(self, n: int, config: BaselineConfig, mu0: np.ndarray):
        super().__init__(n, config, mu0)
        self.moments = AdamMoments(n, config.beta1, config.beta2)

    def _delta(self, grad: np.ndarray) -> np.ndarray:
        """lr * m_hat / (sqrt(v_hat) + eps), written into update's buffers."""
        m_hat, v_hat = self.moments.update(grad)
        denom = np.sqrt(v_hat, out=v_hat)
        denom += self.config.adam_eps
        m_hat *= self.lr
        m_hat /= denom
        return m_hat

    def step(self, grad: np.ndarray) -> None:
        grad = self._check(grad)
        if self.config.weight_decay > 0.0:
            grad = grad + self.config.weight_decay * self.mean
        self.mean = self.mean - self._delta(grad)


class AdamW(Adam):
    """Adam with decoupled decay applied to the point before the Adam delta."""

    def step(self, grad: np.ndarray) -> None:
        grad = self._check(grad)
        if self.config.weight_decay > 0.0:
            self.mean = self.mean * (1.0 - self.lr * self.config.weight_decay)
        self.mean = self.mean - self._delta(grad)


def make_baseline(n: int, config: BaselineConfig, mu0: np.ndarray) -> _Baseline:
    cls = {"sgd_momentum": SGDMomentum, "adam": Adam, "adamw": AdamW}[config.kind]
    return cls(n, config, mu0)
