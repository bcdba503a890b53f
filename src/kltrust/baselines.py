"""The optimizer frame, and the reference first-order optimizers.

`Optimizer` is the base of every optimizer here and of the trust region:
it holds the point, checks each gradient and runs the step-decay schedule
of on_epoch_end. SGD with momentum, Adam and AdamW follow the standard
published update rules; weight decay is coupled (added to the gradient)
for SGD and Adam, decoupled for AdamW.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteError


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


def check_decay(config, name: str, factor: str) -> None:
    """Raise ValueError unless field `name`, decayed by field `factor` at each
    of the config's milestones, stays a normal float. on_epoch_end drops each
    milestone it passes, so a config it builds counts only the decays ahead."""
    value = getattr(config, name)
    for _ in config.schedule_milestones:
        value *= getattr(config, factor)
    if not (finite(value) and value >= sys.float_info.min):
        raise ValueError(f"{name} decayed by {factor} at milestones "
                         f"{config.schedule_milestones} leaves the normal float range: {value!r}")


@dataclass
class BaselineConfig:
    learning_rate: float
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    schedule_milestones: tuple[int, ...] = ()
    lr_decay_factor: float = 0.1

    def __post_init__(self):
        check_reals(self, positive=("learning_rate", "adam_eps", "lr_decay_factor"),
                    non_negative=("weight_decay",), unit=("momentum", "beta1", "beta2"))
        self.schedule_milestones = check_milestones(self.schedule_milestones,
                                                    "schedule_milestones")
        check_decay(self, "learning_rate", "lr_decay_factor")


class Optimizer:
    """Holds the point `mean`, built from `(n, config, mu0)`; each subclass's
    `step(grad)` binds `mean` to a new array, so a caller may hold the
    previous point across the step."""

    # the config field each milestone decays, and the field of its factor
    DECAY = ("learning_rate", "lr_decay_factor")

    def __init__(self, n: int, config, mu0: np.ndarray):
        mu0 = np.asarray(mu0, dtype=np.float64)
        if mu0.shape != (n,):
            raise ValueError(f"mu0 has shape {mu0.shape}, expected ({n},)")
        self.n = n
        self.config = config
        self.mean = mu0
        self.step_count = 0
        self.epoch = 0

    def _check(self, grad: np.ndarray) -> np.ndarray:
        """`grad` as float64, once it and the point are checked; counts the step."""
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != (self.n,):
            raise ValueError(f"gradient has shape {grad.shape}, expected ({self.n},)")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(grad))):
            raise NonFiniteError(f"non-finite point or gradient at step {self.step_count}")
        self.step_count += 1
        return grad

    def on_epoch_end(self) -> None:
        self.epoch += 1
        cfg = self.config
        if self.epoch in cfg.schedule_milestones:  # replaced, not written: run() shares it
            name, factor = self.DECAY
            ahead = tuple(m for m in cfg.schedule_milestones if m > self.epoch)
            self.config = replace(cfg, schedule_milestones=ahead,
                                  **{name: getattr(cfg, name) * getattr(cfg, factor)})


class SGDMomentum(Optimizer):
    """Heavy-ball SGD; weight decay is folded into the gradient."""

    def __init__(self, n: int, config: BaselineConfig, mu0: np.ndarray):
        super().__init__(n, config, mu0)
        self.buf = np.zeros(n)

    def step(self, grad: np.ndarray) -> None:
        grad = self._check(grad)
        if self.config.weight_decay > 0.0:
            grad = grad + self.config.weight_decay * self.mean
        self.buf = self.config.momentum * self.buf + grad
        self.mean = self.mean - self.config.learning_rate * self.buf


class AdamMoments:
    """Adam's moment estimates; `update` writes m and v in place."""

    def __init__(self, n: int, beta1: float, beta2: float, eps: float):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def update(self, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fold in one gradient; return the bias-corrected m_hat and Adam's
        denominator sqrt(v_hat) + eps, as new arrays the caller may overwrite."""
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
        denom = self.v / (1.0 - self.beta2**self.t)
        np.sqrt(denom, out=denom)
        denom += self.eps
        return m_hat, denom


class Adam(Optimizer):
    """Bias-corrected Adam; weight decay is folded into the gradient."""

    def __init__(self, n: int, config: BaselineConfig, mu0: np.ndarray):
        super().__init__(n, config, mu0)
        self.moments = AdamMoments(n, config.beta1, config.beta2, config.adam_eps)

    def _delta(self, grad: np.ndarray) -> np.ndarray:
        """lr * m_hat / (sqrt(v_hat) + eps), written into update's buffers."""
        m_hat, denom = self.moments.update(grad)
        m_hat *= self.config.learning_rate
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
            self.mean = self.mean * (1.0 - self.config.learning_rate * self.config.weight_decay)
        self.mean = self.mean - self._delta(grad)

