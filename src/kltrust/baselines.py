"""The optimizer frame, the reference first-order optimizers, and the
two-thread split that the rest of kltrust runs its whole-vector work on.

`Optimizer` is the base of every optimizer here and of the trust region:
it holds the point, checks each gradient and runs the step-decay schedule
of on_epoch_end. SGD with momentum, Adam and AdamW follow the standard
published update rules; weight decay is coupled (added to the gradient)
for SGD and Adam, decoupled for AdamW. halves() runs work in two parts on
two threads; sweep() walks each part in blocks of BLOCK // 2 with its own
scratch, for the filter, the variance and the dual solve.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import numbers
import os
import sys
import threading
from dataclasses import dataclass, replace
from queue import SimpleQueue

import numpy as np

from .errors import NonFiniteError


# the value rules every config and public function shares, here in the module the others import

def finite(x) -> bool:
    """A real number within the float range (so not NaN); a bool is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and (
        abs(x) <= sys.float_info.max if isinstance(x, numbers.Integral) else math.isfinite(x))


def count(x) -> bool:
    """An integer >= 1; a bool is not one."""
    return isinstance(x, numbers.Integral) and finite(x) and x >= 1


_RULES = {"count": (count, "an integer >= 1"),
          "positive": (lambda v: finite(v) and v > 0.0, "finite and > 0"),
          "non_negative": (lambda v: finite(v) and v >= 0.0, "finite and >= 0"),
          "unit": (lambda v: finite(v) and 0.0 <= v < 1.0, "finite and in [0, 1)")}


def check(rule: str, **values) -> None:
    """Raise ValueError naming the first of `values` that breaks `rule`."""
    ok, text = _RULES[rule]
    for name, v in values.items():
        if not ok(v):
            raise ValueError(f"{name} must be {text}, got {v!r}")


def check_reals(config, **names_by_rule) -> None:
    """check() each rule on the fields of `config` it names."""
    for rule, names in names_by_rule.items():
        check(rule, **{name: getattr(config, name) for name in names})


def check_milestones(values, name: str) -> tuple[int, ...]:
    """`values` as a tuple of ints; they must be strictly increasing integers >= 1."""
    ms = tuple(values) if isinstance(values, (list, tuple)) else None
    if ms is None or not (all(map(count, ms)) and all(a < b for a, b in zip(ms, ms[1:]))):
        raise ValueError(f"{name} must be strictly increasing integers >= 1, got {values!r}")
    return tuple(map(int, ms))


def check_decay(config) -> None:
    """Raise ValueError unless the field `config.DECAY` names, decayed by its
    factor at each milestone, stays a normal float. on_epoch_end drops each
    milestone it passes, so a config it builds counts only the decays ahead."""
    name, factor = config.DECAY
    value = getattr(config, name)
    for _ in config.schedule_milestones:
        value *= getattr(config, factor)
    if not (finite(value) and value >= sys.float_info.min):
        raise ValueError(f"{name} decayed by {factor} at milestones "
                         f"{config.schedule_milestones} leaves the normal float range: {value!r}")


# halves() and sweep(): whole-vector work split across two threads.
# Measured in process on a 2-vCPU VM with one-thread BLAS, p50s of 200 calls,
# one CPU against two, a split of no work costs about 16-23 us: the worker's
# wake-up on the other CPU, its reply, and the check of the caller's CPU (0.13
# us). It also costs per numpy call in each part, not per part, as each
# call's return waits for the GIL. So:
# - work of fewer than MIN_SPLIT elements (n rows of `width`) runs inline. An
#   Adam step breaks even near n = 32K (0.19-0.21 ms inline, 0.18 split) and is
#   1.4x faster at 64K and 1.6x at 203,530; the 784-256-10 MLP's gradient at
#   batch 128 (32K first-layer outputs) is 1.4x faster, and a 128-128-10 MLP's
#   (16K) 20% slower. Split at n = 32K, the filter is 8% and the dual solve 45%
#   slower; at 64K the filter is 1.05-1.13x faster, the solve 1.3x slower to
#   1.1x faster.
# - sweep() walks each part in blocks of BLOCK // 2: wide, as calls cost, and
#   small enough that a block's temporaries stay in cache. At n = 203,530 the
#   filter read 5.2-5.5 ms split in blocks of 8K per part against 3.8-4.2 ms on
#   one thread, 2.6 against 2.6-2.7 ms at 16K, 2.1 against 2.6 ms at 32K and
#   2.2-2.3 against 3.2-3.4 ms at 64K. At 32K the solve is 1.11-1.16x and the
#   variance 1.23-1.28x faster; at 64K these two gain (1.0 against 1.1 ms, 0.28
#   against 0.33 ms), the filter does not, and its scratch of 5 rows of BLOCK
#   (2.6 MB) doubles.
MIN_SPLIT = 1 << 15
BLOCK = 1 << 16
# The first part's length is a multiple of this: whole cache lines of float64,
# and whole micro-tiles of the BLAS kernels (models._matmul_by_rows).
ALIGN = 64


def _serve(todo: SimpleQueue, done: SimpleQueue) -> None:
    """The worker thread: run each (context, fn, part) from `todo` and answer
    on `done` with None or the exception fn raised, so a caller never waits
    for a reply that cannot come."""
    while True:
        job = todo.get()
        try:
            job[0].run(job[1], job[2])
        except BaseException as exc:  # raised again in the caller
            reply = exc
        else:
            reply = None
        # dropped before the reply: held here until the next job, fn's
        # arrays would outlive the call, and the caller's next arrays
        # would take fresh pages instead of the ones these free
        job = None
        done.put(reply)


_busy = threading.Lock()  # held by the call whose part the worker has
_PID = os.getpid()  # a child forked after import has no worker thread and splits nothing
# the worker, made by the first split: (todo, done, its native id, the CPUs it
# was started on or None where they cannot be set, the CPU it was kept off)
_worker: tuple[SimpleQueue, SimpleQueue, int, set | None, int | None] | None = None


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without the call
        return os.cpu_count() or 1


try:  # libc's sched_getcpu, which Python does not wrap; bound once
    _sched_getcpu = ctypes.CDLL(None).sched_getcpu
except (AttributeError, OSError, TypeError):  # no such call, or no C library to bind
    _sched_getcpu = None


def _caller_cpu() -> int | None:
    """The CPU the calling thread is on; None where sched_getcpu is missing or fails."""
    cpu = _sched_getcpu() if _sched_getcpu else -1
    return cpu if cpu >= 0 else None


def halves(fn, n: int, width: int = 1) -> None:
    """Run fn(part) over two slices that cover range(n): the first, a multiple
    of ALIGN long, on a worker thread in the caller's context (numpy's
    errstate included), the second here; an exception from the worker's
    part is raised here.

    For numpy and BLAS work that releases the GIL: fn writes only its own
    part of arrays the caller allocated, and calls nothing the bench wraps
    (its tracer keeps one span stack). fn(slice(0, n)) runs here alone when
    the process may use one CPU, when n rows of `width` elements are fewer
    than MIN_SPLIT or than two ALIGNs of rows, in a child after fork, and
    while another call has the worker, as in a split inside a split.
    """
    global _worker
    half = n // 2 // ALIGN * ALIGN
    if (not half or n * width < MIN_SPLIT or os.getpid() != _PID or _cpus() < 2
            or not _busy.acquire(blocking=False)):
        fn(slice(0, n))
        return
    try:
        if _worker is None:
            queues = SimpleQueue(), SimpleQueue()
            thread = threading.Thread(target=_serve, args=queues, name="kltrust-halves",
                                      daemon=True)
            thread.start()
            tid = thread.native_id
            cpus = os.sched_getaffinity(tid) if hasattr(os, "sched_setaffinity") else None
            _worker = *queues, tid, cpus, None
        todo, done, tid, cpus, off = _worker
        # the scheduler wakes the worker onto its waker's CPU, where the parts
        # take turns: keep it off the caller's CPU, and never touch the caller's
        # own CPUs, which BLAS threads inherit
        cpu = _caller_cpu() if cpus else None
        if cpu not in (None, off) and cpus - {cpu}:
            try:
                os.sched_setaffinity(tid, cpus - {cpu})
                _worker = todo, done, tid, cpus, cpu
            except OSError:  # the worker stays where the scheduler puts it
                pass
        todo.put((contextvars.copy_context(), fn, slice(0, half)))
        try:
            fn(slice(half, n))
        finally:
            raised = done.get()
    finally:
        _busy.release()
    if raised is not None:
        raise raised


def sweep(fn, n: int, rows: int) -> list:
    """fn(block, columns) for each block of BLOCK // 2 in range(n), where
    `columns` are as many columns of one (rows, min(BLOCK, n)) scratch array,
    BLOCK read at call time; returns what fn returned, in block order. Each
    part that halves() makes walks its own blocks on its own thread: the part
    at 0 in the first columns, the other from column min(start, BLOCK // 2),
    so the two never share one."""
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


@dataclass
class BaselineConfig:
    DECAY = ("learning_rate", "lr_decay_factor")  # for check_decay and on_epoch_end; not a field
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
        check_decay(self)


class Optimizer:
    """Holds the point `mean`, built from `(n, config, mu0)`; each subclass's
    `step(grad)` binds `mean` to a new array, so a caller may hold the
    previous point across the step."""
    UNREAD: tuple[str, ...] = ()  # the config fields step never reads; not a setting

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
            name, factor = cfg.DECAY
            ahead = tuple(m for m in cfg.schedule_milestones if m > self.epoch)
            self.config = replace(cfg, schedule_milestones=ahead,
                                  **{name: getattr(cfg, name) * getattr(cfg, factor)})


class SGDMomentum(Optimizer):
    """Heavy-ball SGD; weight decay is folded into the gradient."""
    UNREAD = ("beta1", "beta2", "adam_eps")

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
    """Adam's moment estimates, and the two work vectors each update writes,
    held across steps so that an Adam step allocates only its new point."""

    def __init__(self, n: int, beta1: float, beta2: float, eps: float):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.m_hat = np.empty(n)
        self.denom = np.empty(n)
        self.t = 0

    def update(self, grad: np.ndarray, then=None) -> tuple[np.ndarray, np.ndarray]:
        """Fold in one gradient; write the bias-corrected m_hat and Adam's
        denominator sqrt(v_hat) + eps into the work vectors and return them,
        for the caller to read or overwrite until the next update. The two
        halves of the vectors are written by two threads (halves), and each
        then runs then(part) on its half, if given."""
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t

        def part(s: slice) -> None:
            g, m, v, x, d = grad[s], self.m[s], self.v[s], self.m_hat[s], self.denom[s]
            # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g^2, with
            # the same roundings as those expressions
            np.multiply(g, 1.0 - self.beta1, out=x)
            m *= self.beta1
            m += x
            np.multiply(g, g, out=x)
            x *= 1.0 - self.beta2
            v *= self.beta2
            v += x
            np.divide(m, c1, out=x)
            np.divide(v, c2, out=d)
            np.sqrt(d, out=d)
            d += self.eps
            if then is not None:
                then(s)

        halves(part, len(self.m))
        return self.m_hat, self.denom


class Adam(Optimizer):
    """Bias-corrected Adam; weight decay is folded into the gradient."""
    UNREAD = ("momentum",)

    def __init__(self, n: int, config: BaselineConfig, mu0: np.ndarray):
        super().__init__(n, config, mu0)
        self.moments = AdamMoments(n, config.beta1, config.beta2, config.adam_eps)

    def _move(self, grad: np.ndarray, keep: float) -> None:
        """Bind mean to a new vector, keep * mean - lr * m_hat / denom, each
        half written by the thread that computed its m_hat and denom."""
        lr, old, new = self.config.learning_rate, self.mean, np.empty(self.n)

        def then(s: slice) -> None:
            delta = self.moments.m_hat[s]
            delta *= lr
            delta /= self.moments.denom[s]
            if keep == 1.0:
                np.subtract(old[s], delta, out=new[s])
            else:
                np.multiply(old[s], keep, out=new[s])
                new[s] -= delta

        self.moments.update(grad, then)
        self.mean = new

    def step(self, grad: np.ndarray) -> None:
        grad = self._check(grad)
        if self.config.weight_decay > 0.0:
            grad = grad + self.config.weight_decay * self.mean
        self._move(grad, 1.0)


class AdamW(Adam):
    """Adam with decoupled decay applied to the point before the Adam delta."""

    def step(self, grad: np.ndarray) -> None:
        grad = self._check(grad)
        # 1.0 without decay, and then the point is not scaled
        self._move(grad, 1.0 - self.config.learning_rate * self.config.weight_decay)
