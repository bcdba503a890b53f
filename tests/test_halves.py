"""baselines.halves: whole-vector work in two halves on two threads, bitwise
the one-thread result. A test forces the one-thread path by giving the
process one CPU, and the two-thread path by giving it two, which the worker
thread needs only to overlap, not to compute the same bits."""

import copy
import csv
import functools
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from test_bench_seams import _load_perfbench

from kltrust import baselines
from kltrust.baselines import MIN_SPLIT, Adam, AdamW, BaselineConfig, halves
from kltrust.errors import NonFiniteError
from kltrust.models import MLP, Batch, _matmul_by_rows
from kltrust.optimizer import TrustRegionConfig, TrustRegionOptimizer
from kltrust.surrogate import FilterConsistencyError, filter_update, init_state
from kltrust.trust_region import ETA_MIN, ParameterDistribution, primal_variance, solve_eta

SRC = Path(__file__).resolve().parents[1] / "src"
N = 2 * MIN_SPLIT + 1  # split into halves of MIN_SPLIT and MIN_SPLIT + 1


def on_cpus(monkeypatch, cpus, fn):
    """fn() while the process may run on `cpus` CPUs."""
    with monkeypatch.context() as m:
        m.setattr(baselines, "_cpus", lambda: cpus)
        return fn()


def worker_running() -> bool:
    return any(t.name == "kltrust-halves" for t in threading.enumerate())


def both_ways(monkeypatch, fn):
    """fn() on one CPU and on two, the second with the worker thread running."""
    inline = on_cpus(monkeypatch, 1, fn)
    threaded = on_cpus(monkeypatch, 2, fn)
    assert worker_running()
    return inline, threaded


@pytest.mark.parametrize("n", [MIN_SPLIT, N])
def test_each_half_runs_once_and_the_first_on_the_worker(monkeypatch, n):
    seen = []
    on_cpus(monkeypatch, 2, lambda: halves(lambda s: seen.append((s, threading.get_ident())), n))
    (first, worker), (second, caller) = sorted(seen, key=lambda p: p[0].start)
    assert (first, second) == (slice(0, n // 2), slice(n // 2, n))
    assert caller == threading.get_ident() != worker


@pytest.mark.parametrize("cpus,n", [(1, N), (2, MIN_SPLIT - 1)], ids=["one-cpu", "below-floor"])
def test_one_cpu_or_a_small_n_runs_inline(monkeypatch, cpus, n):
    seen = []
    on_cpus(monkeypatch, cpus, lambda: halves(lambda s: seen.append((s, threading.get_ident())), n))
    assert seen == [(slice(0, n), threading.get_ident())]


def _step(cls, n=N, steps=3, **config):
    rng = np.random.default_rng(7)
    opt = cls(n, BaselineConfig(learning_rate=1e-3, **config), rng.normal(size=n))
    for _ in range(steps):
        opt.step(rng.normal(size=n))
    return opt.mean.tobytes(), opt.moments.m.tobytes(), opt.moments.v.tobytes()


@pytest.mark.parametrize("cls,config", [
    (Adam, {}),
    (Adam, {"weight_decay": 0.1}),
    (AdamW, {"weight_decay": 0.1}),
], ids=["adam", "adam-coupled-decay", "adamw-decoupled-decay"])
def test_adam_steps_are_bitwise_the_one_cpu_steps(monkeypatch, cls, config):
    inline, threaded = both_ways(monkeypatch, lambda: _step(cls, **config))
    assert inline == threaded


@pytest.mark.parametrize("block", [3, 8, 3000, baselines.BLOCK])
@pytest.mark.parametrize("n", [MIN_SPLIT, N, 3 * baselines.BLOCK + 77])
def test_the_two_parts_walk_their_own_scratch_columns(monkeypatch, block, n):
    monkeypatch.setattr(baselines, "BLOCK", block)

    def record(s, columns):
        return s, columns, threading.get_ident()

    seen = on_cpus(monkeypatch, 2, lambda: baselines.sweep(record, n, 2))
    assert [i for s, _, _ in seen for i in range(s.start, s.stop)] == list(range(n))
    assert all(x.shape == (2, s.stop - s.start) for s, x, _ in seen)
    # a thread reuses its columns, so at most two distinct arrays per thread
    by_thread = {}
    for _, x, thread in seen:
        by_thread.setdefault(thread, {})[x.__array_interface__["data"][0], x.shape] = x
    first, second = by_thread.values()
    assert not any(np.shares_memory(x, y) for x in first.values() for y in second.values())
    # on one CPU the one part walks range(n) in blocks of BLOCK // 2 here; they
    # are the two parts' blocks where the split falls on a block's edge
    one = on_cpus(monkeypatch, 1, lambda: baselines.sweep(record, n, 2))
    size = block // 2
    assert [s for s, _, _ in one] == [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]
    assert {thread for _, _, thread in one} == {threading.get_ident()}
    if (n // 2 // baselines.ALIGN * baselines.ALIGN) % size == 0:
        assert [s for s, _, _ in one] == [s for s, _, _ in seen]


@pytest.mark.parametrize("block", [None, 3000], ids=["default-block", "blocks-of-1500"])
@pytest.mark.parametrize("config", [
    {"epsilon": 0.01},
    {"epsilon": 1e3},
    {"mode": "fixed-eta", "fixed_eta": 10.0},
    {"mode": "adam-surrogate"},
], ids=["standard", "standard-newton", "fixed-eta", "adam-surrogate"])
def test_a_trust_region_step_is_bitwise_the_one_cpu_step(monkeypatch, config, block):
    # the filter or Adam's moments, the variance and every sweep of the solve
    # split; at BLOCK = 3000 each half walks many blocks, the last one partial
    if block is not None:
        monkeypatch.setattr(baselines, "BLOCK", block)

    def steps():
        rng = np.random.default_rng(11)
        opt = TrustRegionOptimizer(N, TrustRegionConfig(**config), rng.normal(size=N))
        diags = [opt.step(rng.normal(size=N)) for _ in range(3)]
        held = vars(opt.moments if config.get("mode") == "adam-surrogate" else opt.filter)
        state = [x.tobytes() for x in held.values() if isinstance(x, np.ndarray)]
        return diags, opt.dist.mu.tobytes(), opt.dist.sigma2.tobytes(), state

    inline, threaded = both_ways(monkeypatch, steps)
    assert inline == threaded
    newton = sum(d.newton_iters for d in inline[0])
    assert (newton > 0) == (config.get("epsilon") == 1e3)


def _outcome(fn):
    """fn()'s result, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def _not_pd(j):
    # p11 < 0 in dimension j, where mu = 0 leaves it < 0 after the update
    rng = np.random.default_rng(12)
    state, mu = init_state(N, 0.3), rng.normal(size=N)
    state.p11[j], mu[j] = -1.0, 0.0
    filter_update(state, mu, rng.normal(size=N), 0.02, 1.3)


def _nan_variance(j):
    rng = np.random.default_rng(13)
    a = rng.uniform(0.0, 1.0, size=N)
    a[j] = np.nan
    primal_variance(a, ParameterDistribution(rng.normal(size=N), np.full(N, 0.5)),
                    TrustRegionConfig())


def _zero_w(j):
    # w_j = 0 with rho * lambda = 0: the solve must start from ETA_MIN, as
    # 0/0 at eta = 0 would fail it
    rng = np.random.default_rng(14)
    a, b = rng.uniform(0.0, 1.0, size=N), rng.normal(size=N)
    a[j] = b[j] = 0.0
    res = solve_eta(a, b, ParameterDistribution(rng.normal(size=N), np.full(N, 0.5)),
                    TrustRegionConfig(epsilon=10.0, lambda_prec=0.0))
    assert res.eta_star >= ETA_MIN
    return res.eta_star, res.c_mu, res.iterations, res.mu.tobytes()


def _fixed_eta(j):
    # a fixed-eta solve, and its zero denominator: w_j = 0 at eta = 0
    rng = np.random.default_rng(15)
    a, b = rng.uniform(0.0, 1.0, size=N), rng.normal(size=N)
    prev = ParameterDistribution(rng.normal(size=N), np.full(N, 0.5))
    res = solve_eta(a, b, prev, TrustRegionConfig(mode="fixed-eta", fixed_eta=10.0))
    a[j] = 0.0
    with pytest.raises(NonFiniteError, match=f"^non-positive denominator in dimension {j}: "):
        solve_eta(a, b, prev, TrustRegionConfig(mode="fixed-eta", fixed_eta=0.0, lambda_prec=0.0))
    return res.eta_star, res.c_mu, res.iterations, res.mu.tobytes()


@pytest.mark.parametrize("j", [5, N - 5], ids=["workers-half", "callers-half"])
@pytest.mark.parametrize("fault,expected", [
    (_not_pd, (FilterConsistencyError, "covariance not positive definite or state non-finite")),
    (_nan_variance, (NonFiniteError,
                     "variance update produced a non-positive or NaN entry, or inf")),
    (_zero_w, None),
    (_fixed_eta, None),
], ids=["filter-not-pd", "variance-nan", "solve-zero-w", "fixed-eta-solve"])
def test_what_either_half_finds_counts(monkeypatch, fault, expected, j):
    # each half keeps its own min, max or check sum, and the caller combines
    # them: a fault in either half is what one CPU finds
    inline, threaded = both_ways(monkeypatch, lambda: _outcome(lambda: fault(j)))
    assert inline == threaded
    if expected is not None:
        assert inline == expected


@pytest.mark.parametrize("sizes,rows", [
    ((784, 256, 10), 128),
    ((784, 256, 10), 127),
    ((784, 256, 10), 1),
    ((785, 264, 10), 131),
    ((785, 255, 10), 131),
], ids=["batch-128", "batch-127", "batch-1", "odd-rows", "width-not-a-multiple-of-8"])
def test_mlp_gradient_and_loss_are_bitwise_the_one_cpu_ones(monkeypatch, sizes, rows):
    model = MLP(sizes)
    params = model.init_params(seed=4)
    rng = np.random.default_rng(rows)
    batch = Batch(rng.random((rows, sizes[0])), rng.integers(0, sizes[-1], rows))

    def both():
        loss, grad = model.loss_and_grad(params, batch)
        eval_loss, logits = model.forward_loss(params, batch)
        return loss, grad.tobytes(), eval_loss, logits.tobytes()

    inline, threaded = both_ways(monkeypatch, both)
    assert inline == threaded


@pytest.mark.parametrize("rows,inner,width", [
    (128, 784, 256), (131, 785, 264), (200, 10, 512), (255, 127, 136), (1000, 64, 64),
])
@pytest.mark.parametrize("transposed", [False, True], ids=["a", "a.T"])
def test_a_row_split_product_is_bitwise_one_call(monkeypatch, rows, inner, width, transposed):
    rng = np.random.default_rng(rows)
    a = rng.random((inner, rows)).T if transposed else rng.random((rows, inner))
    b = rng.random((inner, width))
    split = on_cpus(monkeypatch, 2, lambda: _matmul_by_rows(a, b))
    assert worker_running()
    assert split.tobytes() == np.matmul(a, b).tobytes()


def test_an_exception_in_the_workers_half_is_raised_in_the_caller(monkeypatch):
    out = np.zeros(N)

    def fill(s, fail):
        if fail and s.start == 0:  # the worker's half
            raise KeyError("the worker's half")
        out[s] = s.start + 1

    with pytest.raises(KeyError, match="the worker's half"):
        on_cpus(monkeypatch, 2, lambda: halves(functools.partial(fill, fail=True), N))
    assert np.all(out[:N // 2] == 0) and np.all(out[N // 2:] == N // 2 + 1)
    on_cpus(monkeypatch, 2, lambda: halves(functools.partial(fill, fail=False), N))
    assert np.all(out[:N // 2] == 1)


@pytest.mark.parametrize("over", ["raise", "ignore"])
def test_the_workers_part_runs_under_the_callers_errstate(monkeypatch, over):
    # numpy's errstate is a context variable (numpy >= 2.0), and the worker's
    # part runs in a copy of the caller's context: an overflow in that part
    # alone raises, or not, as the caller's errstate says
    x = np.ones(N)
    x[:5] = 1e300  # in the worker's part only
    seen = []

    def square(s):
        seen.append((s, threading.current_thread().name))
        np.multiply(x[s], x[s], out=x[s])

    with np.errstate(over=over):
        if over == "raise":
            with pytest.raises(FloatingPointError):
                on_cpus(monkeypatch, 2, lambda: halves(square, N))
        else:
            on_cpus(monkeypatch, 2, lambda: halves(square, N))
            assert np.all(x[:5] == np.inf)
    assert sorted(seen, key=lambda p: p[0].start) == [
        (slice(0, N // 2), "kltrust-halves"), (slice(N // 2, N), threading.current_thread().name)]


def test_concurrent_callers_each_get_their_own_halves(monkeypatch):
    # one worker serves every thread: a second caller must not take the
    # reply meant for the first, and so return before its own half is written
    monkeypatch.setattr(baselines, "_cpus", lambda: 2)
    wrong = []

    def caller(k):
        out = np.zeros(N)

        def fill(s):
            out[s] = k

        for _ in range(50):
            out[:] = 0.0
            halves(fill, N)
            if not np.all(out == k):
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(1, 5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_a_split_inside_a_split_runs_inline(monkeypatch):
    # each block of a sweep splits its own range again, enough work to split
    # alone; the worker has the outer split's part, so each inner split runs
    # whole on the thread that made it: the worker's blocks on the worker
    n, width = 4 * baselines.BLOCK, 2
    out = np.empty(n)

    def block(s, columns):
        seen = []

        def fill(t):
            seen.append((t, threading.get_ident()))
            np.sqrt(np.arange(s.start + t.start, s.start + t.stop, dtype=float), out=out[s][t])

        halves(fill, s.stop - s.start, width)
        return seen, threading.get_ident()

    def nested():
        return baselines.sweep(block, n, 1), out.tobytes()

    alone = []
    on_cpus(monkeypatch, 2, lambda: halves(alone.append, baselines.BLOCK // 2, width))
    assert len(alone) == 2
    one = on_cpus(monkeypatch, 1, nested)
    two = on_cpus(monkeypatch, 2, nested)
    assert two[1] == one[1]
    size = baselines.BLOCK // 2
    assert [seen for seen, _ in two[0]] == [[(slice(0, size), thread)] for _, thread in two[0]]
    assert len({thread for _, thread in two[0]}) == 2


def test_importing_kltrust_starts_no_thread():
    code = ("import threading\n"
            "before = threading.active_count()\n"
            "import kltrust, kltrust.cli, kltrust.harness\n"
            "assert threading.active_count() == before, threading.enumerate()\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


def _step_in_child(opt, grad, expected):
    opt.step(grad)
    if opt.mean.tobytes() != expected:
        raise SystemExit(1)


# Python 3.12 and later warn that fork() in a process with threads may deadlock
# the child; the child's own step must not
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_child_forked_after_a_threaded_step_steps_on_its_own(monkeypatch):
    monkeypatch.setattr(baselines, "_cpus", lambda: 2)
    rng = np.random.default_rng(9)
    opt = Adam(N, BaselineConfig(learning_rate=1e-3), rng.normal(size=N))
    opt.step(rng.normal(size=N))
    assert worker_running()
    grad = rng.normal(size=N)
    reference = copy.deepcopy(opt)
    reference.step(grad)
    child = multiprocessing.get_context("fork").Process(
        target=_step_in_child, args=(opt, grad, reference.mean.tobytes()))
    child.start()
    try:
        child.join(timeout=60)
        assert not child.is_alive(), "the forked child's step did not finish"
    finally:
        child.kill()
        child.join()
    assert child.exitcode == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_child_forked_before_any_split_runs_each_split_inline():
    # in a fresh interpreter, so that no split has started the worker; the
    # importing process still splits after the fork
    code = ("import os, sys, threading\n"
            "from kltrust import baselines\n"
            f"baselines._cpus, n = lambda: 2, {N}\n"
            "def parts():\n"
            "    seen = []\n"
            "    baselines.halves(seen.append, n)\n"
            "    return sorted((s.start, s.stop) for s in seen)\n"
            "def worker():\n"
            "    return any(t.name == 'kltrust-halves' for t in threading.enumerate())\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os._exit(0 if parts() == [(0, n)] and not worker() else 1)\n"
            "assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0, 'the child split'\n"
            "assert parts() == [(0, n // 2), (n // 2, n)] and worker()\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_warm_adam_step_allocates_only_its_new_point(monkeypatch, cpus):
    rng = np.random.default_rng(10)
    opt = Adam(N, BaselineConfig(learning_rate=1e-3), rng.normal(size=N))
    grad = rng.normal(size=N)
    on_cpus(monkeypatch, cpus, lambda: opt.step(grad))  # the worker, if any, is started
    tracemalloc.start()
    try:
        on_cpus(monkeypatch, cpus, lambda: opt.step(grad))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * N <= peak < 8 * N + 64 * 1024, peak / (8 * N)


# the worker's placement needs a thread's CPUs to be settable, the caller's
# CPU to be readable, and a second CPU to put the worker on
placement = pytest.mark.skipif(
    not (hasattr(os, "sched_setaffinity") and baselines._caller_cpu() is not None)
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity, sched_getcpu and two CPUs")


def the_worker() -> threading.Thread:
    (worker,) = [t for t in threading.enumerate() if t.name == "kltrust-halves"]
    return worker


@placement
def test_after_a_split_the_worker_may_not_run_on_the_callers_cpu(monkeypatch):
    real, seen = baselines._caller_cpu, []

    def caller_cpu():
        seen.append(real())
        return seen[-1]

    monkeypatch.setattr(baselines, "_caller_cpu", caller_cpu)
    on_cpus(monkeypatch, 2, lambda: halves(lambda s: None, N))
    (cpu,) = seen  # read once, before the handoff
    assert os.sched_getaffinity(the_worker().native_id) == os.sched_getaffinity(0) - {cpu}


def _in_child(code):
    """Run `code` in a fresh interpreter whose halves() splits at N."""
    prelude = ("import os, threading\n"
               "from kltrust import baselines\n"
               f"n = {N}\n"
               "def worker():\n"
               "    (t,) = [t for t in threading.enumerate() if t.name == 'kltrust-halves']\n"
               "    return t.native_id\n"
               "def parts():\n"
               "    seen = []\n"
               "    baselines.halves(seen.append, n)\n"
               "    return sorted((s.start, s.stop) for s in seen)\n")
    subprocess.run([sys.executable, "-c", prelude + code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


@placement
def test_a_caller_moved_onto_the_workers_cpu_moves_the_worker_off_it():
    # the caller is confined to one CPU, so _cpus() reads 1 and is patched
    # to 2 for the split; the worker keeps the CPUs it was started on
    _in_child("allowed = os.sched_getaffinity(0)\n"
              "assert parts() == [(0, n // 2), (n // 2, n)]\n"
              "cpu = min(os.sched_getaffinity(worker()))\n"
              "os.sched_setaffinity(0, {cpu})\n"
              "baselines._cpus = lambda: 2\n"
              "assert parts() == [(0, n // 2), (n // 2, n)]\n"
              "assert os.sched_getaffinity(worker()) == allowed - {cpu}\n")


@placement
def test_on_one_allowed_cpu_the_worker_is_not_moved():
    # the whole process is confined before the worker starts: the split runs
    # as it always did, and no affinity call is made
    _in_child("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
              "calls = []\n"
              "os.sched_setaffinity = lambda *args: calls.append(args)\n"
              "baselines._cpus = lambda: 2\n"
              "assert parts() == [(0, n // 2), (n // 2, n)]\n"
              "assert parts() == [(0, n // 2), (n // 2, n)]\n"
              "assert calls == [], calls\n")


@pytest.mark.parametrize("missing", ["sched_getcpu", "sched_getcpu-fails", "setaffinity"])
def test_without_sched_getcpu_or_a_settable_affinity_the_split_runs_as_before(monkeypatch,
                                                                              missing):
    def refuse(*args, **kwargs):
        raise PermissionError("refused")

    out = np.zeros(N)

    def fill(s):
        out[s] = s.start + 1

    on_cpus(monkeypatch, 2, lambda: halves(fill, N))  # the worker is started
    with monkeypatch.context() as m:
        if missing == "sched_getcpu":
            m.setattr(baselines, "_sched_getcpu", None)
        elif missing == "sched_getcpu-fails":  # it returns -1
            m.setattr(baselines, "_sched_getcpu", lambda: -1)
        else:
            m.setattr(os, "sched_setaffinity", refuse, raising=False)
        # as if the worker had been kept off no CPU yet
        m.setattr(baselines, "_worker", (*baselines._worker[:4], None))
        out[:] = 0.0
        on_cpus(monkeypatch, 2, lambda: halves(fill, N))
        assert baselines._worker[4] is None
    assert np.all(out[:N // 2] == 1) and np.all(out[N // 2:] == N // 2 + 1)


def _cli_run(tmp_path, name, data, one_cpu, optimizer):
    out = tmp_path / name
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({
        "task": "fashion_mnist_mlp", "optimizer": optimizer, "preset": "fashion_mnist_cnn",
        "epochs": 2, "batch_size": 128, "seeds": [0, 1], "milestones": [],
        "data_dir": str(data), "out_dir": str(out)}))
    pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" if one_cpu else ""
    code = ("import os, runpy, sys\n" + pin
            + f"sys.argv = ['kltrust', 'run', '--config', {str(config)!r}]\n"
            "runpy.run_module('kltrust.cli', run_name='__main__', alter_sys=True)\n")
    # with BLAS on one thread (conftest.py), which the child inherits
    subprocess.run([sys.executable, "-c", code], check=True, timeout=300,
                   env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True)
    (csv_path,) = out.glob("*.csv")
    with open(csv_path, newline="") as f:
        rows = [{k: v for k, v in row.items() if k != "wall_seconds"}
                for row in csv.DictReader(f)]
    (summary,) = out.glob("*_summary.json")
    return rows, json.loads(summary.read_text())


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs a process that may run on two CPUs")
@pytest.mark.parametrize("optimizer", ["adam", "trust_region"])
def test_a_run_on_one_cpu_writes_what_a_run_on_two_writes(tmp_path, optimizer):
    # the MLP's first layer (128 x 256 outputs), its Adam step and its
    # trust-region step (n = 203,530) are all above MIN_SPLIT, so the two-CPU
    # run splits them; the summary's machine key records the CPU count
    data = _load_perfbench("idxgen").write_fashion_mnist(tmp_path / "data", 0, 512, 256)
    one = _cli_run(tmp_path, "one-cpu", data, True, optimizer)
    two = _cli_run(tmp_path, "two-cpus", data, False, optimizer)
    assert len(one[0]) == 4
    assert one[1].pop("machine")["cpus"] == 1 < two[1].pop("machine")["cpus"]
    assert one == two
