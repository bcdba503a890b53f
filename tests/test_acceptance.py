"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The two Fashion-MNIST criteria need the four IDX files under
$KLTRUST_DATA_DIR/fashion_mnist/ and skip with instructions otherwise.
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from dual_oracle import checked_solve

import kltrust.optimizer as optimizer_mod
from kltrust.baselines import Adam, AdamW, BaselineConfig, SGDMomentum
from kltrust.data import SyntheticQuadraticTask, synthetic_grad
from kltrust.harness import (
    DATA_DIR_ENV,
    RunConfig,
    read_metrics_csv,
    run,
    verify_hparams,
)
from kltrust.models import MLP, Batch, SmallCNN, fd_check
from kltrust.optimizer import TrustRegionConfig, TrustRegionOptimizer
from kltrust.surrogate import filter_update, init_state
from kltrust.trust_region import ParameterDistribution, solve_eta


def _report(num: int, text: str) -> None:
    print(f"CRITERION {num:02d} PASS: {text}")


def _data_root() -> Path:
    return Path(os.environ.get(DATA_DIR_ENV, "data"))


def _fashion_mnist_available() -> bool:
    root = _data_root() / "fashion_mnist"
    names = (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
    return all((root / n).exists() or (root / (n + ".gz")).exists() for n in names)


needs_fashion_mnist = pytest.mark.skipif(
    not _fashion_mnist_available(),
    reason=(
        "Fashion-MNIST IDX files not found under "
        f"{_data_root() / 'fashion_mnist'} (set {DATA_DIR_ENV}); place "
        "train-images-idx3-ubyte, train-labels-idx1-ubyte, "
        "t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte (or .gz) there"
    ),
)


# ---------------------------------------------------------------------------
# 1. Kalman filter equals dense forward filtering
# ---------------------------------------------------------------------------

def test_criterion_01_kalman_oracle_equivalence():
    def dense(mus, gs, q, r, p0):
        m, P, I = np.zeros(2), np.eye(2) * p0, np.eye(2)
        for mu, g in zip(mus, gs):
            H = np.array([[mu, 1.0]])
            Pp = P + q * I
            S = H @ Pp @ H.T + r
            K = Pp @ H.T / S
            m = m + (K * (g - H @ m)).ravel()
            P = (I - K @ H) @ Pp
        return m, P

    rng = np.random.default_rng(20_24)
    t0 = time.perf_counter()
    for _ in range(200):
        T = int(rng.integers(1, 21))
        q = float(rng.uniform(0.0, 0.1))
        r = float(rng.uniform(0.01, 10.0))
        mus = rng.uniform(-3.0, 3.0, size=T)
        gs = rng.uniform(-5.0, 5.0, size=T)
        state = init_state(1, 5e-5)
        for mu, g in zip(mus, gs):
            state = filter_update(state, np.array([mu]), np.array([g]), q, r)
        m, P = dense(mus, gs, q, r, 5e-5)
        assert state.a[0] == pytest.approx(m[0], rel=1e-8, abs=1e-12)
        assert state.b[0] == pytest.approx(m[1], rel=1e-8, abs=1e-12)
        assert state.p11[0] == pytest.approx(P[0, 0], rel=1e-8, abs=1e-12)
        assert state.p12[0] == pytest.approx(P[0, 1], rel=1e-8, abs=1e-12)
        assert state.p22[0] == pytest.approx(P[1, 1], rel=1e-8, abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"200 sequences match the dense filter at 1e-8 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. trust-region constraint on randomized instances + Newton iterations
# ---------------------------------------------------------------------------

def test_criterion_02_constraint_satisfaction_and_iterations():
    rng = np.random.default_rng(7_77)
    instance_iters = []
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        a = rng.uniform(0.0, 10.0, size=n)
        b = rng.uniform(-10.0, 10.0, size=n)
        prev = ParameterDistribution(
            rng.uniform(-1.0, 1.0, size=n), rng.uniform(1e-4, 1.0, size=n)
        )
        eps = float(10 ** rng.uniform(-3.0, -1.0))
        tr = TrustRegionConfig(
            epsilon=eps,
            rho=float(rng.uniform(0.01, 1.0)),
            nu=float(rng.uniform(0.5, 2.0)),
            lambda_prec=float(rng.uniform(0.0, 0.01)),
        )
        res = solve_eta(a, b, prev, tr)
        instance_iters.append(res.iterations)
        inside = res.eta_star == 0.0 and res.c_mu <= eps
        on_band = abs(res.c_mu - eps) <= 0.1 * eps + 1e-15
        assert inside or on_band
    assert max(instance_iters) <= 4

    # trajectory: drive the optimizer on a noisy quadratic
    task = SyntheticQuadraticTask(
        theta_star=np.resize([0.5, -0.5], 10),
        diag=np.logspace(-1, 1, 10),
        noise_scale=1.0,
        seed=3,
    )
    opt = TrustRegionOptimizer(10, TrustRegionConfig(epsilon=0.01), mu0=np.zeros(10))
    iters, constrained_iters = [], []
    for step in range(300):
        diag = opt.step(synthetic_grad(task, opt.mean, step, 32))
        iters.append(diag.newton_iters)
        if diag.eta_star > 0.0:
            constrained_iters.append(diag.newton_iters)
    median_all = float(np.median(iters))
    assert median_all <= 6.0
    if constrained_iters:
        assert float(np.median(constrained_iters)) <= 6.0
    _report(2, f"1000/1000 instances in band in <= {max(instance_iters)} Newton iterations; "
               f"trajectory median {median_all:.1f}")


# ---------------------------------------------------------------------------
# 3. structural invariants
# ---------------------------------------------------------------------------

def test_criterion_03_structural_invariants():
    rng = np.random.default_rng(55)

    # variance positive at every step of a random run
    opt = TrustRegionOptimizer(8, TrustRegionConfig(epsilon=0.02), mu0=rng.normal(size=8))
    for _ in range(150):
        opt.step(rng.normal(scale=2.0, size=8))
        assert np.min(opt.dist.sigma2) > 0.0

    # one full step from an identical state under forced eta in {0.1, 1, 10}
    # yields bitwise-identical variances
    grads = rng.normal(size=5)
    mu0 = rng.normal(size=5)
    sigmas = []
    for eta in (0.1, 1.0, 10.0):
        o = TrustRegionOptimizer(
            5, TrustRegionConfig(mode="fixed-eta", fixed_eta=eta), mu0=mu0
        )
        o.step(grads)
        sigmas.append(o.dist.sigma2)
    assert np.array_equal(sigmas[0], sigmas[1]) and np.array_equal(sigmas[1], sigmas[2])

    # infinite-eta limit freezes the mean
    n = 30
    a = rng.uniform(0.0, 5.0, size=n)
    b = rng.uniform(-5.0, 5.0, size=n)
    prev = ParameterDistribution(rng.uniform(-1, 1, n), rng.uniform(0.01, 1.0, n))
    tr = TrustRegionConfig(epsilon=0.01, rho=0.1, nu=1.3, lambda_prec=0.0015)
    mu_inf = solve_eta(a, b, prev, replace(tr, mode="fixed-eta", fixed_eta=1e12)).mu
    assert np.linalg.norm(mu_inf - prev.mu) / np.linalg.norm(prev.mu) < 1e-6

    # eta = 0 with no regularization recovers the surrogate optimum
    a_pos = rng.uniform(0.5, 5.0, size=n)
    tr0 = TrustRegionConfig(epsilon=0.01, rho=0.0, nu=1.3, lambda_prec=0.0, mode="fixed-eta",
                            fixed_eta=0.0)
    mu0_step = solve_eta(a_pos, b, prev, tr0).mu
    assert np.max(np.abs(mu0_step - (-b / a_pos)) / np.abs(-b / a_pos)) < 1e-10
    _report(3, "variance positivity, eta-independence, and both limit laws hold")


# ---------------------------------------------------------------------------
# 4. quadratic convergence with defaults
# ---------------------------------------------------------------------------

def test_criterion_04_quadratic_convergence():
    n = 10
    D = np.logspace(np.log10(0.1), np.log10(10.0), n)
    theta_star = np.resize([0.5, -0.5], n)
    opt = TrustRegionOptimizer(n, TrustRegionConfig(epsilon=0.01), mu0=np.zeros(n))
    t0 = time.perf_counter()
    err = math.inf
    for step in range(200):
        opt.step(D * (opt.mean - theta_star))
        err = float(np.linalg.norm(opt.mean - theta_star))
        if err < 1e-3:
            break
    elapsed = time.perf_counter() - t0
    assert err < 1e-3
    assert elapsed < 1.0
    _report(4, f"|mu - theta*| = {err:.2e} after {step + 1} steps in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. noisy-quadratic robustness vs tuned fixed-step SGD
# ---------------------------------------------------------------------------

def test_criterion_05_noisy_quadratic_robustness():
    n, steps, draws = 10, 2000, 32
    D = np.logspace(np.log10(0.1), np.log10(10.0), n)
    theta_star = np.resize([0.5, -0.5], n)

    tr_finals = []
    for seed in range(5):
        task = SyntheticQuadraticTask(theta_star, D, noise_scale=1.0, seed=seed)
        opt = TrustRegionOptimizer(n, TrustRegionConfig(epsilon=0.01), mu0=np.zeros(n))
        for step in range(steps):
            opt.step(synthetic_grad(task, opt.mean, step, draws))
        tr_finals.append(np.linalg.norm(opt.mean - theta_star))
    tr_mean = float(np.mean(tr_finals))

    sgd_means = []
    for lr in (0.001, 0.003, 0.01, 0.03, 0.1):
        finals = []
        for seed in range(5):
            task = SyntheticQuadraticTask(theta_star, D, noise_scale=1.0, seed=seed)
            mu = np.zeros(n)
            for step in range(steps):
                mu = mu - lr * synthetic_grad(task, mu, step, draws)
            finals.append(np.linalg.norm(mu - theta_star))
        sgd_means.append(float(np.mean(finals)))
    best_sgd = min(sgd_means)

    assert tr_mean <= 1.5 * best_sgd
    _report(5, f"final error {tr_mean:.4f} vs tuned SGD {best_sgd:.4f} (<= 1.5x)")


# ---------------------------------------------------------------------------
# 6. gradient correctness via finite differences
# ---------------------------------------------------------------------------

def test_criterion_06_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)

        mlp = MLP((784, 256, 10))
        batch = Batch(rng.uniform(0, 1, size=(4, 784)), rng.integers(0, 10, size=4))
        coords = rng.choice(mlp.n_params, size=50, replace=False)
        err = fd_check(mlp, mlp.init_params(seed), batch, coords)
        worst = max(worst, err)
        assert err < 1e-4

        cnn = SmallCNN((1, 28, 28), 10)
        batch = Batch(rng.uniform(0, 1, size=(2, 1, 28, 28)), rng.integers(0, 10, size=2))
        coords = rng.choice(cnn.n_params, size=50, replace=False)
        err = fd_check(cnn, cnn.init_params(seed), batch, coords)
        worst = max(worst, err)
        assert err < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(6, f"worst FD relative error {worst:.2e} over 5 seeds in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. baseline optimizers match hand-stepped oracles
# ---------------------------------------------------------------------------

def test_criterion_07_baseline_oracles():
    def sgd_oracle(theta, gs, lr, mom, wd):
        buf, out = 0.0, []
        for g in gs:
            buf = mom * buf + (g + wd * theta)
            theta = theta - lr * buf
            out.append(theta)
        return out

    def adam_oracle(theta, gs, lr, b1, b2, eps, wd, decoupled):
        m = v = 0.0
        out = []
        for t, g in enumerate(gs, start=1):
            if decoupled:
                theta = theta * (1.0 - lr * wd)
            else:
                g = g + wd * theta
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1**t)) / (
                math.sqrt(v / (1 - b2**t)) + eps
            )
            out.append(theta)
        return out

    gs = [0.9, -0.4, 1.7]

    opt = SGDMomentum(1, BaselineConfig(0.08, momentum=0.9,
                                        weight_decay=0.01), np.array([0.5]))
    for g, want in zip(gs, sgd_oracle(0.5, gs, 0.08, 0.9, 0.01)):
        opt.step(np.array([g]))
        assert opt.mean[0] == pytest.approx(want, abs=1e-12)

    opt = Adam(1, BaselineConfig(0.02, beta1=0.9, beta2=0.999,
                                 weight_decay=0.03), np.array([0.5]))
    for g, want in zip(gs, adam_oracle(0.5, gs, 0.02, 0.9, 0.999, 1e-8, 0.03, False)):
        opt.step(np.array([g]))
        assert opt.mean[0] == pytest.approx(want, abs=1e-12)

    opt = AdamW(1, BaselineConfig(0.02, beta1=0.9, beta2=0.999,
                                  weight_decay=0.03), np.array([0.5]))
    for g, want in zip(gs, adam_oracle(0.5, gs, 0.02, 0.9, 0.999, 1e-8, 0.03, True)):
        opt.step(np.array([g]))
        assert opt.mean[0] == pytest.approx(want, abs=1e-12)

    # Adam and AdamW coincide without weight decay
    a = Adam(2, BaselineConfig(0.01), np.ones(2))
    w = AdamW(2, BaselineConfig(0.01), np.ones(2))
    for g in np.random.default_rng(2).normal(size=(25, 2)):
        a.step(g)
        w.step(g)
        assert np.array_equal(a.mean, w.mean)
    _report(7, "3-step oracles match at 1e-12; Adam == AdamW at wd=0")


# ---------------------------------------------------------------------------
# 8. desk-scale Fashion-MNIST benchmark
# ---------------------------------------------------------------------------

def _desk_config(optimizer, out_dir, **kw):
    base = dict(
        task="fashion_mnist_mlp",
        optimizer=optimizer,
        epochs=5,
        batch_size=128,
        seeds=(0, 1, 2),
        milestones=(),
        out_dir=str(out_dir),
    )
    base.update(kw)
    return RunConfig(**base)


@needs_fashion_mnist
def test_criterion_08_desk_scale_benchmark(tmp_path):
    t0 = time.perf_counter()
    tr = run(_desk_config("trust_region", tmp_path / "tr", preset="fashion_mnist_cnn"))
    adam = run(_desk_config("adam", tmp_path / "adam", preset="fashion_mnist_cnn"))
    elapsed = time.perf_counter() - t0

    assert tr.summary["failed_seeds"] == {}
    assert adam.summary["failed_seeds"] == {}
    tr_acc = tr.summary["final"]["mean_test_accuracy"]
    adam_acc = adam.summary["final"]["mean_test_accuracy"]
    assert tr_acc >= 0.85
    assert tr_acc >= adam_acc - 0.005
    assert elapsed < 1800.0
    _report(8, f"trust-region {tr_acc:.4f} vs adam {adam_acc:.4f} in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. ablation harness
# ---------------------------------------------------------------------------

def _assert_variant_schema(result, variant):
    rows = read_metrics_csv(result.csv_path)
    assert rows
    assert all(r.variant == variant for r in rows)
    assert all(r.eta_star is not None and r.c_mu is not None for r in rows)
    assert result.summary["variant"] == variant
    assert result.summary["failed_seeds"] == {}


def test_criterion_09_ablation_harness(tmp_path, monkeypatch):
    # variants run to completion and tag the schema (dataset-free leg)
    base = RunConfig(
        task="synthetic_quadratic",
        optimizer="trust_region",
        hyperparams={"fixed_eta": 5.0},
        epochs=2,
        batch_size=8,
        seeds=(0, 1),
        milestones=(),
        task_params={"steps_per_epoch": 25},
        out_dir=str(tmp_path / "ablations"),
    )
    for variant in ("fixed-eta", "adam-surrogate"):
        _assert_variant_schema(run(replace(base, variant=variant)), variant)

    # fixed-eta mode matches the reference mean at each step, and standard
    # mode with its solve forced to the same eta equals it bitwise
    eta = 3.0
    grads = np.random.default_rng(40).normal(size=(40, 5))
    monkeypatch.setattr(optimizer_mod, "solve_eta", checked_solve)
    fix = TrustRegionOptimizer(
        5, TrustRegionConfig(mode="fixed-eta", fixed_eta=eta), mu0=np.zeros(5)
    )
    fixed = [(fix.step(g), fix.dist.mu.copy(), fix.dist.sigma2.copy()) for g in grads]

    def forced(a, b, prev, tr):
        return checked_solve(a, b, prev, replace(tr, mode="fixed-eta", fixed_eta=eta))

    monkeypatch.setattr(optimizer_mod, "solve_eta", forced)
    std = TrustRegionOptimizer(5, TrustRegionConfig(mode="standard"), mu0=np.zeros(5))
    for g, (diag, mu, sigma2) in zip(grads, fixed):
        assert std.step(g) == diag
        assert np.array_equal(std.dist.mu, mu)
        assert np.array_equal(std.dist.sigma2, sigma2)
    monkeypatch.undo()
    _report(9, "variants complete with tagged schema; fixed-eta matches the reference mean, "
               "and forced-eta equals it bitwise")


@needs_fashion_mnist
def test_criterion_09b_ablations_on_desk_benchmark(tmp_path):
    cfg = _desk_config(
        "trust_region",
        tmp_path / "desk_ablations",
        preset="fashion_mnist_cnn",
        hyperparams={"fixed_eta": 100.0},
        epochs=1,
        seeds=(0,),
    )
    for variant in ("fixed-eta", "adam-surrogate"):
        _assert_variant_schema(run(replace(cfg, variant=variant)), variant)
    _report(9, "desk-scale ablation variants run to completion")


# ---------------------------------------------------------------------------
# 10. hyperparameter fidelity
# ---------------------------------------------------------------------------

def test_criterion_10_hyperparameter_fidelity():
    report = verify_hparams()
    assert report["ok"] is True
    assert report["mismatches"] == []
    assert report["checked"] == 96  # 4 tables x 6 tasks x (5|3|4|4 params)
    _report(10, f"all {report['checked']} preset values match the tuned tables")
