"""Tests of the benchmark's own parts: python3 -m pytest perfbench"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import idxgen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import kltrust  # noqa: E402
from kltrust import optimizer as kl_optimizer  # noqa: E402


def test_idx_round_trip_through_load_idx(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, size=5, dtype=np.uint8)
    (tmp_path / "img").write_bytes(idxgen.idx_bytes(images))
    (tmp_path / "lab").write_bytes(idxgen.idx_bytes(labels))
    np.testing.assert_array_equal(kltrust.load_idx(tmp_path / "img"), images / 255.0)
    np.testing.assert_array_equal(kltrust.load_idx(tmp_path / "lab"), labels.astype(np.int64))


def test_generated_dataset_loads_and_is_seeded(tmp_path):
    root = idxgen.write_fashion_mnist(tmp_path / "a", seed=3, train=64, test=32)
    train, test = kltrust.load_fashion_mnist(root / "fashion_mnist")
    assert train.inputs.shape == (64, 28, 28) and test.inputs.shape == (32, 28, 28)
    assert set(np.unique(train.labels)) <= set(range(10))
    assert len(np.unique(train.labels)) > 1
    again = idxgen.write_fashion_mnist(tmp_path / "b", seed=3, train=64, test=32)
    other = idxgen.write_fashion_mnist(tmp_path / "c", seed=4, train=64, test=32)
    name = "fashion_mnist/train-images-idx3-ubyte"
    assert (root / name).read_bytes() == (again / name).read_bytes()
    assert (root / name).read_bytes() != (other / name).read_bytes()


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert layers.tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert layers.percentile(values, 50.0) == 50
    assert layers.percentile(values, 90.0) == 90
    assert layers.percentile(values, 99.9) == 100
    assert layers.percentile([7.0], 50.0) == 7.0


def test_self_time_subtracts_the_union_of_children():
    tree = [
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 4.0, 0, None),
        ("a.child", 1.5, 3.5, 1, None),  # inside a: not the root's child
        ("b", 3.0, 6.0, 0, None),  # overlaps a: counted once
        ("c", 9.0, 12.0, 0, None),  # runs past the root: clipped
    ]
    children = layers.children_of(tree)
    assert layers.self_time(tree, 0, children) == pytest.approx(10.0 - 5.0 - 1.0)
    assert layers.self_time(tree, 1, children) == pytest.approx(3.0 - 2.0)
    assert layers.self_time(tree, 3, children) == pytest.approx(3.0)


def test_run_counts_on_a_hand_built_trace():
    solve = {"eta_star": 0.5, "c_mu": 0.011, "iterations": 2, "epsilon": 0.01}
    interior = {"eta_star": 0.0, "c_mu": 0.005, "iterations": 0, "epsilon": 0.01}
    trace = [
        ("harness.run", 0.0, 10.0, -1, None),
        ("optimizer.step", 1.0, 2.0, 0, {"clamped": 1, "n": 4}),
        ("trust_region.solve_eta", 1.2, 1.8, 1, solve),
        ("trust_region.dual_derivative", 1.3, 1.4, 2, None),
        ("trust_region.dual_derivative", 1.5, 1.6, 2, None),
        ("optimizer.step", 3.0, 4.0, 0, {"clamped": 0, "n": 4}),
        ("trust_region.solve_eta", 3.2, 3.4, 5, interior),
        ("harness.write_metrics_csv", 8.0, 9.0, 0, None),
    ]
    counts = layers.run_counts(trace, epoch_walls=[3.0, 3.0])
    assert counts["optimizer.step.calls"] == 2
    assert counts["trust_region.dual_evals_per_solve.mean"] == 1.0
    assert counts["trust_region.dual_evals_per_solve.max"] == 2
    assert counts["trust_region.bisect_iters.mean"] == 1.0
    assert counts["trust_region.interior_frac"] == 0.5
    assert counts["trust_region.kl_ratio.max"] == pytest.approx(1.1)
    assert counts["optimizer.clamped_frac"] == 1 / 8
    assert counts["harness.self_s"] == pytest.approx((6.0 - 2.0) / 2)
    assert counts["harness.write_s"] == pytest.approx(2.0)


def test_shares_are_span_time_over_the_epoch_walls():
    trace = [
        ("harness.run", 0.0, 10.0, -1, None),
        ("optimizer.step", 1.0, 3.0, 0, None),
        ("trust_region.solve_eta", 1.5, 2.5, 1, None),
        ("harness.write_metrics_csv", 8.0, 9.0, 0, None),
    ]
    share = layers.shares([(trace, [2.0, 2.0]), (trace, [2.0, 2.0])])
    assert share == {"optimizer.step": 0.5, "trust_region.solve_eta": 0.25}


def _steps(n_steps=3):
    model = kltrust.MLP((6, 4, 3))
    rng = np.random.default_rng(1)
    batch = kltrust.Batch(rng.random((8, 6)), rng.integers(0, 3, 8))
    opt = kltrust.TrustRegionOptimizer(
        model.n_params, kltrust.TrustRegionConfig(epsilon=0.05), model.init_params(0))
    for _ in range(n_steps):
        _, grad = model.loss_and_grad(opt.mean, batch)
        opt.step(grad)
    return opt.mean.copy()


def test_wrappers_record_spans_and_leave_the_arithmetic_alone():
    untraced = _steps()
    tracer = spans.Tracer()
    installed, missing, restore = spans.install(tracer)
    try:
        traced = _steps()
    finally:
        restore()
    assert missing == []
    assert "trust_region.solve_eta" in installed
    np.testing.assert_array_equal(traced, untraced)
    names = [s[0] for s in tracer.spans]
    assert names.count("optimizer.step") == 3
    assert names.count("models.loss_and_grad") == 3
    step = names.index("optimizer.step")
    solve = names.index("trust_region.solve_eta")
    assert tracer.spans[solve][3] == step
    assert kl_optimizer.solve_eta is kltrust.trust_region.solve_eta


def test_a_missing_seam_is_reported_and_its_metrics_left_out(monkeypatch):
    monkeypatch.delattr(kl_optimizer, "solve_eta")
    tracer = spans.Tracer()
    installed, missing, restore = spans.install(tracer)
    restore()
    assert missing == ["kltrust.optimizer.solve_eta"]
    assert "trust_region.solve_eta" not in installed
    trace = [("harness.run", 0.0, 1.0, -1, None),
             ("optimizer.step", 0.1, 0.2, 0, {"clamped": 0, "n": 2})]
    metrics, notes, _ = layers.layer_metrics([(trace, [1.0])], installed, [1.0])
    assert "trust_region.solve_eta.p50_ms" not in metrics
    assert "trust_region.bisect_iters.mean" not in metrics
    assert "optimizer.step.self_p50_ms" not in metrics
    assert metrics["optimizer.step.calls"] == (1, "count")
    assert notes == []


def _checked_bench(name, solve_attrs, installed=("trust_region.solve_eta",)):
    """A Bench with one untraced and one traced run, checked; no child process."""
    bench = run.Bench.__new__(run.Bench)
    bench.name, bench.w, bench.checks = name, run.WORKLOADS[name], []
    result = {"failed_seeds": 0, "row_losses": [2.0, 1.0],
              "first_train_loss": 2.0, "final_train_loss": 1.0}
    spans_ = [("harness.run", 0.0, 1.0, -1, None)] + [
        ("trust_region.solve_eta", 0.1, 0.2, 0, a) for a in solve_attrs]
    bench.untraced = [dict(result)]
    bench.traced = [dict(result, trace={"installed": list(installed), "spans": spans_})]
    bench.run_checks()
    return {check: ok for check, ok, _ in bench.checks}


ETA_CHECK = "eta* >= 0 and C_mu <= 1.1 epsilon"


def test_eta_check_reads_every_solve():
    good = {"eta_star": 0.5, "c_mu": 0.0105, "iterations": 2, "epsilon": 0.01}
    over = dict(good, c_mu=0.0111)
    assert _checked_bench("mlp-trust-region", [good])[ETA_CHECK]
    assert not _checked_bench("mlp-trust-region", [good, over])[ETA_CHECK]


def test_eta_check_fails_when_it_cannot_read_the_solves():
    good = {"eta_star": 0.5, "c_mu": 0.0105, "iterations": 2, "epsilon": 0.01}
    assert not _checked_bench("mlp-trust-region", [good, None])[ETA_CHECK]
    assert not _checked_bench("mlp-trust-region", [], installed=())[ETA_CHECK]
    assert not _checked_bench("mlp-trust-region", [])[ETA_CHECK]
    # no dual solve is expected of Adam
    assert _checked_bench("mlp-adam", [], installed=())[ETA_CHECK]
