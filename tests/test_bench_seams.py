"""The benchmark's traced run wraps kltrust functions by the names the library
looks them up under. This test fails when such a name disappears, or still
exists but is no longer called, which would silently zero a per-layer metric.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from kltrust import baselines
from kltrust.harness import RunConfig, read_metrics_csv, run
from kltrust.optimizer import TrustRegionConfig, TrustRegionOptimizer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    """A module of perfbench/, which is not a package, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quadratic_cell(tmp_path, optimizer, **kw):
    # noisy enough that the trust region floors some slopes in each epoch
    return RunConfig(
        task="synthetic_quadratic", optimizer=optimizer, epochs=2, batch_size=3,
        seeds=(0,), milestones=(1,),
        task_params={"n": 4, "steps_per_epoch": 5, "noise_scale": 10.0},
        out_dir=str(tmp_path / optimizer), **kw,
    )


def test_every_seam_exists_and_the_quadratic_cells_call_them(tmp_path):
    spans = _load_perfbench("spans")
    tracer = spans.Tracer()
    _, missing, restore = spans.install(tracer)
    try:
        assert missing == []
        tr = run(_quadratic_cell(tmp_path, "trust_region"))
        adam = run(_quadratic_cell(tmp_path, "adam", hyperparams={"learning_rate": 0.01}))
    finally:
        restore()
    assert tr.summary["failed_seeds"] == {} and adam.summary["failed_seeds"] == {}

    names = [s[0] for s in tracer.spans]
    steps = 2 * 5
    assert names.count("optimizer.step") == steps
    assert names.count("baselines.step") == steps
    # one call per step draws the whole batch, in both cells
    assert names.count("data.synthetic_grad") == 2 * steps
    # once per trust-region step: a fused stage that drops or repeats a call
    # would otherwise quietly change its per-layer metric
    for name in ("surrogate.filter_update", "trust_region.primal_variance",
                 "trust_region.solve_eta"):
        assert names.count(name) == steps, name
    assert "harness.write_metrics_csv" in names
    # perfbench's optimizer.clamped_frac reads the step's `clamped` attribute:
    # per epoch, its mean is the CSV's clamped column
    clamped = [s[4]["clamped"] for s in tracer.spans if s[0] == "optimizer.step"]
    rows = read_metrics_csv(tr.csv_path)
    assert [r.clamped for r in rows] == [float(np.mean(clamped[i:i + 5])) for i in (0, 5)]
    assert all(r.clamped > 0 for r in rows)


@pytest.mark.parametrize("epsilon", [0.01, 1e4], ids=["no-newton", "newton"])
def test_a_traced_step_that_splits_opens_one_span_per_seam(monkeypatch, epsilon):
    # the quadratic cells' n = 4 never starts the worker thread; at n = 4 BLOCK
    # every sweep of the step splits, and a sweep that called a wrapped name
    # would open a span from the worker, on the tracer's one span stack
    from test_halves import on_cpus, worker_running  # test_halves imports this module

    spans = _load_perfbench("spans")
    tracer = spans.Tracer()
    n, steps = 4 * baselines.BLOCK, 2
    rng = np.random.default_rng(16)
    opt = TrustRegionOptimizer(n, TrustRegionConfig(epsilon=epsilon), rng.normal(size=n))
    _, missing, restore = spans.install(tracer)
    try:
        assert missing == []
        for _ in range(steps):
            on_cpus(monkeypatch, 2, lambda: opt.step(rng.normal(size=n)))
    finally:
        restore()
    assert worker_running()
    newton = [s[4]["iterations"] for s in tracer.spans if s[0] == "trust_region.solve_eta"]
    assert all(newton) == (epsilon == 1e4)
    step_spans = [i for i, s in enumerate(tracer.spans) if s[0] == "optimizer.step"]
    assert len(step_spans) == steps
    names = ("surrogate.filter_update", "trust_region.primal_variance", "trust_region.solve_eta")
    for name in names:
        assert sorted(s[3] for s in tracer.spans if s[0] == name) == step_spans, name
    # and no other seam opens a span, from either thread
    assert {s[0] for s in tracer.spans} == {"optimizer.step", *names}
