"""The benchmark's traced run wraps kltrust functions by the names the library
looks them up under. This test fails when such a name disappears, or still
exists but is no longer called, which would silently zero a per-layer metric.
"""

import importlib.util
from pathlib import Path

from kltrust.harness import RunConfig, run

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quadratic_cell(tmp_path, optimizer, **kw):
    return RunConfig(
        task="synthetic_quadratic", optimizer=optimizer, epochs=2, batch_size=3,
        seeds=(0,), milestones=(1,), task_params={"n": 4, "steps_per_epoch": 5},
        out_dir=str(tmp_path / optimizer), **kw,
    )


def test_every_seam_exists_and_the_quadratic_cells_call_them(tmp_path):
    spans = _load_spans()
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
    # every step averages batch_size draws, in both cells
    assert names.count("data.synthetic_grad") == 2 * steps * 3
    for name in ("surrogate.filter_update", "trust_region.primal_variance",
                 "trust_region.solve_eta", "harness.write_metrics_csv"):
        assert name in names, name
