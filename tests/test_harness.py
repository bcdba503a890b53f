import inspect
import json
import pickle
import re
import struct
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from kltrust import harness, presets
from kltrust.baselines import Adam, AdamW, BaselineConfig, SGDMomentum
from kltrust.cli import main as cli_main
from kltrust.data import SyntheticQuadraticTask, synthetic_grad
from kltrust.harness import (
    CSV_COLUMNS,
    OPTIMIZERS,
    MetricsRecord,
    RunConfig,
    aggregate,
    read_metrics_csv,
    run,
    summarize,
    verify_hparams,
    write_metrics_csv,
)
from kltrust.optimizer import MODES, StepDiagnostics, TrustRegionConfig, TrustRegionOptimizer
from kltrust.surrogate import FilterConsistencyError
from kltrust.trust_region import primal_variance, solve_eta
from test_bench_seams import _load_perfbench

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DIAGNOSTICS = tuple(f.name for f in fields(StepDiagnostics))


def synth_config(tmp_path, optimizer="trust_region", seeds=(0, 1), **kw):
    defaults = dict(
        task="synthetic_quadratic",
        optimizer=optimizer,
        epochs=2,
        batch_size=4,
        seeds=seeds,
        milestones=(),
        task_params={"steps_per_epoch": 10, "noise_scale": 0.5},
        out_dir=str(tmp_path / "runs"),
    )
    if optimizer != "trust_region":
        defaults["hyperparams"] = {"learning_rate": 0.05}
    defaults.update(kw)
    return RunConfig(**defaults)


def record(seed, epoch, acc, variant="standard"):
    return MetricsRecord(
        seed=seed, epoch=epoch, train_loss=1.0, test_accuracy=acc,
        wall_seconds=0.1, **dict.fromkeys(DIAGNOSTICS), variant=variant,
    )


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_doubled_standard_error_example():
    rows = [record(s, 0, acc) for s, acc in enumerate((0.90, 0.91, 0.92))]
    out = aggregate(rows)
    assert out[0]["mean_test_accuracy"] == pytest.approx(0.91, rel=1e-12)
    assert out[0]["two_se_test_accuracy"] == pytest.approx(2 * 0.01 / np.sqrt(3), rel=1e-9)


def test_single_seed_has_null_se():
    out = aggregate([record(0, 0, 0.9)])
    assert out[0]["mean_test_accuracy"] == 0.9
    assert out[0]["two_se_test_accuracy"] is None


def test_metrics_csv_round_trip(tmp_path):
    # every optional column both empty and set, floats at full precision; the
    # reprs compare the parsed types too (an int seed read back as 3.0 fails)
    rows = [
        record(3, 0, None),
        MetricsRecord(seed=4, epoch=1, train_loss=0.1 + 0.2, test_accuracy=1 / 3,
                      wall_seconds=2.5e-7, eta_star=1e12, c_mu=0.011000000000000001,
                      newton_iters=1.75, clamped=0.1 + 0.7, variant="adam-surrogate"),
    ]
    path = tmp_path / "rows.csv"
    write_metrics_csv(path, rows)
    assert list(map(repr, read_metrics_csv(path))) == list(map(repr, rows))
    assert pickle.loads(pickle.dumps(rows)) == rows


def test_diagnostic_columns_are_the_step_diagnostics_fields():
    # in order, between wall_seconds and variant; each an optional float
    start = CSV_COLUMNS.index("wall_seconds") + 1
    assert CSV_COLUMNS[start:] == (*DIAGNOSTICS, "variant")
    assert [f.type for f in fields(MetricsRecord)[start:-1]] == ["float | None"] * len(DIAGNOSTICS)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="unknown task"):
        RunConfig(task="mnist", optimizer="adam")
    with pytest.raises(ValueError, match="unknown optimizer"):
        RunConfig(task="synthetic_quadratic", optimizer="lion")
    with pytest.raises(ValueError, match="optimizer"):  # not a key of the name table
        RunConfig(task="synthetic_quadratic", optimizer=["adam"])
    with pytest.raises(ValueError, match="variant"):
        RunConfig(task="synthetic_quadratic", optimizer="adam", variant="fixed-eta")
    with pytest.raises(ValueError):
        RunConfig(task="synthetic_quadratic", optimizer="adam", seeds=())
    with pytest.raises(ValueError, match="batch_size"):
        RunConfig(task="synthetic_quadratic", optimizer="adam", batch_size=0)
    with pytest.raises(ValueError, match="eval_every"):
        RunConfig(task="fashion_mnist_mlp", optimizer="adam", eval_every=0)
    # counts and seeds must be integers (a bool is not one; a seed may be 0)
    # in the float range, the two tables dicts and the directories paths
    bad_settings = (
        ("epochs", 2.5), ("epochs", True), ("epochs", "5"), ("batch_size", 2.5),
        ("eval_every", 1.5), ("seeds", (1.7,)), ("seeds", (-1,)), ("seeds", (True,)),
        ("seeds", 5), ("seeds", (3, 3)), ("seeds", [0, np.int64(0)]), ("epochs", 10**400),
        ("hyperparams", 5), ("task_params", [1]),
        ("out_dir", 5), ("data_dir", ["data"]), ("variant", []), ("preset", []),
        ("preset", {}), ("task", ["fashion_mnist_mlp"]),
    )
    for key, value in bad_settings:
        with pytest.raises(ValueError, match=key):
            RunConfig(**{"task": "synthetic_quadratic", "optimizer": "adam",
                         "hyperparams": {"learning_rate": 0.1}, key: value})
    cfg = RunConfig(task="synthetic_quadratic", optimizer="adam",
                    hyperparams={"learning_rate": 0.1}, seeds=[np.int64(0), 7],
                    epochs=np.int64(3))
    assert cfg.seeds == (0, 7) and all(type(s) is int for s in cfg.seeds)
    assert type(cfg.epochs) is int
    with pytest.raises(ValueError, match="steps"):
        RunConfig(task="synthetic_quadratic", optimizer="adam", task_params={"steps": 5})
    with pytest.raises(ValueError, match="noise_scale"):
        RunConfig(task="fashion_mnist_mlp", optimizer="adam", task_params={"noise_scale": 1})
    # hyperparams must be fields of the optimizer's config, after the preset
    # merge; the fields the harness sets itself are not settable
    bad_hyperparams = (
        ("trust_region", None, {"learning_rate": 0.1}, "learning_rate"),
        ("adam", None, {"epsilon": 0.01}, "epsilon"),
        ("sgd", None, {"beta": 0.9}, "beta"),
        ("adamw", None, {"kind": "adam"}, "kind"),  # not a field: the name picks the class
        ("trust_region", None, {"mode": "fixed-eta"}, "mode"),
        ("trust_region", None, {"schedule_milestones": (1,)}, "schedule_milestones"),
        ("trust_region", None, {"adam_eps": 1e-6}, "adam_eps"),  # Adam's, not the surrogate's
        ("adam", "mnist_mlp", {}, "no preset"),
        # a field the chosen optimizer never reads: plain Adam would run silently
        ("adam", None, {"learning_rate": 0.1, "momentum": 0.9}, "momentum is never read"),
        ("adamw", "cifar10_cnn", {"momentum": 0.0}, "momentum is never read"),
        ("sgd", None, {"learning_rate": 0.1, "beta1": 0.9}, "beta1 is never read"),
        ("sgd", None, {"learning_rate": 0.1, "beta2": 0.9}, "beta2 is never read"),
        ("sgd", "cifar10_cnn", {"adam_eps": 1e-6}, "adam_eps is never read"),
    )
    with pytest.raises(ValueError, match="unknown variant 'x'"):  # before its optimizer's rule
        RunConfig(task="synthetic_quadratic", optimizer="adam", variant="x",
                  hyperparams={"learning_rate": 0.1})
    for optimizer, preset, hp, message in bad_hyperparams:
        with pytest.raises(ValueError, match=message):
            RunConfig(task="synthetic_quadratic", optimizer=optimizer, preset=preset,
                      hyperparams=hp)
    RunConfig(task="synthetic_quadratic", optimizer="trust_region", preset="cifar10_cnn",
              hyperparams={"fixed_eta": 1.0})
    RunConfig(task="synthetic_quadratic", optimizer="sgd",
              hyperparams={"learning_rate": 0.1, "momentum": 0.9, "lr_decay_factor": 0.5})
    bad_values = (
        ("steps_per_epoch", 0), ("steps_per_epoch", 2.5), ("n", 0), ("n", -3),
        ("noise_scale", -1.0), ("noise_scale", float("nan")), ("noise_scale", float("inf")),
        ("diag_range", [0.1, 10.0]),  # a constant of the quadratic, not a setting
    )
    for key, value in bad_values:
        with pytest.raises(ValueError, match=key):
            RunConfig(task="synthetic_quadratic", optimizer="adam", task_params={key: value})
    # every key the quadratic reads is accepted, at its edge values
    edge = {"n": 1, "steps_per_epoch": 1, "noise_scale": 0.0}
    assert set(edge) == set(inspect.signature(harness._QuadraticModel).parameters) - {
        "batch_size", "seed"}
    RunConfig(task="synthetic_quadratic", optimizer="adam", task_params=edge,
              hyperparams={"learning_rate": 0.1})


@pytest.mark.parametrize("task", list(harness.TASKS))
def test_every_task_judges_its_task_params_without_reading_a_file(task, tmp_path):
    # each task's model is built for seed 0 when the config is; a dataset read
    # from this data_dir would raise FileNotFoundError, not the ValueError
    settings = dict(task=task, optimizer="adam", hyperparams={"learning_rate": 0.1},
                    data_dir=str(tmp_path / "missing"))
    RunConfig(**settings, task_params={})
    with pytest.raises(ValueError) as raised:
        RunConfig(**settings, task_params={"widths": 5})
    assert str(raised.value) == f"task_params: {task} got an unexpected keyword argument 'widths'"


def test_every_shipped_preset_and_config_loads():
    for optimizer in OPTIMIZERS:
        for task in presets.TASKS:
            RunConfig(task="synthetic_quadratic", optimizer=optimizer, preset=task)
    for path in sorted(CONFIGS.glob("*.json")):
        RunConfig.from_json(path)


def test_run_config_checks_optimizer_values():
    # the optimizer's config is built with the RunConfig, not per seed in run()
    bad = (
        ("trust_region", "fixed-eta", {}, "fixed_eta"),
        ("trust_region", "standard", {"epsilon": -1.0}, "epsilon"),
        ("trust_region", "standard", {"epsilon": "big"}, "epsilon"),
        ("adam", "standard", {}, "learning_rate"),
        ("sgd", "standard", {"learning_rate": 0.1, "weight_decay": float("nan")},
         "weight_decay"),
    )
    for optimizer, variant, hp, message in bad:
        with pytest.raises(ValueError, match=message):
            RunConfig(task="synthetic_quadratic", optimizer=optimizer, variant=variant,
                      hyperparams=hp)
    cfg = RunConfig(task="synthetic_quadratic", optimizer="sgd", epochs=4,
                    hyperparams={"learning_rate": 0.1})
    opt_cfg = cfg.optimizer_config()
    assert isinstance(opt_cfg, BaselineConfig)
    assert opt_cfg.schedule_milestones == cfg.effective_milestones == (2, 3)


def test_run_checks_a_config_edited_after_construction(tmp_path):
    cfg = RunConfig(task="fashion_mnist_mlp", optimizer="trust_region",
                    data_dir=str(tmp_path / "nowhere"), out_dir=str(tmp_path / "runs"))
    cfg.hyperparams["epsilon"] = -1.0
    with pytest.raises(ValueError, match="epsilon"):  # not the missing data's OSError
        run(cfg)
    assert not (tmp_path / "runs").exists()


def _milestones_of(cls, milestones):
    """The milestones each config class stores, given `milestones`."""
    if cls is RunConfig:
        return RunConfig(task="synthetic_quadratic", optimizer="adam",
                         hyperparams={"learning_rate": 0.1}, milestones=milestones).milestones
    if cls is TrustRegionConfig:
        return TrustRegionConfig(schedule_milestones=milestones).schedule_milestones
    return BaselineConfig(learning_rate=0.1, schedule_milestones=milestones).schedule_milestones


@pytest.mark.parametrize("cls", [RunConfig, TrustRegionConfig, BaselineConfig],
                         ids=lambda cls: cls.__name__)
def test_milestones_follow_one_rule(cls):
    for milestones in ((3, 1), (1, 1), (0, 2), (-2,), (1.5,), (True,), (1, 2.0), 3):
        with pytest.raises(ValueError, match="milestones"):
            _milestones_of(cls, milestones)
    stored = _milestones_of(cls, [np.int64(1), 4])
    assert stored == (1, 4) and all(type(m) is int for m in stored)
    assert _milestones_of(cls, ()) == ()


# every numeric field of the optimizer configs, with a finite value outside its rule
NUMERIC_FIELDS = {
    TrustRegionConfig: {
        "epsilon": 0.0, "rho": -1.0, "q": -1e-9, "r": 0.0, "nu": 0.0, "lambda_prec": -1.0,
        "sigma2_init": 0.0, "p0": -1.0, "weight_decay": -0.1, "epsilon_decay_factor": 0.0,
        "fixed_eta": -1.0,
    },
    BaselineConfig: {
        "learning_rate": 0.0, "momentum": 1.0, "beta1": -0.1, "beta2": 1.0,
        "adam_eps": 0.0, "weight_decay": -1.0, "lr_decay_factor": 0.0,
    },
}
REQUIRED = {TrustRegionConfig: {}, BaselineConfig: {"learning_rate": 0.1}}


def test_numeric_field_list_is_complete():
    for cls, bad in NUMERIC_FIELDS.items():
        assert set(bad) == {f.name for f in fields(cls) if f.type in ("float", "float | None")}


@pytest.mark.parametrize("cls, name, value", [
    (cls, name, value)
    for cls, bad in NUMERIC_FIELDS.items() for name, out_of_range in bad.items()
    for value in (float("nan"), float("inf"), -float("inf"), 10**400, out_of_range, "1.0", True)
], ids=lambda v: v.__name__ if isinstance(v, type) else repr(v))
def test_optimizer_config_rejects_bad_numbers(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{**REQUIRED[cls], name: value})


def test_optimizer_configs_accept_their_edge_values():
    TrustRegionConfig(rho=0, q=0.0, lambda_prec=0.0, weight_decay=0.0, fixed_eta=0.0,
                      nu=np.float32(0.5), epsilon=np.float64(1e-300))
    BaselineConfig(learning_rate=1, momentum=0.0, weight_decay=0, beta1=0.0, beta2=0.0)


def test_default_milestones_at_half_and_three_quarters():
    cfg = RunConfig(task="synthetic_quadratic", optimizer="trust_region", epochs=120)
    assert cfg.effective_milestones == (60, 90)
    cfg = RunConfig(task="synthetic_quadratic", optimizer="trust_region", epochs=5)
    assert cfg.effective_milestones == (2, 3)
    cfg = RunConfig(
        task="synthetic_quadratic", optimizer="trust_region", epochs=5, milestones=()
    )
    assert cfg.effective_milestones == ()


def test_preset_resolution_with_override():
    cfg = RunConfig(
        task="fashion_mnist_cnn",
        optimizer="trust_region",
        preset="fashion_mnist_cnn",
        hyperparams={"epsilon": 0.5},
    )
    hp = cfg.resolved_hyperparams()
    assert hp["epsilon"] == 0.5  # override wins
    assert hp["rho"] == 0.058657
    assert hp["q"] == 0.017393


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "task": "synthetic_quadratic", "optimizer": "adam",
        "hyperparams": {"learning_rate": 0.01}, "seeds": [0, 1], "epochs": 3,
    }))
    cfg = RunConfig.from_json(path)
    assert cfg.seeds == (0, 1) and cfg.epochs == 3
    path.write_text(json.dumps({"task": "synthetic_quadratic", "optimizer": "adam",
                                "bogus_key": 1}))
    with pytest.raises(ValueError, match="bogus_key"):
        RunConfig.from_json(path)


# ---------------------------------------------------------------------------
# run on the synthetic task
# ---------------------------------------------------------------------------

def test_synthetic_run_schema(tmp_path):
    result = run(synth_config(tmp_path))
    rows = read_metrics_csv(result.csv_path)
    assert len(rows) == 4  # 2 seeds x 2 epochs
    for r in rows:
        assert r.eta_star is not None and r.c_mu is not None
        assert r.test_accuracy is None
        assert r.variant == "standard"
    assert result.summary["final"]["n_seeds"] == 2
    assert result.summary["failed_seeds"] == {}


def test_the_summary_records_the_machine(tmp_path, monkeypatch):
    # read from the process, not the config: the CPUs it may use and the
    # BLAS thread variables (conftest.py sets all three; unset reads null)
    monkeypatch.setattr(harness.baselines, "_cpus", lambda: 3)
    monkeypatch.delenv("MKL_NUM_THREADS")
    result = run(synth_config(tmp_path))
    summary = json.loads(result.summary_path.read_text())
    assert summary == result.summary
    blas = summary["machine"].pop("blas")
    assert summary["machine"] == {
        "python": "{}.{}.{}".format(*sys.version_info), "numpy": np.__version__,
        "platform": sys.platform, "cpus": 3,
        "blas_threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                         "MKL_NUM_THREADS": None}}
    # the BLAS numpy was built with, which numpy < 1.26 cannot name
    assert blas == harness.machine()["blas"]
    if np.lib.NumpyVersion(np.__version__) >= "1.26.0":
        assert isinstance(blas["name"], str) and isinstance(blas["version"], str)
    monkeypatch.setattr(np, "__version__", "1.25.2")
    assert harness.machine()["blas"] is None


def test_baseline_run_emits_null_eta(tmp_path):
    result = run(synth_config(tmp_path, optimizer="adam"))
    rows = read_metrics_csv(result.csv_path)
    assert all(getattr(r, name) is None for r in rows for name in DIAGNOSTICS)


def test_run_determinism_modulo_wall_clock(tmp_path):
    r1 = run(synth_config(tmp_path, out_dir=str(tmp_path / "a")))
    r2 = run(synth_config(tmp_path, out_dir=str(tmp_path / "b")))
    rows1, rows2 = read_metrics_csv(r1.csv_path), read_metrics_csv(r2.csv_path)
    for a, b in zip(rows1, rows2):
        assert replace(a, wall_seconds=0.0) == replace(b, wall_seconds=0.0)


# every column but wall_seconds of the shipped quadratic config at seed 0,
# epochs 0 and 1, bitwise, for each trust-region variant and for Adam at
# learning rate 0.01: a change that claims unchanged arithmetic keeps them
QUADRATIC_TRAJECTORY = {
    "standard": [
        (0, 0, 4.823336891172805, None, 4.075604156858167, 0.010139232941987947, 0.035,
         0.0, "standard"),
        (0, 1, 0.018363529556156187, None, 0.18728256440839416, 0.010321387564726834, 0.065,
         0.0, "standard"),
    ],
    "fixed-eta": [
        (0, 0, 13.575844445328544, None, 50.0, 0.000388449202014186, 0.0, 0.0,
         "fixed-eta"),
        (0, 1, 7.038227815745214, None, 50.0, 0.00023946637882705943, 0.0, 0.0,
         "fixed-eta"),
    ],
    "adam-surrogate": [
        (0, 0, 6.325073460652471, None, 4.669272182078384, 0.010012017686655977, 0.0,
         0.0, "adam-surrogate"),
        (0, 1, 0.0481298059329859, None, 0.4103971184957897, 0.01006814794688793, 0.0,
         0.0, "adam-surrogate"),
    ],
    "adam": [
        (0, 0, 4.957575392742729, None, None, None, None, None, "standard"),
        (0, 1, 0.1395641970649663, None, None, None, None, None, "standard"),
    ],
}


@pytest.mark.parametrize("case", QUADRATIC_TRAJECTORY)
def test_shipped_quadratic_config_trajectory_is_pinned(tmp_path, case):
    config = RunConfig.from_json(CONFIGS / "synthetic_quadratic_trust_region.json")
    if case == "adam":
        config = replace(config, optimizer="adam", hyperparams={"learning_rate": 0.01})
    else:
        config = replace(config, variant=case)
    config = replace(config, seeds=(0,), epochs=2, out_dir=str(tmp_path))
    rows = read_metrics_csv(run(config).csv_path)
    pinned = [c for c in CSV_COLUMNS if c != "wall_seconds"]
    assert [tuple(getattr(r, c) for c in pinned) for r in rows] == QUADRATIC_TRAJECTORY[case]


@pytest.mark.parametrize("variant", MODES)
def test_summarize_matches_shipped_summary(tmp_path, variant):
    # floats are written with full repr, so the CSV reproduces the summary exactly
    config = RunConfig.from_json(CONFIGS / "synthetic_quadratic_trust_region.json")
    result = run(replace(config, variant=variant, out_dir=str(tmp_path)))
    recomputed = summarize(tmp_path)[result.csv_path.name]
    # the statistics from the CSV; the machine and config hash from the summary
    assert recomputed == {key: result.summary[key]
                          for key in ("per_epoch", "final", "machine", "config_sha256")}


def test_the_config_hash_follows_what_the_run_computes(tmp_path):
    config = synth_config(tmp_path)
    assert config.sha256() == replace(config, out_dir=str(tmp_path / "elsewhere")).sha256()
    assert config.sha256() != replace(config, hyperparams={"epsilon": 0.02}).sha256()
    assert config.sha256() != replace(config, seeds=(1, 0)).sha256()
    # a preset is its hyperparameters, and milestones are the ones the run uses
    preset = replace(config, optimizer="adam", preset="fashion_mnist_cnn", milestones=None,
                     epochs=4)
    spelled = replace(preset, preset=None, hyperparams=preset.resolved_hyperparams(),
                      milestones=preset.effective_milestones)
    assert preset.sha256() == spelled.sha256()
    assert len(config.sha256()) == 64
    assert run(config).summary["config_sha256"] == config.sha256()


def test_summarize_reads_a_summary_only_when_one_is_beside_the_csv(tmp_path):
    result = run(synth_config(tmp_path))
    (tmp_path / "runs" / "copy.csv").write_bytes(result.csv_path.read_bytes())
    out = summarize(tmp_path / "runs")
    assert out["copy.csv"].keys() == {"per_epoch", "final"}
    assert out[result.csv_path.name]["machine"] == result.summary["machine"]
    result.summary_path.write_text("{")
    with pytest.raises(ValueError, match=f"^{re.escape(str(result.summary_path))}: Expecting"):
        summarize(tmp_path / "runs")


def _broken_filter(*args, **kwargs):
    raise FilterConsistencyError("covariance not positive definite")


def _nan_mean_solver(*args, **kwargs):
    res = solve_eta(*args, **kwargs)
    res.mu[0] = np.nan
    return res


def _negative_curvature_variance(a, prev, tr):
    return primal_variance(a - 1e6, prev, tr)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_seed_is_isolated(tmp_path, monkeypatch):
    # noise draws of 1e308 overflow the gradient while the loss stays finite
    overflow = {"steps_per_epoch": 10, "noise_scale": 1e308}
    cases = (
        ("sgd", {"hyperparams": {"learning_rate": 1e30}}, "non-finite loss"),
        # no later step sees the point the last one makes
        ("sgd", {"hyperparams": {"learning_rate": 1e308}, "epochs": 1,
                 "task_params": {"steps_per_epoch": 1}}, "non-finite point after the last step"),
        ("adam", {"hyperparams": {"learning_rate": 0.05}, "task_params": overflow},
         "non-finite point or gradient at step"),
        ("trust_region", {"task_params": overflow}, "non-finite point or gradient at step"),
        ("trust_region", {"variant": "adam-surrogate", "task_params": overflow},
         "non-finite point or gradient at step"),
        ("trust_region", {"fault": ("filter_update", _broken_filter)}, "positive definite"),
        # a NaN mean fails at the next step's loss; a negative curvature fails in
        # primal_variance, which raises NonFiniteError
        ("trust_region", {"fault": ("solve_eta", _nan_mean_solver)}, "non-finite loss"),
        ("trust_region", {"fault": ("primal_variance", _negative_curvature_variance)},
         "non-positive or NaN"),
        # with eta = 0 and no prior a slope clamped to 0 zeroes a denominator
        ("trust_region", {"variant": "fixed-eta",
                          "hyperparams": {"fixed_eta": 0.0, "rho": 0.0},
                          "task_params": {"steps_per_epoch": 10, "noise_scale": 5.0}},
         "non-positive denominator"),
    )
    for i, (optimizer, kw, message) in enumerate(cases):
        with monkeypatch.context() as m:
            if "fault" in kw:
                seam, fault = kw.pop("fault")
                m.setattr(f"kltrust.optimizer.{seam}", fault)
            cfg = synth_config(tmp_path, optimizer=optimizer, seeds=(0, 1),
                               out_dir=str(tmp_path / f"case{i}"), **kw)
            result = run(cfg)
        failed = result.summary["failed_seeds"]
        assert set(failed) == {"0", "1"}, (optimizer, kw)
        assert all(message in reason for reason in failed.values()), failed
    cfg_mixed = synth_config(tmp_path, optimizer="sgd", seeds=(0,),
                             hyperparams={"learning_rate": 0.05},
                             out_dir=str(tmp_path / "ok"))
    ok = run(cfg_mixed)
    assert ok.summary["failed_seeds"] == {}


@pytest.mark.parametrize("r,failed", [(1e-15, set()), (1e-16, {"0", "1"})],
                         ids=["1e-15", "1e-16"])
def test_a_real_filter_fault_fails_the_seed_not_the_grid(tmp_path, r, failed):
    # on this quadratic an observation noise of 1e-16 breaks the filter's
    # covariance within 30 steps, and 1e-15 does not
    cfg = RunConfig(task="synthetic_quadratic", optimizer="trust_region", epochs=1,
                    seeds=(0, 1), milestones=(), hyperparams={"r": r},
                    task_params={"n": 1000, "steps_per_epoch": 30},
                    out_dir=str(tmp_path / "runs"))
    result = run(cfg)
    assert result.summary["failed_seeds"] == dict.fromkeys(
        failed, "covariance not positive definite or state non-finite")
    # the fault comes within the one epoch, so a failed seed leaves no row
    assert {str(row.seed) for row in read_metrics_csv(result.csv_path)} == {"0", "1"} - failed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_evaluation_loss_fails_the_seed(tmp_path):
    # one step to a finite point (max |w| about 4e307) whose test logits are
    # NaN: they would argmax to class 0 and report an accuracy of 0.125
    data = _load_perfbench("idxgen").write_fashion_mnist(tmp_path / "data", 0, 256, 128)
    cfg = RunConfig(task="fashion_mnist_mlp", optimizer="sgd",
                    hyperparams={"learning_rate": 1e308}, epochs=1, batch_size=256,
                    seeds=(0,), milestones=(), data_dir=str(data),
                    out_dir=str(tmp_path / "runs"))
    result = run(cfg)
    assert result.summary["failed_seeds"] == {
        "0": "non-finite evaluation loss (seed 0, epoch 0)"}
    assert read_metrics_csv(result.csv_path) == []  # the epoch's row is not kept


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_completed_epochs_survive_late_divergence(tmp_path):
    # growth ~1e7 per step overflows the loss midway through epoch 2
    cfg = synth_config(
        tmp_path, optimizer="sgd", seeds=(0,), epochs=3,
        hyperparams={"learning_rate": 1e6},
    )
    result = run(cfg)
    assert "0" in result.summary["failed_seeds"]
    epochs_present = [r.epoch for r in read_metrics_csv(result.csv_path)]
    assert epochs_present  # earlier epochs of the failed seed are retained
    assert max(epochs_present) < 3


def test_a_seed_that_fails_midway_keeps_its_finished_epochs(tmp_path, monkeypatch):
    # seed 1's loss turns NaN in epoch 1: its epoch-0 row stays in the CSV, and
    # from epoch 1 on the summary's means cover the surviving seed alone
    loss_and_grad = harness._QuadraticModel.loss_and_grad

    def failing(model, params, step):
        loss, grad = loss_and_grad(model, params, step)
        return (np.nan if model.task.seed == 1 and step >= model.steps_per_epoch else loss), grad

    monkeypatch.setattr(harness._QuadraticModel, "loss_and_grad", failing)
    result = run(synth_config(tmp_path, seeds=(0, 1), epochs=3))
    rows = read_metrics_csv(result.csv_path)
    assert [(r.seed, r.epoch) for r in rows] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert result.summary["failed_seeds"] == {"1": "non-finite loss (seed 1, epoch 1)"}
    per_epoch = result.summary["per_epoch"]
    assert [e["n_seeds"] for e in per_epoch] == [2, 1, 1]
    assert per_epoch[0]["mean_train_loss"] == float(np.mean([rows[0].train_loss,
                                                             rows[3].train_loss]))
    assert [e["mean_train_loss"] for e in per_epoch[1:]] == [r.train_loss for r in rows[1:3]]


def test_an_out_dir_that_cannot_be_made_fails_before_any_seed_trains(tmp_path, monkeypatch,
                                                                     capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    trained = []
    monkeypatch.setattr(harness, "_run_seed", lambda *args: trained.append(args[-2]))
    with pytest.raises(OSError):
        run(synth_config(tmp_path, out_dir=str(blocker / "runs")))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": "synthetic_quadratic", "optimizer": "trust_region", "epochs": 1,
        "milestones": [], "task_params": {"steps_per_epoch": 5},
        "out_dir": str(blocker / "runs")}))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert trained == []


def test_an_interrupted_grid_keeps_the_seeds_it_finished(tmp_path, monkeypatch, capsys):
    # seed 2 of 3 is interrupted in its second epoch, after its first epoch's row
    loss_and_grad = harness._QuadraticModel.loss_and_grad

    def interrupted(model, params, step):
        if model.task.seed == 2 and step >= model.steps_per_epoch:
            raise KeyboardInterrupt
        return loss_and_grad(model, params, step)

    with monkeypatch.context() as m:
        m.setattr(harness._QuadraticModel, "loss_and_grad", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(synth_config(tmp_path, seeds=(0, 1, 2)))
    runs = tmp_path / "runs"
    csv_name = "synthetic_quadratic_trust_region_standard.csv"
    assert [p.name for p in runs.iterdir()] == [csv_name]  # no summary, no temp file
    whole = run(synth_config(tmp_path, seeds=(0, 1), out_dir=str(tmp_path / "whole")))

    def timeless(path):
        return [replace(r, wall_seconds=0.0) for r in read_metrics_csv(path)]

    assert timeless(runs / csv_name) == timeless(whole.csv_path)
    assert cli_main(["summarize", "--in", str(runs)]) == 0
    summary = json.loads(capsys.readouterr().out)[csv_name]
    assert summary["per_epoch"] == whole.summary["per_epoch"]


def test_an_interrupted_write_leaves_the_last_whole_csv(tmp_path, monkeypatch):
    write = harness.write_metrics_csv

    def cut_at_seed_1(path, rows):
        write(path, rows)
        if any(r.seed == 1 for r in rows):
            raise KeyboardInterrupt

    monkeypatch.setattr(harness, "write_metrics_csv", cut_at_seed_1)
    with pytest.raises(KeyboardInterrupt):
        run(synth_config(tmp_path, seeds=(0, 1)))
    (csv_path,) = (tmp_path / "runs").iterdir()
    assert [(r.seed, r.epoch) for r in read_metrics_csv(csv_path)] == [(0, 0), (0, 1)]


def _quadratic(seed):
    n = 10
    return SyntheticQuadraticTask(
        theta_star=np.resize([0.5, -0.5], n),
        diag=np.logspace(np.log10(0.1), np.log10(10.0), n),
        noise_scale=0.5,
        seed=seed,
    ), np.random.default_rng([seed, 90210]).normal(0.0, 1.0, n)


def test_no_step_replays_the_initial_point_as_noise():
    # the initial point is drawn from the generator keyed [seed, 90210]; a step
    # whose noise came from the same key would add that vector to theta*
    model = harness._QuadraticModel(1, 3, noise_scale=0.5)
    task = model.task
    _, grad = model.loss_and_grad(np.zeros(model.n_params), 90210)
    noise = (-grad / task.diag - task.theta_star) / task.noise_scale
    assert not np.allclose(noise, model.init_params(3))


@pytest.mark.parametrize("optimizer, cls, hp", [
    ("sgd", SGDMomentum, {"learning_rate": 0.05, "momentum": 0.9, "weight_decay": 0.01}),
    ("adam", Adam, {"learning_rate": 0.05, "weight_decay": 0.01}),
    ("adamw", AdamW, {"learning_rate": 0.05, "weight_decay": 0.01}),
], ids=["sgd", "adam", "adamw"])
def test_harness_matches_hand_loop_baseline(tmp_path, optimizer, cls, hp):
    cfg = synth_config(tmp_path, optimizer=optimizer, seeds=(3,), epochs=3,
                       milestones=(1,), hyperparams=hp)
    rows = read_metrics_csv(run(cfg).csv_path)
    task, mu0 = _quadratic(3)
    opt = cls(10, BaselineConfig(schedule_milestones=(1,), **hp), mu0)
    step = 0
    assert [r.epoch for r in rows] == [0, 1, 2]
    for row in rows:
        losses = []
        for _ in range(10):
            grad = synthetic_grad(task, opt.mean, step, 4)
            losses.append(task.loss(opt.mean))
            opt.step(grad)
            step += 1
        opt.on_epoch_end()
        assert row.train_loss == float(np.mean(losses))
        assert all(getattr(row, name) is None for name in DIAGNOSTICS)


def test_harness_matches_hand_loop_trust_region(tmp_path):
    cfg = synth_config(tmp_path, seeds=(3,), epochs=3, milestones=(1,),
                       hyperparams={"epsilon": 0.02})
    rows = read_metrics_csv(run(cfg).csv_path)
    task, mu0 = _quadratic(3)
    opt = TrustRegionOptimizer(
        10, TrustRegionConfig(epsilon=0.02, schedule_milestones=(1,)), mu0
    )
    step = 0
    assert [r.epoch for r in rows] == [0, 1, 2]
    for row in rows:
        losses, diags = [], []
        for _ in range(10):
            grad = synthetic_grad(task, opt.mean, step, 4)
            losses.append(task.loss(opt.mean))
            diags.append(opt.step(grad))
            step += 1
        opt.on_epoch_end()
        assert row.train_loss == float(np.mean(losses))
        for name in DIAGNOSTICS:
            assert getattr(row, name) == float(np.mean([getattr(d, name) for d in diags]))
    assert any(row.clamped > 0 for row in rows)  # the column is not trivially 0


@pytest.mark.parametrize("optimizer, name, value", [
    ("trust_region", "epsilon", 0.02), ("sgd", "learning_rate", 0.05),
    ("adam", "learning_rate", 0.05), ("adamw", "learning_rate", 0.05),
], ids=["trust_region", "sgd", "adam", "adamw"])
def test_a_milestone_leaves_the_config_every_seed_shares(tmp_path, monkeypatch,
                                                         optimizer, name, value):
    # a seed that wrote its decayed bound or rate into the shared config would
    # start the next seed at that value
    shared, run_seed = [], harness._run_seed

    def recording(config, opt_config, *args):
        shared.append(opt_config)
        return run_seed(config, opt_config, *args)

    monkeypatch.setattr(harness, "_run_seed", recording)
    kw = dict(optimizer=optimizer, epochs=3, milestones=(1,), hyperparams={name: value})
    both = run(synth_config(tmp_path, seeds=(0, 1), out_dir=str(tmp_path / "both"), **kw))
    alone = run(synth_config(tmp_path, seeds=(1,), out_dir=str(tmp_path / "alone"), **kw))

    def timeless(rows):
        return [replace(r, wall_seconds=0.0) for r in rows]

    assert both.summary["failed_seeds"] == {} and alone.summary["failed_seeds"] == {}
    seed1 = [r for r in read_metrics_csv(both.csv_path) if r.seed == 1]
    assert timeless(seed1) == timeless(read_metrics_csv(alone.csv_path))
    assert shared[0] is shared[1] and [getattr(c, name) for c in shared] == [value] * 3


def test_every_traced_solve_reads_the_bound_of_its_epoch(tmp_path):
    # the benchmark's solve_eta span reads epsilon from its 4th argument
    spans = _load_perfbench("spans")
    tracer = spans.Tracer()
    _, _, restore = spans.install(tracer)
    try:
        run(synth_config(tmp_path, seeds=(0,), epochs=3, milestones=(1,),
                         hyperparams={"epsilon": 0.02}))
    finally:
        restore()
    eps1 = 0.02 * TrustRegionConfig().epsilon_decay_factor
    traced = [s[4]["epsilon"] for s in tracer.spans if s[0] == "trust_region.solve_eta"]
    assert traced == [0.02] * 10 + [eps1] * 20


def test_config_variant_tags_rows_and_summary(tmp_path):
    base = synth_config(tmp_path, hyperparams={"fixed_eta": 5.0})
    result = run(replace(base, variant="fixed-eta"))
    rows = read_metrics_csv(result.csv_path)
    assert all(r.variant == "fixed-eta" for r in rows)
    assert result.summary["variant"] == "fixed-eta"
    # eta trace is constant in fixed-eta mode, varying in standard mode
    std_rows = read_metrics_csv(run(base).csv_path)
    assert all(r.eta_star == 5.0 for r in rows)
    assert len({r.eta_star for r in std_rows}) > 1


def test_fixed_eta_variant_requires_value(tmp_path):
    with pytest.raises(ValueError, match="fixed_eta"):
        synth_config(tmp_path, variant="fixed-eta")


# ---------------------------------------------------------------------------
# dataset task end-to-end on synthetic IDX fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def fake_fashion_root(tmp_path):
    root = tmp_path / "data" / "fashion_mnist"
    root.mkdir(parents=True)
    rng = np.random.default_rng(0)
    for prefix, n in (("train", 96), ("t10k", 32)):
        imgs = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        with open(root / f"{prefix}-images-idx3-ubyte", "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, n, 28, 28))
            f.write(imgs.tobytes())
        with open(root / f"{prefix}-labels-idx1-ubyte", "wb") as f:
            f.write(struct.pack(">II", 0x00000801, n))
            f.write(labels.tobytes())
    return tmp_path / "data"


def _write_cifar(root, files, label_bytes, classes, records=4):
    """CIFAR binaries of `records` random records each; the fine label is the
    last label byte."""
    root.mkdir(parents=True)
    rng = np.random.default_rng(1)
    for name in files:
        labels = rng.integers(0, classes, size=(records, label_bytes), dtype=np.uint8)
        pixels = rng.integers(0, 256, size=(records, 3 * 32 * 32), dtype=np.uint8)
        (root / name).write_bytes(np.hstack([labels, pixels]).tobytes())


# the CIFAR files each task reads under data_dir; the Fashion-MNIST tasks
# read the fixture's IDX files
CIFAR_FILES = {
    "cifar10_cnn": ("cifar10", [f"data_batch_{i}.bin" for i in range(1, 6)]
                    + ["test_batch.bin"], 1, 10),
    "cifar100_cnn": ("cifar100", ["train.bin", "test.bin"], 2, 100),
}


@pytest.mark.parametrize("task", ["fashion_mnist_mlp", "fashion_mnist_cnn", "cifar10_cnn",
                                  "cifar100_cnn"])
def test_dataset_task_end_to_end(fake_fashion_root, tmp_path, task):
    if task in CIFAR_FILES:
        subdir, files, label_bytes, classes = CIFAR_FILES[task]
        _write_cifar(fake_fashion_root / subdir, files, label_bytes, classes)
    cfg = RunConfig(
        task=task,
        optimizer="trust_region",
        epochs=1,
        batch_size=32,
        seeds=(0,),
        milestones=(),
        out_dir=str(tmp_path / "runs"),
        data_dir=str(fake_fashion_root),
    )
    result = run(cfg)
    assert result.summary["failed_seeds"] == {}
    rows = read_metrics_csv(result.csv_path)
    assert len(rows) == 1
    assert 0.0 <= rows[0].test_accuracy <= 1.0
    assert rows[0].eta_star is not None


def test_eval_cadence_controls_accuracy_column(fake_fashion_root, tmp_path):
    cfg = RunConfig(
        task="fashion_mnist_mlp", optimizer="adam",
        hyperparams={"learning_rate": 0.001},
        epochs=3, batch_size=32, seeds=(0,), milestones=(), eval_every=2,
        out_dir=str(tmp_path / "runs"), data_dir=str(fake_fashion_root),
    )
    rows = read_metrics_csv(run(cfg).csv_path)
    assert rows[0].test_accuracy is None
    assert rows[1].test_accuracy is not None
    assert rows[2].test_accuracy is not None  # final epoch always evaluated


def test_data_dir_env_variable(fake_fashion_root, tmp_path, monkeypatch):
    monkeypatch.setenv("KLTRUST_DATA_DIR", str(fake_fashion_root))
    cfg = RunConfig(
        task="fashion_mnist_mlp", optimizer="adam",
        hyperparams={"learning_rate": 0.001},
        epochs=1, batch_size=32, seeds=(0,), milestones=(),
        out_dir=str(tmp_path / "runs"),
    )
    assert cfg.resolved_data_dir() == fake_fashion_root
    result = run(cfg)
    assert read_metrics_csv(result.csv_path)


def test_missing_dataset_raises(tmp_path):
    cfg = RunConfig(
        task="fashion_mnist_mlp", optimizer="adam",
        hyperparams={"learning_rate": 0.001},
        data_dir=str(tmp_path / "nowhere"), out_dir=str(tmp_path / "runs"),
    )
    with pytest.raises(FileNotFoundError):
        run(cfg)


# ---------------------------------------------------------------------------
# verify_hparams
# ---------------------------------------------------------------------------

def test_shipped_presets_verify_clean():
    report = verify_hparams()
    assert report["ok"] is True
    assert report["mismatches"] == []
    assert report["checked"] == 5 * 6 + 3 * 6 + 4 * 6 + 4 * 6


def test_tampered_preset_is_reported(monkeypatch):
    import copy

    tampered = copy.deepcopy(presets.TUNED)
    tampered["adam"]["cifar10_cnn"]["learning_rate"] = 0.123
    monkeypatch.setattr(presets, "TUNED", tampered)
    report = verify_hparams()
    assert report["ok"] is False
    assert [m["key"] for m in report["mismatches"]] == ["adam.cifar10_cnn.learning_rate"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_summarize(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": "synthetic_quadratic",
        "optimizer": "trust_region",
        "epochs": 1,
        "batch_size": 2,
        "seeds": [0, 1],
        "milestones": [],
        "task_params": {"steps_per_epoch": 5},
        "out_dir": str(tmp_path / "runs"),
    }))
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "metrics:" in out and "summary:" in out
    csv_path = tmp_path / "runs" / "synthetic_quadratic_trust_region_standard.csv"
    assert {r.seed for r in read_metrics_csv(csv_path)} == {0, 1}
    assert cli_main(["summarize", "--in", str(tmp_path / "runs")]) == 0
    assert "per_epoch" in capsys.readouterr().out


def test_cli_summarize_of_a_directory_without_csvs_is_one_error_line(tmp_path, capsys):
    (tmp_path / "cell_summary.json").write_text("{}")  # a summary alone is not a metrics CSV
    assert cli_main(["summarize", "--in", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: no metrics CSV files under {tmp_path}\n"


@pytest.mark.parametrize("flag,value", [("--seeds", "0,1"), ("--out", "runs"),
                                        ("--variant", "fixed-eta")])
def test_cli_run_takes_no_override_of_its_config(tmp_path, capsys, flag, value):
    # seeds, out_dir and variant are the config's; the CLI does not re-target it
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--config", str(tmp_path / "cfg.json"), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_reports_failed_seeds_on_stderr(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": "synthetic_quadratic", "optimizer": "sgd", "epochs": 1, "seeds": [0, 1],
        "milestones": [], "hyperparams": {"learning_rate": 1e30},
        "task_params": {"steps_per_epoch": 10}, "out_dir": str(tmp_path / "runs"),
    }))
    assert cli_main(["run", "--config", str(cfg_path)]) == 0  # a failed seed is a result
    out, err = capsys.readouterr()
    assert "metrics:" in out and "summary:" in out
    assert err.startswith("failed seeds: {'0': 'non-finite loss") and err.count("\n") == 1
    assert "'1': 'non-finite loss" in err


HEADER = ",".join(CSV_COLUMNS)
NO_DIAGNOSTICS = "," * len(DIAGNOSTICS)  # a baseline row's empty diagnostic cells
BASELINE_ROW = f"0,0,1.0,,0.5{NO_DIAGNOSTICS},standard\n"

# a CSV summarize cannot read, and where its error line must point
MALFORMED_CSVS = {
    "columns": (b"a,b\n1,2\n", "line 1: unexpected columns ['a', 'b']"),
    "epoch-word": (f"{HEADER}\n0,zero,1.0,,0.5{NO_DIAGNOSTICS},standard\n".encode(),
                   "line 2: invalid literal for int() with base 10: 'zero'"),
    "utf16": (b"\xff\xfe" + HEADER.encode("utf-16-le"),
              "line 1: not UTF-8 text (invalid start byte)"),
    "latin1-cell": (f"{HEADER}\n{BASELINE_ROW}0,1,1.0,,0.5{NO_DIAGNOSTICS},d\u00e9faut\n"
                    .encode("latin-1"), "line 3: not UTF-8 text (invalid continuation byte)"),
    # a write cut off mid-row, and a row with cells no column names
    "short-row": (f"{HEADER}\n{BASELINE_ROW}0,1,1.0,,0.5".encode(),
                  f"line 3: expected {len(CSV_COLUMNS)} cells, got 5"),
    "long-row": (f"{HEADER}\n0,0,1.0,,0.5{NO_DIAGNOSTICS},standard,EXTRA,9\n".encode(),
                 f"line 2: expected {len(CSV_COLUMNS)} cells, got {len(CSV_COLUMNS) + 2}"),
}


@pytest.mark.parametrize("case", list(MALFORMED_CSVS))
def test_cli_summarize_reports_a_malformed_csv_as_one_error_line(case, tmp_path, capsys):
    data, where = MALFORMED_CSVS[case]
    path = tmp_path / "cell.csv"
    path.write_bytes(data)
    assert cli_main(["summarize", "--in", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}, {where}\n"


# a JSON file kltrust cannot read, and what its error line must say after the path
UNREADABLE_JSON = {
    "not-json": (b"{", "Expecting property name enclosed in double quotes: "
                       "line 1 column 2 (char 1)"),
    "latin1": ('{"task": "d\u00e9faut"}'.encode("latin-1"),
               "'utf-8' codec can't decode byte 0xe9 in position 11: invalid continuation byte"),
    "utf16": (b"\xff\xfe" + "{}".encode("utf-16-le"),
              "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "list": (b"[]", "expected a JSON object, got list"),
    "string": (b'"cell"', "expected a JSON object, got str"),
}


@pytest.mark.parametrize("case", list(UNREADABLE_JSON))
def test_cli_summarize_names_a_summary_it_cannot_read(case, tmp_path, capsys):
    data, what = UNREADABLE_JSON[case]
    (tmp_path / "cell.csv").write_text(f"{HEADER}\n{BASELINE_ROW}")
    path = tmp_path / "cell_summary.json"
    path.write_bytes(data)
    assert cli_main(["summarize", "--in", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {what}\n"


@pytest.mark.parametrize("case", list(UNREADABLE_JSON))
def test_cli_run_names_a_config_it_cannot_read(case, tmp_path, capsys):
    data, what = UNREADABLE_JSON[case]
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    assert cli_main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {what}\n"


def test_cli_rejected_config_is_an_error_line(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    base = {"task": "synthetic_quadratic", "optimizer": "trust_region",
            "out_dir": str(tmp_path / "runs")}
    for bad in ({"hyperparams": {"learning_rate": 0.1}}, {"milestones": [3, 1]},
                {"bogus_key": 1}):
        cfg_path.write_text(json.dumps({**base, **bad}))
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    # an ablation variant of a baseline, repeated seeds, and a config file that is not there
    adam = {**base, "optimizer": "adam", "hyperparams": {"learning_rate": 0.1}}
    for bad in ({"variant": "fixed-eta"}, {"seeds": [0, 0]}):
        cfg_path.write_text(json.dumps({**adam, **bad}))
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert cli_main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.count("error: ") == 3
    assert not (tmp_path / "runs").exists()


def _bad_idx_magic(root):
    path = root / "fashion_mnist" / "train-images-idx3-ubyte"
    path.write_bytes(struct.pack(">I", 0x00000805) + path.read_bytes()[4:])
    return {"task": "fashion_mnist_mlp", "data_dir": str(root)}


def _empty_idx_split(prefix):
    def change(root):
        base = root / "fashion_mnist"
        (base / f"{prefix}-images-idx3-ubyte").write_bytes(struct.pack(">IIII", 0x803, 0, 28, 28))
        (base / f"{prefix}-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x801, 0))
        return {"task": "fashion_mnist_mlp", "data_dir": str(root)}
    return change


# each case's config change, and the word its error line must contain
CLI_BAD_CONFIGS = {
    "no-optimizer": (lambda root: {"optimizer": None}, "optimizer"),
    "epochs-string": (lambda root: {"epochs": "5"}, "epochs"),
    "seeds-int": (lambda root: {"seeds": 5}, "seeds"),
    "seeds-repeated": (lambda root: {"seeds": [1, 0, 1]}, "distinct"),
    "epsilon-string": (lambda root: {"hyperparams": {"epsilon": "big"}}, "epsilon"),
    "task-list": (lambda root: {"task": ["synthetic_quadratic"]}, "task"),
    "task-params-n": (lambda root: {"task_params": {"n": 0}}, "task_params.n"),
    "task-params-unknown": (lambda root: {"task_params": {"steps": 5}}, "steps"),
    "bad-idx-magic": (_bad_idx_magic, "magic"),
    # a split with no records: nothing to train on, or to divide test accuracy by
    "empty-train-split": (_empty_idx_split("train"), "train-images-idx3-ubyte: no records"),
    "empty-test-split": (_empty_idx_split("t10k"), "t10k-images-idx3-ubyte: no records"),
}


@pytest.mark.parametrize("case", list(CLI_BAD_CONFIGS))
def test_cli_bad_config_is_one_error_line(case, fake_fashion_root, tmp_path, capsys):
    change, word = CLI_BAD_CONFIGS[case]
    cfg = {"task": "synthetic_quadratic", "optimizer": "trust_region", "epochs": 1,
           "milestones": [], "out_dir": str(tmp_path / "runs"), **change(fake_fashion_root)}
    cfg = {k: v for k, v in cfg.items() if v is not None}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and word in err, err
    assert not (tmp_path / "runs").exists()


def test_cli_checks_hyperparams_before_looking_for_data(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": "fashion_mnist_mlp", "optimizer": "trust_region",
        "hyperparams": {"rho": -1.0}, "data_dir": str(tmp_path / "nowhere"),
        "out_dir": str(tmp_path / "runs"),
    }))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rho must be") and err.count("\n") == 1, err
    assert not (tmp_path / "runs").exists()


# epsilon or the learning rate leaves the normal float range at the last
# decay: (optimizer, hyperparams, milestones, epochs)
EPSILON_OUT_OF_RANGE = {
    "underflow": ("trust_region", {"epsilon": 1e-5, "epsilon_decay_factor": 1e-320}, [1], 1),
    "overflow": ("trust_region", {"epsilon_decay_factor": 1e200}, [1, 2], 2),
    # the rate 1e-322 is subnormal: the seed would train on at a near-zero step
    "sgd-subnormal": ("sgd", {"learning_rate": 0.01, "lr_decay_factor": 1e-320}, [1], 3),
}


@pytest.mark.parametrize("case", list(EPSILON_OUT_OF_RANGE))
def test_epsilon_that_decays_out_of_range_is_an_error_line_before_data_loads(
        case, tmp_path, capsys):
    optimizer, hp, milestones, epochs = EPSILON_OUT_OF_RANGE[case]
    decayed = ("epsilon" if optimizer == "trust_region" else "learning_rate") + " decayed"
    cell = {"optimizer": optimizer, "hyperparams": hp, "milestones": milestones,
            "epochs": epochs, "out_dir": str(tmp_path / "runs")}
    with pytest.raises(ValueError, match=decayed):
        RunConfig(task="synthetic_quadratic", **cell)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cell, "task": "fashion_mnist_mlp",
                                    "data_dir": str(tmp_path / "nowhere")}))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {decayed}") and err.count("\n") == 1, err
    assert not (tmp_path / "runs").exists()


def test_epsilon_decay_past_the_last_epoch_is_not_checked(tmp_path):
    # the decay at milestone 1 stays in range; a second one would underflow,
    # but milestone 2 lies past the last epoch and never fires
    cfg = synth_config(tmp_path, epochs=1, milestones=(1, 2),
                       hyperparams={"epsilon": 1e-5, "epsilon_decay_factor": 1e-300})
    assert cfg.optimizer_config().schedule_milestones == (1,)
    result = run(cfg)
    assert result.summary["failed_seeds"] == {} and result.summary["milestones"] == [1, 2]
    assert len(read_metrics_csv(result.csv_path)) == 2  # both seeds' one epoch


@pytest.mark.parametrize("variant", MODES)
def test_cli_runs_the_variant_its_config_names(tmp_path, variant):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": "synthetic_quadratic",
        "optimizer": "trust_region",
        "variant": variant,
        "hyperparams": {"fixed_eta": 2.0},
        "epochs": 1,
        "batch_size": 2,
        "seeds": [0],
        "milestones": [],
        "task_params": {"steps_per_epoch": 5},
        "out_dir": str(tmp_path / "runs"),
    }))
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    rows = read_metrics_csv(tmp_path / "runs" / f"synthetic_quadratic_trust_region_{variant}.csv")
    assert rows and all(r.variant == variant for r in rows)


def test_cli_verify_hparams(capsys):
    assert cli_main(["verify-hparams"]) == 0
    assert '"ok": true' in capsys.readouterr().out


def test_cli_missing_dataset_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": "fashion_mnist_mlp",
        "optimizer": "adam",
        "hyperparams": {"learning_rate": 0.001},
        "data_dir": str(tmp_path / "nowhere"),
        "out_dir": str(tmp_path / "runs"),
    }))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "error:" in capsys.readouterr().err
