import json
import struct

import numpy as np
import pytest

from kltrust import presets
from kltrust.baselines import BaselineConfig, make_baseline
from kltrust.cli import main as cli_main
from kltrust.data import SyntheticQuadraticTask, synthetic_grad
from kltrust.harness import (
    QUADRATIC_PARAMS,
    MetricsRecord,
    RunConfig,
    aggregate,
    ablation_run,
    read_metrics_csv,
    run,
    summarize,
    verify_hparams,
)
from kltrust.optimizer import TrustRegionConfig, TrustRegionOptimizer
from kltrust.surrogate import FilterConsistencyError


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
        wall_seconds=0.1, eta_star=None, c_mu=None, bisect_iters=None,
        variant=variant,
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


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="unknown task"):
        RunConfig(task="mnist", optimizer="adam")
    with pytest.raises(ValueError, match="unknown optimizer"):
        RunConfig(task="synthetic_quadratic", optimizer="lion")
    with pytest.raises(ValueError, match="variant"):
        RunConfig(task="synthetic_quadratic", optimizer="adam", variant="fixed-eta")
    with pytest.raises(ValueError):
        RunConfig(task="synthetic_quadratic", optimizer="adam", seeds=())
    with pytest.raises(ValueError, match="batch_size"):
        RunConfig(task="synthetic_quadratic", optimizer="adam", batch_size=0)
    with pytest.raises(ValueError, match="eval_every"):
        RunConfig(task="fashion_mnist_mlp", optimizer="adam", eval_every=0)
    with pytest.raises(ValueError, match="steps"):
        RunConfig(task="synthetic_quadratic", optimizer="adam", task_params={"steps": 5})
    with pytest.raises(ValueError, match="noise_scale"):
        RunConfig(task="fashion_mnist_mlp", optimizer="adam", task_params={"noise_scale": 1})
    # every key the quadratic reads is accepted
    RunConfig(task="synthetic_quadratic", optimizer="adam",
              task_params=dict.fromkeys(QUADRATIC_PARAMS, 1))


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


def test_baseline_run_emits_null_eta(tmp_path):
    result = run(synth_config(tmp_path, optimizer="adam"))
    rows = read_metrics_csv(result.csv_path)
    assert all(r.eta_star is None and r.bisect_iters is None for r in rows)


def test_run_determinism_modulo_wall_clock(tmp_path):
    r1 = run(synth_config(tmp_path, out_dir=str(tmp_path / "a")))
    r2 = run(synth_config(tmp_path, out_dir=str(tmp_path / "b")))
    rows1, rows2 = read_metrics_csv(r1.csv_path), read_metrics_csv(r2.csv_path)
    for a, b in zip(rows1, rows2):
        for field in ("seed", "epoch", "train_loss", "test_accuracy",
                      "eta_star", "c_mu", "bisect_iters", "variant"):
            assert getattr(a, field) == getattr(b, field)


def test_summarize_matches_shipped_summary(tmp_path):
    result = run(synth_config(tmp_path))
    recomputed = summarize(result.csv_path.parent)[result.csv_path.name]
    for mine, theirs in zip(result.summary["per_epoch"], recomputed["per_epoch"]):
        for key in ("mean_train_loss", "mean_test_accuracy", "two_se_test_accuracy"):
            if mine[key] is None:
                assert theirs[key] is None
            else:
                assert abs(mine[key] - theirs[key]) < 1e-12


def _broken_filter(*args, **kwargs):
    raise FilterConsistencyError("covariance not positive definite")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_seed_is_isolated(tmp_path, monkeypatch):
    # noise draws of 1e308 overflow the gradient while the loss stays finite
    overflow = {"steps_per_epoch": 10, "noise_scale": 1e308}
    cases = (
        ("sgd", {"hyperparams": {"learning_rate": 1e30}}, "non-finite loss"),
        ("adam", {"hyperparams": {"learning_rate": 0.05}, "task_params": overflow},
         "non-finite params or gradient"),
        ("trust_region", {"task_params": overflow}, "non-finite gradient"),
        ("trust_region", {"variant": "adam-surrogate", "task_params": overflow},
         "non-finite gradient"),
        ("trust_region", {"fault": _broken_filter}, "positive definite"),
    )
    for i, (optimizer, kw, message) in enumerate(cases):
        with monkeypatch.context() as m:
            if "fault" in kw:
                m.setattr("kltrust.optimizer.filter_update", kw.pop("fault"))
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


def _quadratic(seed):
    n = 10
    return SyntheticQuadraticTask(
        theta_star=np.resize([0.5, -0.5], n),
        diag=np.logspace(np.log10(0.1), np.log10(10.0), n),
        noise_scale=0.5,
        seed=seed,
    ), np.random.default_rng([seed, 90210]).normal(0.0, 1.0, n)


def _batch_grad(task, point, step, batch_size=4):
    draws = range(step * batch_size, (step + 1) * batch_size)
    return np.mean([synthetic_grad(task, point, d) for d in draws], axis=0)


def test_harness_matches_hand_loop_adam(tmp_path):
    hp = {"learning_rate": 0.05, "weight_decay": 0.01}
    cfg = synth_config(tmp_path, optimizer="adam", seeds=(3,), epochs=3,
                       milestones=(1,), hyperparams=hp)
    rows = read_metrics_csv(run(cfg).csv_path)
    task, params = _quadratic(3)
    opt = make_baseline(10, BaselineConfig(kind="adam", schedule_milestones=(1,), **hp))
    step = 0
    assert [r.epoch for r in rows] == [0, 1, 2]
    for row in rows:
        losses = []
        for _ in range(10):
            grad = _batch_grad(task, params, step)
            losses.append(task.loss(params))
            params = opt.step(params, grad)
            step += 1
        opt.on_epoch_end()
        assert row.train_loss == float(np.mean(losses))
        assert row.eta_star is None and row.c_mu is None and row.bisect_iters is None


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
            grad = _batch_grad(task, opt.mean, step)
            losses.append(task.loss(opt.mean))
            diags.append(opt.step(grad))
            step += 1
        opt.on_epoch_end()
        assert row.train_loss == float(np.mean(losses))
        assert row.eta_star == float(np.mean([d.eta_star for d in diags]))
        assert row.c_mu == float(np.mean([d.c_mu for d in diags]))
        assert row.bisect_iters == float(np.mean([d.bisect_iters for d in diags]))


def test_ablation_run_tags_variant(tmp_path):
    base = synth_config(tmp_path, hyperparams={"fixed_eta": 5.0})
    result = ablation_run(base, "fixed-eta")
    rows = read_metrics_csv(result.csv_path)
    assert all(r.variant == "fixed-eta" for r in rows)
    assert result.summary["variant"] == "fixed-eta"
    # eta trace is constant in fixed-eta mode, varying in standard mode
    std_rows = read_metrics_csv(run(base).csv_path)
    assert all(r.eta_star == 5.0 for r in rows)
    assert len({r.eta_star for r in std_rows}) > 1


def test_fixed_eta_variant_requires_value(tmp_path):
    cfg = synth_config(tmp_path, variant="fixed-eta")
    with pytest.raises(ValueError, match="fixed_eta"):
        run(cfg)


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


def test_dataset_task_end_to_end(fake_fashion_root, tmp_path):
    cfg = RunConfig(
        task="fashion_mnist_mlp",
        optimizer="trust_region",
        epochs=1,
        batch_size=32,
        seeds=(0,),
        milestones=(),
        out_dir=str(tmp_path / "runs"),
        data_dir=str(fake_fashion_root),
    )
    result = run(cfg)
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
        "seeds": [0],
        "milestones": [],
        "task_params": {"steps_per_epoch": 5},
        "out_dir": str(tmp_path / "runs"),
    }))
    assert cli_main(["run", "--config", str(cfg_path), "--seeds", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "metrics:" in out and "summary:" in out
    assert cli_main(["summarize", "--in", str(tmp_path / "runs")]) == 0
    assert "per_epoch" in capsys.readouterr().out


def test_cli_variant_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": "synthetic_quadratic",
        "optimizer": "trust_region",
        "hyperparams": {"fixed_eta": 2.0},
        "epochs": 1,
        "batch_size": 2,
        "seeds": [0],
        "milestones": [],
        "task_params": {"steps_per_epoch": 5},
        "out_dir": str(tmp_path / "runs"),
    }))
    assert cli_main(["run", "--config", str(cfg_path), "--variant", "fixed-eta"]) == 0
    rows = read_metrics_csv(tmp_path / "runs" / "synthetic_quadratic_trust_region_fixed-eta.csv")
    assert rows and all(r.variant == "fixed-eta" for r in rows)


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
