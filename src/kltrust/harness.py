"""Benchmark runner: (task x optimizer x seed) grids with CSV/JSON output.

One CSV row per (seed, epoch); a summary JSON with per-epoch means and the
doubled standard error (2 * sample sd / sqrt(#seeds)) of test accuracy.
Floats are written with full repr so summaries recomputed from the raw CSV
reproduce the shipped summary exactly. A seed that hits a numerical fault
(a non-finite loss or gradient, a broken filter, a failed dual solve) is
recorded as a failure and the rest of the grid continues.

One loop trains every cell: models expose `n_params`, `init_params(seed)` and
`loss_and_grad(params, batch)`; optimizers `.mean`, `step(grad)`, `on_epoch_end()`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, make_dataclass
from pathlib import Path

import numpy as np

from . import baselines, presets
from .baselines import Adam, AdamW, BaselineConfig, SGDMomentum, check, check_milestones, finite
from .data import (
    Dataset,
    SyntheticQuadraticTask,
    load_cifar_binary,
    load_fashion_mnist,
    minibatches,
    synthetic_grad,
)
from .errors import NonFiniteError, NumericalFault
from .models import MLP, Batch, SmallCNN
from .optimizer import MODES, StepDiagnostics, TrustRegionConfig, TrustRegionOptimizer

DATA_DIR_ENV = "KLTRUST_DATA_DIR"

OPTIMIZERS = {"trust_region": TrustRegionOptimizer, "sgd": SGDMomentum, "adam": Adam,
              "adamw": AdamW}


# one row per (seed, epoch); between wall_seconds and variant, one column per
# StepDiagnostics field: its epoch mean, or None (an empty cell) for a baseline
MetricsRecord = make_dataclass("MetricsRecord", [
    ("seed", "int"), ("epoch", "int"), ("train_loss", "float"),
    ("test_accuracy", "float | None"), ("wall_seconds", "float"),
    *((f.name, "float | None") for f in fields(StepDiagnostics)), ("variant", "str"),
], frozen=True)
MetricsRecord.__module__ = __name__  # records pickle as kltrust.harness.MetricsRecord

CSV_COLUMNS = tuple(f.name for f in fields(MetricsRecord))

# each column's parser, from the field's declared type; an empty cell is None
_CELL_PARSERS = {"int": int, "float": float, "str": str,
                 "float | None": lambda cell: float(cell) if cell else None}
_COLUMN_PARSERS = tuple(_CELL_PARSERS[f.type] for f in fields(MetricsRecord))


@dataclass
class RunConfig:
    task: str
    optimizer: str
    hyperparams: dict = field(default_factory=dict)
    preset: str | None = None
    task_params: dict = field(default_factory=dict)
    epochs: int = 5
    batch_size: int = 128
    seeds: tuple[int, ...] = (0,)
    milestones: tuple[int, ...] | None = None
    variant: str = "standard"
    eval_every: int = 1
    out_dir: str = "runs"
    data_dir: str | None = None

    def __post_init__(self):
        for name, kind in (("hyperparams", dict), ("task_params", dict), ("task", str),
                           ("optimizer", str), ("variant", str), ("preset", (str, type(None))),
                           ("out_dir", (str, os.PathLike)),
                           ("data_dir", (str, os.PathLike, type(None)))):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} has the wrong type: {getattr(self, name)!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; known: {tuple(TASKS)}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; known: {tuple(OPTIMIZERS)}")
        if self.variant not in MODES:
            raise ValueError(f"unknown variant {self.variant!r}; known: {MODES}")
        if self.variant != "standard" and self.optimizer != "trust_region":
            raise ValueError("ablation variants only apply to the trust_region optimizer")
        check("count", epochs=self.epochs, batch_size=self.batch_size, eval_every=self.eval_every)
        self.epochs, self.batch_size, self.eval_every = map(
            int, (self.epochs, self.batch_size, self.eval_every))
        try:  # the task's model judges its settings; building one reads no file
            TASKS[self.task][0](self.batch_size, 0, **self.task_params)
        except TypeError as exc:  # a key it does not take; name the task, not the callable
            raise ValueError(f"task_params: {self.task} {str(exc).split('() ')[-1]}") from None
        except ValueError as exc:  # its message starts with the key
            raise ValueError(f"task_params.{exc}") from None
        if not (isinstance(self.seeds, (list, tuple)) and self.seeds and all(
                isinstance(s, numbers.Integral) and finite(s) and s >= 0 for s in self.seeds)
                and len(set(self.seeds)) == len(self.seeds)):
            raise ValueError(
                f"seeds must be a non-empty list of distinct integers >= 0: {self.seeds!r}")
        self.seeds = tuple(map(int, self.seeds))
        if self.milestones is not None:
            self.milestones = check_milestones(self.milestones, "milestones")
        self.optimizer_config()  # checks every hyperparameter's name and value

    @property
    def effective_milestones(self) -> tuple[int, ...]:
        if self.milestones is not None:
            return self.milestones
        half, three_quarters = self.epochs // 2, (3 * self.epochs) // 4
        return tuple(sorted({m for m in (half, three_quarters) if m >= 1}))

    def optimizer_config(self) -> TrustRegionConfig | BaselineConfig:
        """The optimizer's config: resolved hyperparams, mode, milestones."""
        hp = self.resolved_hyperparams()
        if unread := [name for name in OPTIMIZERS[self.optimizer].UNREAD if name in hp]:
            raise ValueError(f"hyperparams for {self.optimizer}: {unread[0]} is never read")
        # a milestone past the last epoch never fires, so its decay is not checked
        milestones = tuple(m for m in self.effective_milestones if m <= self.epochs)
        try:
            if self.optimizer == "trust_region":
                return TrustRegionConfig(mode=self.variant, schedule_milestones=milestones, **hp)
            return BaselineConfig(schedule_milestones=milestones, **hp)
        except TypeError as exc:  # a name the config does not take, or lacks
            raise ValueError(f"hyperparams for {self.optimizer}: {exc}") from None

    def resolved_hyperparams(self) -> dict:
        out = {}
        if self.preset is not None:
            out.update(presets.get_preset(self.optimizer, self.preset))
        out.update(self.hyperparams)
        return out

    def sha256(self) -> str:
        """The SHA-256 of what the run computes, as canonical JSON: every field
        but out_dir, with the preset merged into hyperparams and the
        milestones the run uses."""
        resolved = {**asdict(self), "hyperparams": self.resolved_hyperparams(),
                    "milestones": self.effective_milestones}
        del resolved["out_dir"], resolved["preset"]
        text = json.dumps(resolved, sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(text.encode()).hexdigest()

    def resolved_data_dir(self) -> Path:
        return Path(self.data_dir or os.environ.get(DATA_DIR_ENV, "data"))

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        raw = _read_json(path)
        try:
            return cls(**raw)
        except TypeError as exc:  # a key that is not a field, a missing one, a bad type
            raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class RunResult:
    csv_path: Path
    summary_path: Path
    summary: dict


# ---------------------------------------------------------------------------
# task assembly
# ---------------------------------------------------------------------------

def _with_channel(ds: Dataset) -> Dataset:
    """The split with a channel axis: a view of the same pixels."""
    return Dataset(ds.pixels[:, None, :, :], ds.labels)


def _fashion_mnist(config: RunConfig) -> tuple[Dataset, Dataset]:
    return load_fashion_mnist(config.resolved_data_dir() / "fashion_mnist")


def _cifar(config: RunConfig, classes: int) -> tuple[Dataset, Dataset]:
    return load_cifar_binary(config.resolved_data_dir() / f"cifar{classes}", classes)


class _QuadraticModel:
    """The synthetic quadratic in the models' shape: its batches are global step
    indices, and step k's gradient is the mean of `batch_size` samples that one
    generator draws (`synthetic_grad`). Its keywords are the task_params; it checks them."""

    def __init__(self, batch_size: int, seed: int, n=10, noise_scale=1.0, steps_per_epoch=100):
        check("count", n=n, steps_per_epoch=steps_per_epoch)
        self.task = SyntheticQuadraticTask(
            theta_star=np.resize([0.5, -0.5], n),
            diag=np.logspace(-1.0, 1.0, n),
            noise_scale=noise_scale,
            seed=seed,
        )
        self.n_params = int(n)
        self.batch_size = batch_size
        self.steps_per_epoch = int(steps_per_epoch)

    def init_params(self, seed: int) -> np.ndarray:
        return np.random.default_rng([seed, 90210]).normal(0.0, 1.0, self.n_params)

    def epoch_steps(self, epoch: int) -> range:
        return range(epoch * self.steps_per_epoch, (epoch + 1) * self.steps_per_epoch)

    def loss_and_grad(self, params: np.ndarray, step: int) -> tuple[float, np.ndarray]:
        return self.task.loss(params), synthetic_grad(self.task, params, step, self.batch_size)


# task -> (model(batch_size, seed, **task_params), load(config) -> (train, test), or None
# when the model draws its own batches). A loader looks its reader up in this module
# when it runs, so a patched one is seen.
TASKS = {
    "synthetic_quadratic": (_QuadraticModel, None),
    "fashion_mnist_mlp": (lambda batch_size, seed: MLP((784, 256, 10)), _fashion_mnist),
    "fashion_mnist_cnn": (lambda batch_size, seed: SmallCNN((1, 28, 28), 10),
                          lambda config: tuple(map(_with_channel, _fashion_mnist(config)))),
    "cifar10_cnn": (lambda batch_size, seed: SmallCNN((3, 32, 32), 10),
                    lambda config: _cifar(config, 10)),
    "cifar100_cnn": (lambda batch_size, seed: SmallCNN((3, 32, 32), 100),
                     lambda config: _cifar(config, 100)),
}


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _evaluate_accuracy(model, params, test: Dataset, where: str = "", chunk: int = 256) -> float:
    # 256 rows of 784 float64 pixels are 1.6 MB, the size of an MLP step's
    # vectors, so a chunk reuses the heap the step has freed; 512-row chunks
    # were mapped afresh on top of it and raised the MLP's peak RSS by 5 MB
    correct = 0
    for start in range(0, len(test), chunk):
        rows = slice(start, start + chunk)
        batch = Batch(test.rows(rows), test.labels[rows])
        loss, logits = model.forward_loss(params, batch)
        if not math.isfinite(loss):  # NaN logits would argmax to class 0
            raise NumericalFault(f"non-finite evaluation loss {where}")
        correct += int(np.sum(logits.argmax(axis=1) == batch.targets))
    return correct / len(test)


def _run_seed(
    config: RunConfig, opt_config, model, split, seed: int, rows: list[MetricsRecord],
) -> None:
    """Train one seed, appending one row per epoch. `split` is (train, test), or
    None when the model draws its own batches (`model.epoch_steps`)."""
    opt = OPTIMIZERS[config.optimizer](model.n_params, opt_config, model.init_params(seed))
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        losses, diags, where = [], [], f"(seed {seed}, epoch {epoch})"
        batches = (model.epoch_steps(epoch) if split is None
                   else minibatches(split[0], config.batch_size, seed, epoch))
        for batch in batches:
            # holding the pre-step point until the next step keeps the allocator's
            # reuse pattern; freeing it inside step() raised MLP/Adam peak RSS 0.9%
            point = opt.mean
            loss, grad = model.loss_and_grad(point, batch)
            if not math.isfinite(loss):
                raise NumericalFault(f"non-finite loss {where}")
            losses.append(loss)
            diags.append(opt.step(grad))
        opt.on_epoch_end()
        diags = [d for d in diags if d is not None]  # baselines report none
        stats = {
            f.name: float(np.mean([getattr(d, f.name) for d in diags])) if diags else None
            for f in fields(StepDiagnostics)
        }
        accuracy = None
        due = (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1
        if split is not None and due:
            accuracy = _evaluate_accuracy(model, opt.mean, split[1], where)
        rows.append(
            MetricsRecord(
                seed=seed,
                epoch=epoch,
                train_loss=float(np.mean(losses)),
                test_accuracy=accuracy,
                wall_seconds=time.perf_counter() - t0,
                variant=config.variant,
                **stats,
            )
        )
    if not np.all(np.isfinite(opt.mean)):  # no later step checks the last one's point
        raise NonFiniteError(f"non-finite point after the last step (seed {seed})")


# ---------------------------------------------------------------------------
# aggregation and serialization
# ---------------------------------------------------------------------------

def _two_se(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    sd = float(np.std(values, ddof=1))
    return 2.0 * sd / math.sqrt(len(values))


def aggregate(rows: list[MetricsRecord]) -> list[dict]:
    """Per-epoch mean train loss and mean +- doubled-SE test accuracy."""
    out = []
    for epoch in sorted({r.epoch for r in rows}):
        at_epoch = [r for r in rows if r.epoch == epoch]
        accs = [r.test_accuracy for r in at_epoch if r.test_accuracy is not None]
        out.append(
            {
                "epoch": epoch,
                "mean_train_loss": float(np.mean([r.train_loss for r in at_epoch])),
                "mean_test_accuracy": float(np.mean(accs)) if accs else None,
                "two_se_test_accuracy": _two_se(accs),
                "n_seeds": len(at_epoch),
            }
        )
    return out


def write_metrics_csv(path, rows: list[MetricsRecord]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([getattr(r, c) for c in CSV_COLUMNS])  # None is an empty cell


def _replace(path: Path, write) -> None:
    """write(tmp) beside `path`, then rename tmp over it: no one reads part of a file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_json(path) -> dict:
    """The JSON object in the file at `path`; a ValueError that names the path
    when the file is not UTF-8 text, not JSON or not an object."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def read_metrics_csv(path) -> list[MetricsRecord]:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if tuple(header or ()) != CSV_COLUMNS:
        raise ValueError(f"{path}, line 1: unexpected columns {header}")
    rows = []
    for cells in filter(None, reader):  # a blank line is no row
        try:
            if len(cells) != len(CSV_COLUMNS):  # a row cut short, or one with extra cells
                raise ValueError(f"expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
            rows.append(MetricsRecord(*(parse(c) for parse, c in zip(_COLUMN_PARSERS, cells))))
        except ValueError as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return rows


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

# the variables that set BLAS's thread count, which rounds some products
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    """What a run's results or speed may follow besides its config: the
    versions, the platform, the CPUs the process may use (halves splits only
    on two or more), the BLAS numpy was built with and the BLAS thread
    variables (None when unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "platform": sys.platform,
            "cpus": baselines._cpus(),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def run(config: RunConfig) -> RunResult:
    """Execute the (seed) grid for one (task, optimizer, variant) cell."""
    # built once, before any data loads, so a config edited after construction
    # is checked again up front; optimizers only read it
    opt_config = config.optimizer_config()
    build, load = TASKS[config.task]
    split = None if load is None else load(config)

    out_dir = Path(config.out_dir)
    # here: a bad dataset leaves no directory, and a bad out_dir wastes no training
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{config.task}_{config.optimizer}_{config.variant}"
    csv_path = out_dir / f"{stem}.csv"
    summary_path = out_dir / f"{stem}_summary.json"
    rows: list[MetricsRecord] = []
    failed: dict[str, str] = {}
    for seed in config.seeds:
        model = build(config.batch_size, seed, **config.task_params)
        try:
            _run_seed(config, opt_config, model, split, seed, rows)
        except NumericalFault as exc:
            failed[str(seed)] = str(exc)
        # after every seed, so a run cut short keeps the seeds it finished
        _replace(csv_path, lambda tmp: write_metrics_csv(tmp, rows))

    per_epoch = aggregate(rows)
    summary = {
        "task": config.task,
        "optimizer": config.optimizer,
        "variant": config.variant,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "seeds": list(config.seeds),
        "milestones": list(config.effective_milestones),
        "eval_every": config.eval_every,
        "hyperparams": config.resolved_hyperparams(),
        "normalization": None if split is None else "pixel/255",
        "failed_seeds": failed,
        "per_epoch": per_epoch,
        "final": per_epoch[-1] if per_epoch else None,
        "machine": machine(),
        "config_sha256": config.sha256(),
    }
    _replace(summary_path, lambda tmp: tmp.write_text(json.dumps(summary, indent=2)))
    return RunResult(csv_path, summary_path, summary)


def summarize(in_dir) -> dict:
    """Recompute per-epoch statistics from every metrics CSV in a directory,
    with the machine and config hash of the run's summary JSON beside it,
    where there is one."""
    in_dir = Path(in_dir)
    out = {}
    for csv_path in sorted(in_dir.glob("*.csv")):
        per_epoch = aggregate(read_metrics_csv(csv_path))
        out[csv_path.name] = {
            "per_epoch": per_epoch,
            "final": per_epoch[-1] if per_epoch else None,
        }
        summary_path = csv_path.with_name(f"{csv_path.stem}_summary.json")
        if summary_path.exists():
            summary = _read_json(summary_path)
            out[csv_path.name].update(
                {key: summary.get(key) for key in ("machine", "config_sha256")})
    if not out:
        raise FileNotFoundError(f"no metrics CSV files under {in_dir}")
    return out


# frozen copy of the tuned tables, laid out row-major per algorithm; guards
# the presets module against accidental edits
_EXPECTED_ROWS = {
    "trust_region": (
        ("epsilon", (0.085675, 0.085675, 0.002787, 0.007133, 0.002787, 0.007234)),
        ("rho", (0.058657, 0.058657, 0.296786, 1.597354, 0.296786, 1.676770)),
        ("r", (2.816791, 2.816791, 1.219750, 9.328440, 1.219750, 4.822032)),
        ("q", (0.017393, 0.017393, 0.002455, 0.089381, 0.002455, 0.009779)),
        ("weight_decay", (0.000002, 0.000002, 0.000000, 0.000703, 0.000000, 0.000000)),
    ),
    "sgd": (
        ("learning_rate", (0.071049, 0.137031, 0.017834, 0.056480, 0.017834, 0.067994)),
        ("momentum", (0.865730, 0.854087, 0.946762, 0.866487, 0.946762, 0.867370)),
        ("weight_decay", (0.000225, 0.001963, 0.000163, 0.001697, 0.000163, 0.001800)),
    ),
    "adam": (
        ("learning_rate", (0.001012, 0.045115, 0.001129, 0.006652, 0.001129, 0.001612)),
        ("beta1", (0.945256, 0.907895, 0.851157, 0.890313, 0.851157, 0.864582)),
        ("beta2", (0.990342, 0.999999, 0.998940, 0.999387, 0.998940, 0.999953)),
        ("weight_decay", (0.000000, 0.000002, 0.001090, 0.000447, 0.001090, 0.001941)),
    ),
    "adamw": (
        ("learning_rate", (0.001004, 0.018744, 0.001129, 0.006652, 0.001129, 0.001245)),
        ("beta1", (0.922247, 0.862748, 0.851157, 0.890313, 0.851157, 0.858643)),
        ("beta2", (0.999945, 0.999999, 0.998940, 0.999387, 0.998940, 0.998802)),
        ("weight_decay", (0.000142, 0.000040, 0.001090, 0.000447, 0.001090, 0.001804)),
    ),
}


def verify_hparams() -> dict:
    """Cross-check the shipped presets against the frozen tuned tables."""
    mismatches = []
    for algorithm, spec_rows in _EXPECTED_ROWS.items():
        for param, values in spec_rows:
            for task, expected in zip(presets.TASKS, values):
                shipped = presets.TUNED.get(algorithm, {}).get(task, {}).get(param)
                if shipped != expected:
                    mismatches.append(
                        {
                            "key": f"{algorithm}.{task}.{param}",
                            "expected": expected,
                            "shipped": shipped,
                        }
                    )
    return {"ok": not mismatches, "checked": sum(
        len(values) for rows in _EXPECTED_ROWS.values() for _, values in rows
    ), "mismatches": mismatches}
