"""kltrust training benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is one harness cell trained on inputs generated from the seed
(synthetic Fashion-MNIST-shaped IDX files, or the synthetic quadratic's
noise streams); nothing is downloaded. Training is a closed loop, one
process per run, with the BLAS thread count pinned to BLAS_THREADS.

--trace 0 runs the cell again and again, each time as a fresh child process
through the user entry point `python -m kltrust.cli run --config ...`,
until --seconds have passed, and reports the end-to-end metrics as medians
over those runs. --trace 1 alternates those untraced runs with traced ones
(`perfbench/spans.py`, which calls `kltrust.harness.run` in-process with
spans around every layer) and reports the per-layer metrics. Without
--workload and --trace it runs every workload in both modes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted` (training seeds run), `failed` (seeds the harness
recorded as failed) and `metrics`. The exit code is 1 when a correctness
check fails and 2 when the program under test cannot be found or run.
Working files go under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
# pinned before numpy loads, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import idxgen  # noqa: E402
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_UNTRACED = 5  # untraced runs per benchmark run, whatever --seconds says
# traced runs per benchmark run, whatever --seconds says: a fixed number, so
# each span's pooled sample count, and with it the tail percentile, is the
# same in every benchmark run of a workload and on every commit
TRACED_RUNS = 3
CHILD_TIMEOUT_S = 150.0
KL_SLACK = 1.1  # the solver's contract: C_mu <= 1.1 * epsilon on every exit

E2E_UNITS = {
    "samples_per_s": "1/s",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    """One harness cell; sizes are per benchmark seed."""

    task: str
    optimizer: str
    epochs: int
    batch_size: int
    train: int = 0  # synthetic Fashion-MNIST sizes; 0 for the quadratic task
    test: int = 0
    seeds: int = 1  # training seeds per run
    eval_every: int = 1
    preset: str | None = None
    hyperparams: dict = field(default_factory=dict)
    task_params: dict = field(default_factory=dict)

    @property
    def samples(self) -> int:
        """Training examples (gradient draws on the quadratic) per run."""
        if self.task == "synthetic_quadratic":
            per_epoch = self.task_params["steps_per_epoch"] * self.batch_size
        else:
            per_epoch = self.train
        return per_epoch * self.epochs * self.seeds


# Why each listed workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "mlp-trust-region": Workload(
        "fashion_mnist_mlp", "trust_region", epochs=2, batch_size=128,
        train=4096, test=1024, preset="fashion_mnist_cnn"),
    # sized for run time: 16 steps of about 0.2 s. Not listed in
    # BENCHMARK.json: the trust-region CNN reaches chance-level loss within a
    # few steps and then fluctuates, so on some seeds (30 and 34 of 0-39) its
    # second epoch's loss is above the first's and the loss check fails, as it
    # should, where a listed workload must pass on every seed. It runs with
    # --workload cnn-trust-region and in the all-workload mode, ungated.
    "cnn-trust-region": Workload(
        "fashion_mnist_cnn", "trust_region", epochs=2, batch_size=128,
        train=1024, test=256, preset="fashion_mnist_cnn"),
    "mlp-adam": Workload(
        "fashion_mnist_mlp", "adam", epochs=2, batch_size=128,
        train=4096, test=1024, preset="fashion_mnist_cnn"),
    # the shipped configs/synthetic_quadratic_trust_region.json cell, with
    # two epochs instead of ten. Not listed in BENCHMARK.json: being bound by
    # interpreter speed, its samples_per_s spread about 0.3 (IQR / median)
    # between 30-second runs on a 2-vCPU VM, above the largest regression
    # bound a listed workload may have. It runs with --workload
    # quadratic-small and in the all-workload mode, ungated.
    "quadratic-small": Workload(
        "synthetic_quadratic", "trust_region", epochs=2, batch_size=32, seeds=5,
        hyperparams={"epsilon": 0.01, "fixed_eta": 50.0},
        task_params={"n": 10, "noise_scale": 1.0, "steps_per_epoch": 200}),
}


class BenchError(Exception):
    """The program under test could not be run; no result is printed."""


def harness_config(w: Workload, seed: int, data_dir: Path | None, out_dir: Path) -> dict:
    return {
        "task": w.task,
        "optimizer": w.optimizer,
        "preset": w.preset,
        "hyperparams": w.hyperparams,
        "task_params": w.task_params,
        "epochs": w.epochs,
        "batch_size": w.batch_size,
        "seeds": [seed * w.seeds + i for i in range(w.seeds)],
        "milestones": [],
        "eval_every": w.eval_every,
        "out_dir": str(out_dir),
        "data_dir": None if data_dir is None else str(data_dir),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, int]:
    """Run one child to completion; return (wall seconds, its own ru_maxrss in KiB)."""
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise BenchError(f"{' '.join(argv)} exited with {proc.returncode}:\n{tail}")
    return wall, usage.ru_maxrss


def read_outputs(out_dir: Path) -> dict:
    """Epoch walls, losses and failures from the harness CSV and summary."""
    (csv_path,) = out_dir.glob("*.csv")
    (summary_path,) = out_dir.glob("*_summary.json")
    with open(csv_path, newline="") as f:
        rows = list(csv.DictReader(f))
    summary = json.loads(summary_path.read_text())
    per_epoch = summary["per_epoch"]
    final = summary["final"] or {}
    return {
        "epoch_walls": [float(r["wall_seconds"]) for r in rows],
        "row_losses": [float(r["train_loss"]) for r in rows],
        "first_train_loss": per_epoch[0]["mean_train_loss"] if per_epoch else math.nan,
        "final_train_loss": final.get("mean_train_loss", math.nan),
        "final_test_accuracy": final.get("mean_test_accuracy"),
        "failed_seeds": len(summary["failed_seeds"]),
    }


class Bench:
    """One benchmark run of one workload: its inputs, child runs and checks."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
        self.data_dir = None
        if self.w.train:
            self.data_dir = idxgen.write_fashion_mnist(
                self.tmp / "data", seed, self.w.train, self.w.test)
        self.count = 0
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.checks: list[tuple[str, bool, str]] = []

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run_once(self, traced: bool) -> dict:
        """One fresh child process training the cell; traced ones record spans."""
        self.count += 1
        run_dir = self.tmp / f"run{self.count}"
        run_dir.mkdir()
        config_path = run_dir / "config.json"
        config = harness_config(self.w, self.seed, self.data_dir, run_dir / "out")
        config_path.write_text(json.dumps(config))
        spans_path = run_dir / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "spans.py"),
                    "--config", str(config_path), "--out", str(spans_path)]
        else:
            argv = [sys.executable, "-m", "kltrust.cli", "run", "--config", str(config_path)]
        wall, rss_kib = run_child(argv, run_dir / "stderr.txt")
        out = read_outputs(run_dir / "out")
        epoch_s = sum(out["epoch_walls"])
        out.update(
            run_s=wall,
            setup_s=wall - epoch_s,
            samples_per_s=self.w.samples / epoch_s,
            peak_rss_mb=rss_kib / 1024.0,
        )
        if traced:
            out["trace"] = json.loads(spans_path.read_text())
        shutil.rmtree(run_dir)
        (self.traced if traced else self.untraced).append(out)
        return out

    def measure(self, seconds: float, trace: bool) -> None:
        deadline = time.perf_counter() + seconds
        if trace:
            for _ in range(TRACED_RUNS):
                self.run_once(traced=False)
                self.run_once(traced=True)
        # untraced runs fill the rest of the time
        minimum = 0 if trace else MIN_UNTRACED
        while len(self.untraced) < minimum or (
                time.perf_counter() + statistics.median(r["run_s"] for r in self.untraced)
                <= deadline):
            self.run_once(traced=False)

    # -- checks ---------------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    def run_checks(self) -> None:
        runs = self.untraced + self.traced
        failed = sum(r["failed_seeds"] for r in runs)
        self.check("failed_seed_frac == 0", failed == 0,
                   f"{failed} of {len(runs) * self.w.seeds} seeds failed")
        finite = all(math.isfinite(x) for r in runs for x in r["row_losses"])
        self.check("train losses finite", finite, "every (seed, epoch) row")
        first, final = runs[0]["first_train_loss"], runs[0]["final_train_loss"]
        self.check("final train loss < first epoch's", final < first,
                   f"{final!r} vs {first!r}")
        finals = {r["final_train_loss"] for r in self.untraced}
        self.check("untraced runs agree", len(finals) == 1,
                   f"final_train_loss over {len(self.untraced)} runs: {sorted(finals)}")
        if not self.traced:
            return
        traced_finals = {r["final_train_loss"] for r in self.traced}
        self.check("traced final_train_loss == untraced", traced_finals == finals,
                   f"traced {sorted(traced_finals)} vs untraced {sorted(finals)}")
        name = "eta* >= 0 and C_mu <= 1.1 epsilon"
        # every workload runs the harness's default variant, in which each
        # trust-region step makes one dual solve
        expected = self.w.optimizer == "trust_region"
        solves = [
            s[4] for r in self.traced for s in r["trace"]["spans"]
            if s[0] == "trust_region.solve_eta"
        ]
        # a check that cannot read what it checks fails rather than pass unseen
        if "trust_region.solve_eta" not in self.installed():
            self.check(name, not expected,
                       "seam kltrust.optimizer.solve_eta missing: cannot be checked")
        elif not solves:
            self.check(name, not expected, "no dual solve was traced")
        elif any(a is None for a in solves):
            unread = sum(a is None for a in solves)
            self.check(name, False,
                       f"{unread} of {len(solves)} solve_eta results unreadable: cannot be checked")
        else:
            bad = [a for a in solves
                   if not (a["eta_star"] >= 0.0 and a["c_mu"] <= KL_SLACK * a["epsilon"])]
            self.check(name, not bad,
                       f"{len(bad)} of {len(solves)} traced steps violate it"
                       + (f", first {bad[0]}" if bad else ""))

    def installed(self) -> set[str]:
        return set(self.traced[0]["trace"]["installed"]) if self.traced else set()

    # -- metrics --------------------------------------------------------------

    def end_to_end(self) -> dict:
        out = {}
        for name, unit in E2E_UNITS.items():
            out[name] = (statistics.median(r[name] for r in self.untraced), unit)
        return out

    def per_layer(self) -> tuple[dict, dict]:
        """Per-layer metrics and the pooled sample count of each timed span."""
        runs = [(r["trace"]["spans"], r["epoch_walls"]) for r in self.traced]
        untraced_walls = [sum(r["epoch_walls"]) for r in self.untraced]
        metrics, notes, samples = layers.layer_metrics(runs, self.installed(), untraced_walls)
        self.check("per-layer counts repeat exactly", not notes, "; ".join(notes) or
                   f"over {len(runs)} traced runs")
        # quality depends too much on the seed to be a bounded end-to-end
        # metric (the quadratic's final loss varies over 10x between seeds);
        # it is recorded here, from the traced run, which the checks hold
        # equal to the untraced one
        quality = self.traced[0]
        metrics["harness.final_train_loss"] = (quality["final_train_loss"], "loss")
        metrics["harness.final_test_accuracy"] = (quality["final_test_accuracy"] or 0.0, "ratio")
        return metrics, samples


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def quartiles(values) -> str:
    values = list(values)
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"  q1 {q1:.6g} q3 {q3:.6g} over {len(values)} runs"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload in one mode, print its report, return its result."""
    bench = Bench(name, seed)
    try:
        bench.measure(seconds, trace)
    finally:
        bench.close()
    bench.run_checks()
    print(f"== {name}  seed {seed}  trace {int(trace)}  "
          f"untraced runs {len(bench.untraced)}  traced runs {len(bench.traced)}")
    if trace:
        metrics, samples = bench.per_layer()
        for metric, (value, unit) in metrics.items():
            span, stat = metric.rsplit(".", 1)
            n = samples.get(span, 0)
            stated = f"  ({n} samples)" if unit == "ms" else ""
            if stat == "tail_ms" and n:
                stated = f"  (p{layers.tail_percentile(n):g} of {n} samples)"
            print(f"  {metric:42s} {value:.6g} {unit}{stated}")
        share = layers.shares([(r["trace"]["spans"], r["epoch_walls"]) for r in bench.traced])
        print("  share of the traced epoch wall (not gated): "
              + ", ".join(f"{span} {frac:.3f}" for span, frac in share.items()))
        for metric in layers.METRICS:
            if metric not in metrics:
                print(f"  {metric:42s} ABSENT (seam missing or unreadable)")
        missing = bench.traced[0]["trace"]["missing_seams"]
        if missing:
            print(f"  missing seams: {', '.join(missing)}")
    else:
        metrics = bench.end_to_end()
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:42s} {value:.6g} {unit}"
                  + quartiles(r[metric] for r in bench.untraced))
    quality = {k: bench.untraced[0][k] for k in ("final_train_loss", "final_test_accuracy")}
    print(f"  quality (not gated): {json.dumps(quality)}")
    for check, ok, detail in bench.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {check}: {detail}")
    runs = bench.untraced + bench.traced
    result = {
        "workload": name,
        "trace": int(trace),
        "env": environment(seed),
        "correct": all(ok for _, ok, _ in bench.checks),
        "attempted": len(runs) * bench.w.seeds,
        "failed": sum(r["failed_seeds"] for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": [{"check": c, "ok": ok, "detail": d} for c, ok, d in bench.checks],
        "quality": quality,
        "shares": share if trace else None,
        "untraced_runs": [
            {k: r[k] for k in ("run_s", "setup_s", "samples_per_s", "peak_rss_mb", "epoch_walls")}
            for r in bench.untraced
        ],
    }
    print(f"  env {json.dumps(result['env'])}")
    stem = f"{name}_seed{seed}_trace{int(trace)}"
    (WORK / f"BENCH_{stem}.json").write_text(json.dumps(result, indent=2))
    if trace:
        (WORK / f"spans_{name}.json").write_text(json.dumps(bench.traced[-1]["trace"]))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; default both")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "kltrust" / "cli.py").is_file():
        print(f"error: the kltrust sources are not at {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    try:
        results = [run_workload(n, args.seed, args.seconds, t) for n in names for t in modes]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}:{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
