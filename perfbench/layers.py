"""Per-layer metrics from the spans of one or more traced runs.

Timings are pooled over the traced runs of a benchmark run, whose number
is fixed, and reported as the median (`p50_ms`) and a tail (`tail_ms`): the
highest percentile of TAIL_LADDER that has at least TAIL_BEYOND samples
beyond it. As the call counts repeat exactly, so do the pooled sample count
and the percentile the tail is taken at, on a workload. Counts
(`calls`, dual evaluations, clamped dimensions) are taken per traced run
and must repeat exactly in every one.

A layer that made no calls on a workload reports 0 for each of its
metrics, with its call count at 0 beside it. A metric whose span could not
be installed (its seam is gone from the program), or whose attributes could
not be read, is left out; the caller lists it as absent.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# spans the harness opens directly inside an epoch; the rest of the epoch
# wall is the training loop's own bookkeeping
EPOCH_WORK = (
    "data.minibatches",
    "data.synthetic_grad",
    "models.loss_and_grad",
    "models.forward_loss",
    "optimizer.step",
    "baselines.step",
)
STEP_PARTS = ("surrogate.filter_update", "trust_region.primal_variance", "trust_region.solve_eta")

# spans whose share of the epoch wall is reported, outermost first
SHARE_SPANS = (
    "models.loss_and_grad",
    "models.forward_loss",
    "data.minibatches",
    "optimizer.step",
    "surrogate.filter_update",
    "trust_region.primal_variance",
    "trust_region.solve_eta",
    "baselines.step",
)

# timed spans: (span name, whether a tail is reported)
TIMED = (
    ("models.loss_and_grad", True),
    ("models.forward_loss", False),
    ("data.minibatches", False),
    ("data.synthetic_grad", False),
    ("surrogate.filter_update", True),
    ("trust_region.primal_variance", False),
    ("trust_region.solve_eta", True),
    ("optimizer.step", True),
    ("baselines.step", True),
)

# every per-layer metric: name -> (unit, spans it is computed from)
METRICS = {
    "models.loss_and_grad.p50_ms": ("ms", ("models.loss_and_grad",)),
    "models.loss_and_grad.tail_ms": ("ms", ("models.loss_and_grad",)),
    "models.loss_and_grad.calls": ("count", ("models.loss_and_grad",)),
    "models.forward_loss.p50_ms": ("ms", ("models.forward_loss",)),
    "models.forward_loss.calls": ("count", ("models.forward_loss",)),
    "data.load_fashion_mnist.s": ("s", ("data.load_fashion_mnist",)),
    "data.minibatches.p50_ms": ("ms", ("data.minibatches",)),
    "data.synthetic_grad.p50_ms": ("ms", ("data.synthetic_grad",)),
    "data.synthetic_grad.calls_per_step": ("count", ("data.synthetic_grad", "optimizer.step")),
    "surrogate.filter_update.p50_ms": ("ms", ("surrogate.filter_update",)),
    "surrogate.filter_update.tail_ms": ("ms", ("surrogate.filter_update",)),
    "trust_region.primal_variance.p50_ms": ("ms", ("trust_region.primal_variance",)),
    "trust_region.solve_eta.p50_ms": ("ms", ("trust_region.solve_eta",)),
    "trust_region.solve_eta.tail_ms": ("ms", ("trust_region.solve_eta",)),
    "trust_region.dual_evals_per_solve.mean": (
        "count", ("trust_region.solve_eta", "trust_region.dual_derivative")),
    "trust_region.dual_evals_per_solve.max": (
        "count", ("trust_region.solve_eta", "trust_region.dual_derivative")),
    "trust_region.bisect_iters.mean": ("count", ("trust_region.solve_eta",)),
    "trust_region.interior_frac": ("ratio", ("trust_region.solve_eta",)),
    "trust_region.kl_ratio.max": ("ratio", ("trust_region.solve_eta",)),
    "optimizer.step.p50_ms": ("ms", ("optimizer.step",)),
    "optimizer.step.tail_ms": ("ms", ("optimizer.step",)),
    "optimizer.step.self_p50_ms": ("ms", ("optimizer.step",) + STEP_PARTS),
    "optimizer.step.calls": ("count", ("optimizer.step",)),
    "optimizer.clamped_frac": ("ratio", ("optimizer.step",)),
    "baselines.step.p50_ms": ("ms", ("baselines.step",)),
    "baselines.step.tail_ms": ("ms", ("baselines.step",)),
    "baselines.step.calls": ("count", ("baselines.step",)),
    "harness.eval_s": ("s", ("models.forward_loss",)),
    "harness.self_s": ("s", EPOCH_WORK),
    "harness.write_s": ("s", ("harness.write_metrics_csv",)),
    "trace.overhead_frac": ("ratio", ()),
}

# counts that must repeat exactly in every traced run of one config
EXACT = (
    "models.loss_and_grad.calls",
    "models.forward_loss.calls",
    "data.synthetic_grad.calls_per_step",
    "optimizer.step.calls",
    "baselines.step.calls",
    "trust_region.dual_evals_per_solve.mean",
    "trust_region.dual_evals_per_solve.max",
    "trust_region.bisect_iters.mean",
    "trust_region.interior_frac",
    "optimizer.clamped_frac",
)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n samples, in exact arithmetic."""
    return max(1, -(-round(p * 10) * n // 1000))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND of n samples beyond it."""
    for p in TAIL_LADDER:
        if n - _rank(n, p) >= TAIL_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def children_of(spans) -> dict[int, list[int]]:
    out: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            out[span[3]].append(index)
    return out


def self_time(spans, index: int, children: dict[int, list[int]]) -> float:
    """Span duration minus the part of it covered by its child spans."""
    start, end = spans[index][1], spans[index][2]
    covered = 0.0
    reach = start
    for c in sorted(children.get(index, ()), key=lambda i: spans[i][1]):
        lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def run_counts(spans, epoch_walls: list[float]) -> dict:
    """Counts and per-epoch seconds of one traced run; None where unreadable."""
    children = children_of(spans)
    calls = defaultdict(int)
    seconds = defaultdict(float)
    for s in spans:
        calls[s[0]] += 1
        seconds[s[0]] += s[2] - s[1]
    solves = [i for i, s in enumerate(spans) if s[0] == "trust_region.solve_eta"]
    solve_attrs = [spans[i][4] for i in solves if spans[i][4]]
    steps = [s for s in spans if s[0] == "optimizer.step"]
    step_attrs = [s[4] for s in steps if s[4]]
    dual_evals = [
        sum(spans[c][0] == "trust_region.dual_derivative" for c in children.get(i, ()))
        for i in solves
    ]
    root = next(i for i, s in enumerate(spans) if s[3] < 0)
    in_epoch = sum(
        spans[i][2] - spans[i][1] for i in children.get(root, ()) if spans[i][0] in EPOCH_WORK
    )
    writes = [s[1] for s in spans if s[0] == "harness.write_metrics_csv"]
    epochs = max(len(epoch_walls), 1)
    dims = sum(a["n"] for a in step_attrs)
    solves_read = len(solve_attrs) == len(solves)
    return {
        "models.loss_and_grad.calls": calls["models.loss_and_grad"],
        "models.forward_loss.calls": calls["models.forward_loss"],
        "data.synthetic_grad.calls_per_step": (
            calls["data.synthetic_grad"] / len(steps) if steps else 0.0),
        "optimizer.step.calls": len(steps),
        "baselines.step.calls": calls["baselines.step"],
        "trust_region.dual_evals_per_solve.mean": _mean(dual_evals),
        "trust_region.dual_evals_per_solve.max": max(dual_evals, default=0),
        "trust_region.bisect_iters.mean": (
            _mean([a["iterations"] for a in solve_attrs]) if solves_read else None),
        "trust_region.interior_frac": (
            _mean([a["eta_star"] == 0.0 for a in solve_attrs]) if solves_read else None),
        "trust_region.kl_ratio.max": (
            max((a["c_mu"] / a["epsilon"] for a in solve_attrs), default=0.0)
            if solves_read else None),
        "optimizer.clamped_frac": (
            (sum(a["clamped"] for a in step_attrs) / dims if dims else 0.0)
            if len(step_attrs) == len(steps) else None),
        "data.load_fashion_mnist.s": seconds["data.load_fashion_mnist"],
        "harness.eval_s": seconds["models.forward_loss"] / epochs,
        "harness.self_s": (sum(epoch_walls) - in_epoch) / epochs,
        "harness.write_s": spans[root][2] - writes[0] if writes else 0.0,
    }


def shares(runs) -> dict[str, float]:
    """Summed time of each span in SHARE_SPANS over the summed epoch walls.

    `runs` holds (spans, epoch walls) for each traced run; spans that never
    ran are left out. Nested spans count inside their parents too.
    """
    wall = sum(sum(walls) for _, walls in runs)
    seconds = defaultdict(float)
    for spans, _ in runs:
        for s in spans:
            seconds[s[0]] += s[2] - s[1]
    return {name: seconds[name] / wall for name in SHARE_SPANS if name in seconds}


def layer_metrics(runs, installed, untraced_walls) -> tuple[dict, list[str], dict]:
    """Per-layer metrics over the traced runs of one benchmark run.

    `runs` holds (spans, epoch walls) for each traced run, `installed` the
    span names whose seams were wrapped, and `untraced_walls` the summed
    epoch walls of the untraced runs of the same config. Returns
    ({metric: (value, unit)} without the absent ones, notes on counts that
    did not repeat, {span name: pooled sample count}).
    """
    per_run = [run_counts(spans, walls) for spans, walls in runs]
    notes = []
    for name in EXACT:
        seen = {counts[name] for counts in per_run}
        if len(seen) > 1:
            notes.append(f"{name} differs between traced runs: {sorted(seen, key=str)}")
    values = {}
    for name in per_run[0]:
        column = [c[name] for c in per_run]
        values[name] = None if None in column else statistics.median(column)
    if values["trust_region.kl_ratio.max"] is not None:
        values["trust_region.kl_ratio.max"] = max(c["trust_region.kl_ratio.max"] for c in per_run)

    pooled = defaultdict(list)
    self_ms = []
    for spans, _ in runs:
        children = children_of(spans)
        for index, s in enumerate(spans):
            pooled[s[0]].append((s[2] - s[1]) * 1e3)
            if s[0] == "optimizer.step":
                self_ms.append(self_time(spans, index, children) * 1e3)
    for span, has_tail in TIMED:
        samples = pooled.get(span, [])
        values[f"{span}.p50_ms"] = statistics.median(samples) if samples else 0.0
        if has_tail:
            p = tail_percentile(len(samples))
            if p is not None:
                values[f"{span}.tail_ms"] = percentile(samples, p)
            else:  # no calls: 0 like the other metrics; too few calls: absent
                values[f"{span}.tail_ms"] = None if samples else 0.0
    values["optimizer.step.self_p50_ms"] = statistics.median(self_ms) if self_ms else 0.0
    traced_walls = [sum(walls) for _, walls in runs]
    values["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0)

    out = {}
    for name, (unit, spans_needed) in METRICS.items():
        if values[name] is not None and all(s in installed for s in spans_needed):
            out[name] = (values[name], unit)
    return out, notes, {span: len(samples) for span, samples in pooled.items()}
