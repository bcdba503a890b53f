"""In-memory spans around the kltrust layer boundaries, for the traced run.

The wrappers are installed on the names each consumer module looks up at
call time (for example `kltrust.optimizer.solve_eta`, which the optimizer
calls through its module globals), so the library runs unmodified and the
arithmetic is unchanged. A seam that no longer exists is reported as
missing instead of failing the run.

Run as a script, this module is the traced child process:

    python3 perfbench/spans.py --config run.json --out spans.json

It calls `kltrust.harness.run` in-process with every seam wrapped, keeps
the spans in memory and writes them out once the run has finished.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from pathlib import Path

ROOT_SPAN = "harness.run"

# (module, attribute, span name): module-level functions, patched where the
# consumer looks them up
FUNCTION_SEAMS = (
    ("kltrust.harness", "load_fashion_mnist", "data.load_fashion_mnist"),
    ("kltrust.harness", "synthetic_grad", "data.synthetic_grad"),
    ("kltrust.harness", "write_metrics_csv", "harness.write_metrics_csv"),
    ("kltrust.optimizer", "filter_update", "surrogate.filter_update"),
    ("kltrust.optimizer", "primal_variance", "trust_region.primal_variance"),
    ("kltrust.optimizer", "solve_eta", "trust_region.solve_eta"),
    ("kltrust.trust_region", "dual_derivative", "trust_region.dual_derivative"),
)

# (module, class, method, span name): methods patched on the class
METHOD_SEAMS = (
    ("kltrust.optimizer", "TrustRegionOptimizer", "step", "optimizer.step"),
    ("kltrust.models", "MLP", "loss_and_grad", "models.loss_and_grad"),
    ("kltrust.models", "MLP", "forward_loss", "models.forward_loss"),
    ("kltrust.models", "SmallCNN", "loss_and_grad", "models.loss_and_grad"),
    ("kltrust.models", "SmallCNN", "forward_loss", "models.forward_loss"),
    ("kltrust.baselines", "SGDMomentum", "step", "baselines.step"),
    ("kltrust.baselines", "Adam", "step", "baselines.step"),
    ("kltrust.baselines", "AdamW", "step", "baselines.step"),
)

# generator seam: one span per yielded batch
GENERATOR_SEAMS = (("kltrust.harness", "minibatches", "data.minibatches"),)


class Tracer:
    """Spans as (name, start, end, parent index, attrs), parent -1 at the top.

    A closed span is a tuple of numbers and strings, which the garbage
    collector stops tracking, so a long trace does not slow the collections
    of the program under test.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._open: list[tuple[int, str, int, float]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1][0] if self._open else -1
        self._open.append((index, name, parent, time.perf_counter()))
        return index

    def close(self, index: int, attrs: dict | None = None) -> None:
        end = time.perf_counter()
        opened, name, parent, start = self._open.pop()
        if opened != index:
            raise RuntimeError(f"span {index} closed while {opened} was open")
        self.spans[index] = (name, start, end, parent, attrs)

    def discard(self, index: int) -> None:
        """Drop the innermost open span (a generator that had nothing left)."""
        if self._open.pop()[0] != index or index != len(self.spans) - 1:
            raise RuntimeError(f"can only discard the last open span, not {index}")
        self.spans.pop()


def _solve_attrs(result, args, kwargs) -> dict:
    tr = args[3] if len(args) > 3 else kwargs["tr"]
    return {
        "eta_star": float(result.eta_star),
        "c_mu": float(result.c_mu),
        "iterations": int(result.iterations),
        "epsilon": float(tr.epsilon),
    }


def _step_attrs(result, args, kwargs) -> dict:
    return {"clamped": int(result.clamped), "n": int(args[0].n)}


ATTRS = {"trust_region.solve_eta": _solve_attrs, "optimizer.step": _step_attrs}


def _attrs(attrs_of, result, args, kwargs) -> dict | None:
    # a seam whose signature or result changed loses its attributes (and the
    # metrics built on them), not the run
    if result is None:
        return None
    try:
        return attrs_of(result, args, kwargs)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


def _wrap_call(tracer: Tracer, fn, name: str):
    attrs_of = ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(index, attrs_of and _attrs(attrs_of, result, args, kwargs))

    return traced


def _wrap_generator(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            index = tracer.open(name)
            try:
                item = next(items)
            except StopIteration:
                tracer.discard(index)
                return
            except BaseException:
                tracer.close(index)
                raise
            tracer.close(index)
            yield item

    return traced


def install(tracer: Tracer):
    """Wrap every seam that exists.

    Returns (span names installed, seams missing, a function that restores
    the original names).
    """
    installed: set[str] = set()
    missing: list[str] = []
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, wrapped) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def lookup(module_name: str, *path: str):
        try:
            obj = importlib.import_module(module_name)
            for part in path[:-1]:
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            return None
        # only names the owner defines itself, so a subclass that inherits a
        # method is not wrapped twice
        return obj if path[-1] in vars(obj) else None

    for module_name, attr, name in FUNCTION_SEAMS + GENERATOR_SEAMS:
        owner = lookup(module_name, attr)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrap = _wrap_generator if (module_name, attr, name) in GENERATOR_SEAMS else _wrap_call
        patch(owner, attr, wrap(tracer, getattr(owner, attr), name))
        installed.add(name)
    for module_name, cls, method, name in METHOD_SEAMS:
        owner = lookup(module_name, cls, method)
        if owner is None:
            missing.append(f"{module_name}.{cls}.{method}")
            continue
        patch(owner, method, _wrap_call(tracer, getattr(owner, method), name))
        installed.add(name)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return installed, missing, restore


def traced_run(config_path: str) -> dict:
    """Run one harness cell with every seam wrapped; return the trace record."""
    from kltrust import harness

    tracer = Tracer()
    installed, missing, restore = install(tracer)
    try:
        config = harness.RunConfig.from_json(config_path)
        root = tracer.open(ROOT_SPAN)
        harness.run(config)
        tracer.close(root)
    finally:
        restore()
    return {"installed": sorted(installed), "missing_seams": missing, "spans": tracer.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one harness cell with spans")
    parser.add_argument("--config", required=True, help="harness run config (JSON)")
    parser.add_argument("--out", required=True, help="where to write the spans (JSON)")
    args = parser.parse_args(argv)
    record = traced_run(args.config)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
