"""The import layers of src/kltrust: which kltrust modules each module may
import, read from the source with ast, so a new import across a layer fails
here rather than in a review."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kltrust"

# the lower layers, and the only kltrust modules each imports
LAYERS = {
    "errors": set(),
    "presets": set(),
    "baselines": {"errors"},
    "surrogate": {"baselines", "errors"},
    "trust_region": {"baselines", "errors"},
    "models": {"baselines"},
    "data": {"baselines", "models"},
}
THREADING = {"threading", "contextvars", "queue"}  # the split's, in baselines alone


def imports(module: str) -> tuple[set[str], set[str]]:
    """The kltrust modules and the other top-level modules `module` imports."""
    names = set()  # dotted, each relative import spelled from kltrust
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # from . import x names the module x
            base = ".".join(filter(None, ("kltrust" if node.level else "", node.module)))
            names.update(f"{base}.{a.name}" if base == "kltrust" else base for a in node.names)
    own = {name.split(".")[1] for name in names if name.startswith("kltrust.")}
    return own, {name.split(".")[0] for name in names} - {"kltrust"}


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_each_lower_layer_imports_only_its_own_kltrust_modules(module):
    assert imports(module)[0] == LAYERS[module]


@pytest.mark.parametrize("module", MODULES)
def test_only_baselines_imports_the_thread_modules(module):
    threads = imports(module)[1] & THREADING
    assert threads == (THREADING if module == "baselines" else set())
