"""The benchmark at a tiny size. Its untraced runs start the library through
`python -m kltrust.cli run`, its traced runs wrap every seam it reads, and
both check the results, so a renamed seam or config key fails here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_bench_runs_quadratic_small_and_finds_it_correct(tmp_path):
    # a copy of the checkout's two parts, so the bench's .perfbench/ work
    # files land in tmp_path
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quadratic-small",
         "--seconds", "0.1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), last
    assert last["attempted"] > 0
