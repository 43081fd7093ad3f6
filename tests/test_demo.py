"""Smoke test: the walkthrough demo runs end to end against the library."""

import os
import re
import subprocess
import sys
from pathlib import Path

from .showcase import SHOWCASE_MINIMAL_SEPARATORS

ROOT = Path(__file__).resolve().parents[1]


def test_walkthrough_runs_and_keeps_the_showcase_separators():
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "walkthrough.py")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
    )
    assert run.returncode == 0, run.stderr
    line = next(
        ln for ln in run.stdout.splitlines()
        if "inclusion-minimal terminal separators of size <= 3" in ln
    )
    # The trimmed graph may have more small separators (through its
    # component vertices); every one of the original graph must be found
    # again there, vertex for vertex.
    m = re.search(r": (\d+) before, (\d+) after; all (\d+) preserved pointwise: (\w+)$", line)
    assert m, line
    before, after, preserved, pointwise = m.groups()
    assert int(before) == int(preserved) == len(SHOWCASE_MINIMAL_SEPARATORS)
    assert int(after) >= int(before)
    assert pointwise == "True"
