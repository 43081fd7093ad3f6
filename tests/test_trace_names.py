"""The names the benchmark's span tracer patches must exist.

`perfbench/tracing.py` replaces module globals by name; a solver refactor
that deletes or renames one breaks `perfbench/run.py --trace 1` only.
The tracer is loaded by path, without edits, and checked against the
library here.
"""

import importlib
import importlib.util
from pathlib import Path

from balcut.graph import cycle_graph
from balcut.td import exact_treewidth_small, make_nice
from balcut.torso import build_trimmer
from balcut.vbp import sep_dp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    tracing = load_tracing()
    names = tracing.patched_names()
    assert len(names) == len(tracing.PATCHES) + len(tracing.GENERATORS)
    for module_name, attr in names:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_counted_result_fields_exist():
    # the tracer counts trimmed sizes and separator table entries from these
    g = cycle_graph(6)
    assert build_trimmer(g, 2, (1, 4)).g_star.n <= g.n
    _, td = exact_treewidth_small(g)
    assert len(sep_dp(g, make_nice(td), 2).entries) > 0
