"""Every name a library module imports is read somewhere in that module.

An import nothing reads keeps a dependency alive that no code needs.  Three
kinds of import are exempt: ``from __future__`` switches, which change how
the module compiles; the package's re-exports, which ``__init__`` lists in
``__all__``; and the two names in ``ALLOWED``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "balcut"

ALLOWED = {
    # perfbench/tracing.py patches these two names in vbp to time them
    "vbp.exact_treewidth_small",
    "vbp.build_trimmer",
}


def unused_imports(path: Path):
    """Qualified names (module.name) imported by the file and never read."""
    tree = ast.parse(path.read_text())
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{path.stem}.{name}" for name in imported if name not in read)


def test_every_import_is_read():
    found = {name for path in sorted(SRC.glob("*.py")) for name in unused_imports(path)}
    assert found == ALLOWED, sorted(found ^ ALLOWED)


def test_the_checker_sees_an_unused_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from typing import List, Optional\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(xs: List[int]) -> int:\n"
        "    return len(xs)\n"
    )
    assert unused_imports(src) == ["m.Optional", "m.os", "m.system"]
