"""No library function calls itself.

Deep inputs (long paths, deep expressions, large covers) must never end in
a RecursionError, so every walk in ``src/balcut`` uses an explicit stack or
cursor, and no recursion is allowed.
"""

import ast
from pathlib import Path

from balcut.qexpr import Create, Join, QExpression, Rename, Union

SRC = Path(__file__).resolve().parents[1] / "src" / "balcut"

ALLOWED = set()


def _calls_itself(fn) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if (
            isinstance(f, ast.Attribute)
            and f.attr == fn.name
            and isinstance(f.value, ast.Name)
            and f.value.id in ("self", "cls")
        ):
            return True
    return False


def self_calling_functions(path: Path):
    """Qualified names (module.outer.inner) of functions that call themselves."""
    found = []
    stack = [(ast.parse(path.read_text()), path.stem)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                    found.append(name)
                stack.append((child, name))
            else:
                stack.append((child, prefix))
    return found


def test_no_function_calls_itself():
    found = {name for path in sorted(SRC.glob("*.py")) for name in self_calling_functions(path)}
    assert found <= ALLOWED, sorted(found - ALLOWED)


def test_the_checker_sees_a_self_call(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "def outer():\n"
        "    def build(x):\n"
        "        return build(x - 1) if x else 0\n"
        "    return build(3)\n"
        "class C:\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
    )
    assert sorted(self_calling_functions(src)) == ["m.C.walk", "m.outer.build"]


def test_expression_nodes_compare_through_the_walker():
    # a generated dataclass __eq__ or __hash__ recurses through the fields,
    # out of sight of the AST check above
    for cls in (Create, Union, Join, Rename):
        assert cls.__eq__ is QExpression.__eq__, cls.__name__
        assert cls.__hash__ is QExpression.__hash__, cls.__name__
