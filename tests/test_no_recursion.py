"""No function in the package calls itself by name.

Python's recursion limit would otherwise cap how deep a search or a walk can
go, so every search and walk runs over an explicit stack.  A direct call of
the function's own name, or of self.<name> / cls.<name> in a method, counts.
"""

import ast
from pathlib import Path

import boolnet

PACKAGE = Path(boolnet.__file__).resolve().parent


def self_calls(tree):
    """(line, name) of each function whose body calls its own name."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                found.append((fn.lineno, fn.name))
            elif (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                found.append((fn.lineno, fn.name))
    return found


def test_the_guard_sees_direct_and_method_recursion():
    src = (
        "def walk(n):\n    return walk(n - 1) if n else 0\n"
        "class A:\n    def m(self):\n        return self.m()\n"
        "def fine(n):\n    return sum(range(n))\n"
    )
    assert self_calls(ast.parse(src)) == [(1, "walk"), (4, "m")]


def test_no_function_in_the_package_calls_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in self_calls(tree)]
    assert found == []
