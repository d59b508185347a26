"""No module-level function of modify.py defines a function inside it.

Each modification search is walks that yield candidates plus one loop that
checks them, and a nested function or lambda inside a search would be
state that the loop shares with a second body.  So a module-level function
of modify.py may hold no nested def or lambda at any depth; methods of its
classes are not module-level functions and are not checked.
"""

import ast
from pathlib import Path

import boolnet

MODIFY = Path(boolnet.__file__).resolve().parent / "modify.py"


def nested_functions(tree):
    """(line, name) of each def or lambda inside a module-level function,
    with the lambda's name given as "lambda"."""
    found = []
    for fn in tree.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if node is fn:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((node.lineno, node.name))
            elif isinstance(node, ast.Lambda):
                found.append((node.lineno, "lambda"))
    return sorted(found)


def test_the_guard_sees_nested_defs_and_lambdas_but_not_methods():
    src = (
        "def search(xs):\n"
        "    def record(x):\n"
        "        return x\n"
        "    return sorted(xs, key=lambda x: -x)\n"
        "class Check:\n"
        "    def refute(self):\n"
        "        return [y for y in range(3)]\n"
        "def walk(n):\n"
        "    for i in range(n):\n"
        "        if i:\n"
        "            async def late():\n"
        "                return i\n"
        "    return (i for i in range(n))\n"
    )
    assert nested_functions(ast.parse(src)) == [(2, "record"), (4, "lambda"), (11, "late")]


def test_no_module_level_function_of_modify_nests_a_function():
    tree = ast.parse(MODIFY.read_text(), filename=str(MODIFY))
    assert any(isinstance(node, ast.FunctionDef) and node.name == "_search_removal" for node in tree.body)
    assert nested_functions(tree) == []
