"""The spanning-tree walk is the one reachability rule.

ts.spanning_tree raises Unreachable for the lowest-index state it misses,
and every check reaches it: through TransitionSystem.walk, or, for
linear.LinearProblem on a candidate's index arcs, directly.  A second
reachability test would be a second rule that can drift from the first, so
no module but ts.py may construct Unreachable, and no module but ts.py and
linear.py may name spanning_tree, whether it imports, calls or aliases it.
"""

import ast
from pathlib import Path

import boolnet

PACKAGE = Path(boolnet.__file__).resolve().parent


def constructions(tree, name):
    """Line numbers at which the module calls name, bare or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == name) or (isinstance(f, ast.Attribute) and f.attr == name):
                found.append(node.lineno)
    return sorted(found)


def uses(tree, name):
    """Line numbers at which the module names name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == name:
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
            found.append(node.lineno)
    return sorted(found)


def test_the_guards_see_calls_imports_and_attributes():
    src = (
        "from .ts import spanning_tree\n"
        "from . import errors, ts\n"
        "def walk(ts):\n"
        "    try:\n"
        "        return spanning_tree(0, [], [[]], ['s'])\n"
        "    except errors.Unreachable:\n"
        "        raise errors.Unreachable('s')\n"
        "def walk2(t):\n"
        "    return ts.spanning_tree(0, [], [[]], ['s']) or Unreachable\n"
    )
    tree = ast.parse(src)
    assert constructions(tree, "Unreachable") == [7]
    assert uses(tree, "spanning_tree") == [1, 5, 9]


def test_only_ts_raises_unreachable_and_only_the_walkers_name_spanning_tree():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {PACKAGE / "ts.py", PACKAGE / "linear.py"} <= set(modules)
    raised, walked = [], []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "ts.py":
            raised += [f"{path.name}:{line}" for line in constructions(tree, "Unreachable")]
        if path.name not in ("ts.py", "linear.py"):
            walked += [f"{path.name}:{line}" for line in uses(tree, "spanning_tree")]
    assert raised == []
    assert walked == []
