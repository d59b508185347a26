"""Every text format is read through ts.directives.

ts.token_lines splits a text into token lines; ts.directives builds the one
line grammar on it (unknown directive, argument count, repeated header).  A
parser that read token lines itself would grow its own dispatch loop again,
so no module but ts.py may name token_lines, whether it imports, calls or
aliases it.
"""

import ast
from pathlib import Path

import boolnet

PACKAGE = Path(boolnet.__file__).resolve().parent


def token_line_uses(tree):
    """Line numbers at which the module names token_lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "token_lines":
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "token_lines":
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == "token_lines" for a in node.names):
            found.append(node.lineno)
    return sorted(found)


def test_the_guard_sees_imports_calls_and_attributes():
    src = (
        "from .ts import directives, token_lines\n"
        "from . import ts\n"
        "def parse(text):\n"
        "    return list(token_lines(text)) + list(ts.token_lines(text))\n"
        "def fine(text):\n"
        "    return list(directives(text, {}))\n"
    )
    assert token_line_uses(ast.parse(src)) == [1, 4, 4]


def test_only_ts_reads_token_lines():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "ts.py" in modules
    found = []
    for path in modules:
        if path.name == "ts.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in token_line_uses(tree)]
    assert found == []
