"""Every function, class and method under ``src/utrop`` has a user: its
name occurs as a word somewhere in ``src/`` or ``tests/`` besides the line
that defines it.  Dunder methods are exempt; Python calls them."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "utrop"


def definitions():
    """``(path, line, name)`` of every non-dunder def and class in ``SRC``."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path, node.lineno, node.name


def test_every_definition_is_used():
    # lines_with[word]: how many lines of src/ and tests/ hold the word; a
    # definition's own line is one of them
    lines_with = collections.Counter()
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for text in path.read_text().splitlines():
            lines_with.update(set(re.findall(r"\w+", text)))
    unused = [
        f"{path.relative_to(ROOT)}:{lineno} {name}"
        for path, lineno, name in definitions()
        if lines_with[name] < 2
    ]
    assert not unused, "defined but never referenced: " + ", ".join(unused)
