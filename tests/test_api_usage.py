"""Every function, class and method under ``src/utrop``, and every name
assigned at module level there, has a user: its name occurs as a word
somewhere in ``src/`` or ``tests/`` besides the line that defines it.
Dunder names are exempt; Python reads them.

The test checks names, not the methods of each class: a method is counted
as used when any other line holds its name, so an unused method that shares
its name with a used one (an unused ``to_json`` beside ``Fan.to_json``)
passes unseen."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "utrop"


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions():
    """``(path, line, name)`` of every non-dunder def and class in ``SRC``,
    and of every non-dunder name that a module-level assignment binds."""
    for path in sorted(SRC.rglob("*.py")):
        module = ast.parse(path.read_text(), str(path))
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not is_dunder(node.name):
                    yield path, node.lineno, node.name
        for node in module.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        stored = isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                        if stored and not is_dunder(name.id):
                            yield path, name.lineno, name.id


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
