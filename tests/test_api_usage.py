"""Every function, class and method under ``src/utrop``, and every name
assigned at module level there, has a user somewhere in ``src/`` or
``tests/`` besides the line that defines it.  Dunder names are exempt;
Python reads them.

A function, class or module-level name is used when another line holds
its name as a word.  A method is used only when another line holds its
name after a dot (``x.name``): a common word such as ``zero`` in a comment
or a local variable does not count.  The test checks names, not the
methods of each class, so an unused method that shares its name with a
used one (an unused ``to_json`` beside ``Fan.to_json``) passes unseen.
For that reason a method may not be named like a public method of a
builtin type (``index``, ``get``, ``add``, ...), whose calls would hide
it, unless ``BUILTIN_NAMED`` lists it."""

import ast
import builtins
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "utrop"


# (class, method) pairs allowed to share a builtin type's method name
BUILTIN_NAMED = {("_Basis", "add")}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def words(text: str) -> set:
    """The words on a line, and each word that follows a dot, with its dot."""
    return set(re.findall(r"\w+", text)) | set(re.findall(r"\.\w+", text))


def definitions():
    """``(path, line, word)`` of every non-dunder def and class in ``SRC``,
    and of every non-dunder name that a module-level assignment binds.  A
    method's word is its name with a leading dot."""
    for path in sorted(SRC.rglob("*.py")):
        module = ast.parse(path.read_text(), str(path))
        methods = {
            id(node)
            for cls in ast.walk(module) if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not is_dunder(node.name):
                    yield path, node.lineno, "." * (id(node) in methods) + node.name
        for node in module.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        stored = isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                        if stored and not is_dunder(name.id):
                            yield path, name.lineno, name.id


def test_every_definition_is_used():
    # lines_with[word]: how many lines of src/ and tests/ hold the word
    lines_with = collections.Counter()
    lines = {}
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        lines[path] = path.read_text().splitlines()
        for text in lines[path]:
            lines_with.update(words(text))
    unused = [
        f"{path.relative_to(ROOT)}:{lineno} {word.lstrip('.')}"
        for path, lineno, word in definitions()
        if lines_with[word] - (word in words(lines[path][lineno - 1])) < 1
    ]
    assert not unused, "defined but never referenced: " + ", ".join(unused)


def test_no_method_is_named_like_a_builtin_method():
    builtin_names = {
        name
        for cls in vars(builtins).values() if isinstance(cls, type)
        for name in dir(cls) if not name.startswith("_") and callable(getattr(cls, name))
    }
    named = {
        (cls.name, node.name): f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in builtin_names
    }
    assert set(named) >= BUILTIN_NAMED, "allowed but gone: " + repr(BUILTIN_NAMED - set(named))
    clashes = [f"{where} {cls}.{name}" for (cls, name), where in named.items()
               if (cls, name) not in BUILTIN_NAMED]
    assert not clashes, "methods named like a builtin type's: " + ", ".join(clashes)
