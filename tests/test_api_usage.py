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
it, unless ``BUILTIN_NAMED`` lists it.

Every parameter with a default, a dataclass field's included, is passed by
some call in ``src/`` or ``tests/``: by keyword, or by position past the
parameter's index.  Calls are matched by name in the same way:
``f(...)`` and ``x.f(...)`` both call every function and method named
``f``, and a call of a class's name calls its ``__init__`` and sets its
dataclass fields."""

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


def defaulted_parameters():
    """``(path, line, callee, parameter, index)`` of every parameter with a
    default in ``SRC``.  The callee of an ``__init__`` or a dataclass field
    is its class.  ``index`` is the parameter's position among a call's
    positional arguments (a method's ``self`` or ``cls`` not counted), or
    None for a keyword-only parameter."""
    for path in sorted(SRC.rglob("*.py")):
        module = ast.parse(path.read_text(), str(path))
        classes = [node for node in ast.walk(module) if isinstance(node, ast.ClassDef)]
        owner = {id(node): cls.name for cls in classes for node in cls.body}
        for cls in classes:
            if any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list):
                fields = [node for node in cls.body if isinstance(node, ast.AnnAssign)]
                for i, field in enumerate(fields):
                    if field.value is not None:
                        yield path, field.lineno, cls.name, field.target.id, i
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = owner[id(node)] if node.name == "__init__" else node.name
                args = node.args
                positional = args.posonlyargs + args.args
                skip = id(node) in owner and positional and positional[0].arg in ("self", "cls")
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    yield path, node.lineno, callee, arg.arg, i - bool(skip)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield path, node.lineno, callee, arg.arg, None


def passes(call: ast.Call, parameter: str, index) -> bool:
    """Does ``call`` pass ``parameter``, by keyword or ``**``, or by a
    position past ``index`` or a ``*`` argument?"""
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return index is not None and (len(call.args) > index or starred)


def test_every_default_is_overridden():
    # calls[name]: every call in src/ and tests/ of a function or attribute so named
    calls = collections.defaultdict(list)
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls[name].append(node)
    unset = [
        f"{path.relative_to(ROOT)}:{line} {callee}({parameter})"
        for path, line, callee, parameter, index in defaulted_parameters()
        if not any(passes(call, parameter, index) for call in calls[callee])
    ]
    assert not unset, "defaults that no call overrides: " + ", ".join(unset)
