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


# the Groebner kernel's private names: its packed monomial format and the
# integer loops that read it stay inside ualgebra/groebner.py
KERNEL = SRC / "ualgebra" / "groebner.py"
KERNEL_PRIVATE = {
    "_Basis", "_Codec", "_buchberger_int", "_content_strip", "_degree", "_filled", "_normalize_sign",
    "_reduce_int", "_reduce_scaled", "_reduced_basis", "_s_poly", "_update_pairs",
}


def test_the_kernels_private_names_are_defined_in_groebner_py():
    defined = {
        node.name for node in ast.parse(KERNEL.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not KERNEL_PRIVATE - defined, f"not defined in groebner.py: {sorted(KERNEL_PRIVATE - defined)}"


def test_the_kernel_takes_no_poly():
    # the kernel speaks primitive integer forms only: it imports neither
    # Poly nor primitive, and no module of ualgebra but poly.py itself asks
    # whether a value is a Poly
    imported = {
        alias.name for node in ast.walk(ast.parse(KERNEL.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    }
    assert not imported & {"Poly", "primitive"}
    asks = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((SRC / "ualgebra").rglob("*.py")) if path.name != "poly.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and "Poly" in ast.unparse(node.args[1])
    ]
    assert not asks, "isinstance checks for Poly: " + ", ".join(asks)


def kernel_private_uses(source: str) -> list:
    """``(line, name)`` of each kernel-private name that ``source`` imports
    from a ``groebner`` module or reads as an attribute of one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "groebner":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in KERNEL_PRIVATE]
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL_PRIVATE:
            if ast.unparse(node.value).split(".")[-1] == "groebner":
                found.append((node.lineno, node.attr))
    return found


def test_no_other_module_uses_the_kernels_private_names():
    assert kernel_private_uses("from .groebner import NormalFormCalculator, _Codec") == [(1, "_Codec")]
    assert kernel_private_uses("from . import groebner\nx = groebner._reduce_scaled") == [(2, "_reduce_scaled")]
    uses = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py")) if path != KERNEL
        for line, name in kernel_private_uses(path.read_text())
    ]
    assert not uses, "kernel-private names used outside groebner.py: " + ", ".join(uses)


# one path answers whether a weight lies in the tropicalization: the cone
# and probe weights of certify both go through signed.certify_weights,
# whose _certify_orbit alone builds a ConeCertifier
CERTIFIER_HOME = (SRC / "ualgebra" / "signed.py", "_certify_orbit")
INITIAL = SRC / "ualgebra" / "initial.py"


def certifier_calls(source: str) -> list:
    """``(line, function)`` of each call of ``ConeCertifier`` in
    ``source``, with the name of the innermost function around it, or None
    at module level."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "ConeCertifier":
                found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def initial_imports(source: str, initial_names: set) -> list:
    """``(line, name)`` of each name that ``source`` imports from an
    ``initial`` module, or imports elsewhere under a name that
    ``initial_names`` holds."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            whole = (node.module or "").split(".")[-1] == "initial"
            found += [(node.lineno, alias.name) for alias in node.names
                      if whole or alias.name in initial_names]
    return found


def test_one_path_answers_every_weight():
    assert certifier_calls("def f():\n    return ConeCertifier(i, w)") == [(2, "f")]
    assert certifier_calls("x = signed.ConeCertifier(i, w)") == [(1, None)]
    module = ast.parse(INITIAL.read_text())
    initial_names = {node.name for node in module.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert initial_imports("from .ualgebra.initial import x", set()) == [(1, "x")]
    assert initial_imports("from .ualgebra import Ideal, y", {"y"}) == [(1, "y")]
    stray = [
        f"{path.relative_to(ROOT)}:{line} in {function}"
        for path in sorted(SRC.rglob("*.py"))
        for line, function in certifier_calls(path.read_text())
        if (path, function) != CERTIFIER_HOME
    ]
    assert not stray, "ConeCertifier built outside signed._certify_orbit: " + ", ".join(stray)
    imported = initial_imports((SRC / "cli.py").read_text(), initial_names)
    assert not imported, "cli.py imports from ualgebra.initial: " + repr(imported)
