"""The benchmark's span tracer (``benchmarks/spans.py``) rebinds ``utrop``
names by attribute lookup, so renaming or deleting one of them under
``src/`` breaks ``benchmarks/run.py --trace 1``.  This test catches that in
the test suite instead."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"
MODULES = ("symtrees", "fans", "linalg", "cli", "ualgebra.groebner", "ualgebra.initial", "ualgebra.signed")


def namespaces():
    """Every module of the traced ``utrop`` modules and every class they
    define: the owners whose attributes the tracer may rebind."""
    mods = [importlib.import_module(f"utrop.{m}") for m in MODULES]
    classes = [v for m in mods for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__]
    return mods + classes


def snapshot():
    return {(owner, attr): value for owner in namespaces() for attr, value in vars(owner).items()}


def test_tracer_patches_existing_names_and_restores_them():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = snapshot()
    tracer = spans.Tracer()
    try:
        tracer.install()  # a patched name missing under src/ raises KeyError here
        during = snapshot()
    finally:
        tracer.uninstall()
    patched = {key for key, value in during.items() if before.get(key) is not value}
    assert patched and patched <= before.keys()  # only names that already existed were rebound
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
