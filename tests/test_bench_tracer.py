"""The benchmark's span tracer (``benchmarks/spans.py``) rebinds ``utrop``
names by attribute lookup, so renaming or deleting one of them under
``src/`` breaks ``benchmarks/run.py --trace 1``, and a Groebner run that
does not go through a module's ``groebner_basis`` name is invisible to it.
These tests catch both in the test suite instead."""

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


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_patches_existing_names_and_restores_them():
    spans = load_spans()
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


def test_certify_runs_every_groebner_role_through_the_traced_entry_point(tmp_path):
    from utrop import cli
    from utrop.fans import assemble_fan
    from utrop.symtrees import build_complex
    from utrop.ualgebra import ideal_c
    from utrop.ualgebra.signed import cone_orbits

    spans = load_spans()
    fan = assemble_fan(build_complex("as", 3), "c", check_intersections=False)
    weights = [fan.interior_point(f) for f in fan.proper_faces()]
    members = next(m for _, m in cone_orbits(ideal_c(3), weights) if m[0][0] == 1)
    cones = f"{members[0][0]},{members[1][0]}"  # two cones of one orbit
    # under +,+,-,+,+,+ their searches run bases and find no point, so the
    # saturation run still answers in_trop
    argv = ["certify", "--kind", "c", "--n", "3", "--sign=+,+,-,+,+,+", "--cones", cones,
            "--out", str(tmp_path / "cert.json")]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    recorded = tracer.take()
    roles = set()
    for rec in recorded:
        if rec[spans.NAME] == "groebner.groebner_basis" and "pairs" in (rec[spans.INFO] or {}):
            parent = recorded[rec[spans.PARENT]][spans.NAME] if rec[spans.PARENT] >= 0 else ""
            roles.add(spans.GROEBNER_ROLES.get(parent, "other"))
    # an orbit's cones share its representative's runs, so none is a grevlex run
    assert roles == {"weighted", "saturation", "search"}
