"""CLI behavior: outputs, determinism, exit codes, and round trips."""

import concurrent.futures
import hashlib
import json
import pickle
from types import SimpleNamespace

import pytest

from utrop import cli, fans
from utrop.cli import EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, _canonical_json, _sha256, main
from utrop.errors import GroebnerBudgetError
from utrop.fans import Fan
from utrop.symtrees import Complex


class InProcessPool:
    """An in-process stand-in for ``ProcessPoolExecutor``: it runs each task
    when it is submitted and starts no process.  Its futures hold a task's
    exception until ``result()``, as a process pool's do."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


@pytest.fixture
def pool_sizes(monkeypatch):
    """Put :class:`InProcessPool` in place of ``ProcessPoolExecutor``; the
    returned list gets the worker count that each pool was asked for."""
    asked = []

    def pool(max_workers, mp_context=None):
        asked.append(max_workers)
        return InProcessPool()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return asked


def run(tmp_path, *argv):
    return main(list(argv))


def load(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timing(doc):
    doc = json.loads(json.dumps(doc))
    doc["manifest"].pop("timing_seconds")
    return doc


def canonical(obj):
    return json.loads(json.dumps(obj))


def test_enumerate_counts(tmp_path):
    out = tmp_path / "orderings.json"
    assert run(tmp_path, "enumerate", "--n", "5", "--out", str(out)) == EXIT_OK
    doc = load(out)
    assert doc["count"] == 12
    assert len(doc["orderings"]) == 12
    assert run(tmp_path, "enumerate", "--n", "3", "--symmetry", "axial", "--out", str(out)) == EXIT_OK
    assert load(out)["count"] == 12
    assert run(tmp_path, "enumerate", "--n", "3", "--symmetry", "central", "--out", str(out)) == EXIT_OK
    assert load(out)["count"] == 4


def test_usage_errors(tmp_path):
    assert run(tmp_path, "enumerate", "--n", "2") == EXIT_USAGE
    assert run(tmp_path, "complex", "--family", "zzz", "--n", "5") == EXIT_USAGE
    assert run(tmp_path, "certify", "--kind", "c", "--n", "3", "--sign", "+,+") == EXIT_USAGE
    for jobs in ("0", "-1"):
        assert run(tmp_path, "certify", "--kind", "c", "--n", "3", "--jobs", jobs) == EXIT_USAGE
    # a negative probe count or pair budget is rejected, not run as none or
    # as no budget at all
    out = tmp_path / "cert.json"
    for flag, value in (("--probes", "-3"), ("--max-pairs", "-1")):
        argv = ["certify", "--kind", "c", "--n", "3", "--cones", "0", flag, value, "--out", str(out)]
        assert run(tmp_path, *argv) == EXIT_USAGE
    assert not out.exists()


def test_certify_rejects_bad_cone_indices(tmp_path, capsys):
    # --cones takes indices of proper faces: c3 has 34, numbered 0..33
    out = tmp_path / "cert.json"
    for cones, message in [
        ("x", "bad cone index 'x'"),
        ("0,999", "cone index 999 is outside 0..33"),
        ("-1", "cone index -1 is outside 0..33"),
        ("", "bad cone index ''"),  # an empty list is not "every cone"
    ]:
        code = run(tmp_path, "certify", "--kind", "c", "--n", "3", "--cones", cones, "--out", str(out))
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_complex_command_round_trip(tmp_path):
    out = tmp_path / "cx.json"
    dot = tmp_path / "cx.dot"
    code = run(
        tmp_path,
        "complex", "--family", "as", "--n", "3",
        "--out", str(out), "--dot", str(dot),
        "--highlight-as", "1,2,3,-3,-2,-1",
        "--highlight-cs", "1,-2,3,-1,2,-3",
    )
    assert code == EXIT_OK
    doc = load(out)
    assert len(doc["vertices"]) == 13
    assert len([f for f in doc["faces"] if len(f) == 2]) == 21
    back = Complex.from_json(doc)
    assert canonical(back.to_json()) == {k: v for k, v in doc.items() if k != "manifest"}
    text = dot.read_text()
    assert text.count("color=red") == 5
    assert text.count("color=blue") == 6
    assert "// manifest:" in text


@pytest.mark.parametrize("ordering,message", [
    ("1,x,3", "bad ordering '1,x,3': labels are integers"),
    ("1,2,-2,-1", "ordering '1,2,-2,-1' does not use the labels [-3, -2, -1, 1, 2, 3]"),
])
def test_complex_rejects_bad_highlight_orderings(tmp_path, capsys, ordering, message):
    # a label that is not an integer, and an ordering of another polygon
    out, dot = tmp_path / "cx.json", tmp_path / "cx.dot"
    for flag in ("--highlight-as", "--highlight-cs"):
        code = run(
            tmp_path, "complex", "--family", "as", "--n", "3",
            "--out", str(out), "--dot", str(dot), flag, ordering,
        )
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
    assert not out.exists() and not dot.exists()


def test_fan_command_round_trip(tmp_path):
    out = tmp_path / "fan.json"
    rays = tmp_path / "rays.txt"
    assert run(
        tmp_path, "fan", "--kind", "c", "--n", "3",
        "--out", str(out), "--rays", str(rays), "--skip-intersections",
    ) == EXIT_OK
    doc = load(out)
    back = Fan.from_json(doc)
    assert canonical(back.to_json()) == {k: v for k, v in doc.items() if k != "manifest"}
    matrix_lines = [l for l in rays.read_text().splitlines() if l and not l.startswith("#")]
    assert len(matrix_lines) == 13
    assert all(len(l.split()) == 6 for l in matrix_lines)


def test_fan_a4_has_three_rays(tmp_path):
    out = tmp_path / "fan4.json"
    assert run(tmp_path, "fan", "--kind", "a", "--n", "4", "--out", str(out)) == EXIT_OK
    assert len(load(out)["complex"]["vertices"]) == 3


# sha256 of the canonical payload of `utrop fan --kind a --n 6`, recorded
# from the per-ordering builder; any change to a cone, a face or the facet
# relation of that fan changes it
FAN_A6_OUTPUT_HASH = "96a2e48a7f300ce7bab358bcf5c80b4c30253fff52c28a4a4b5bc5e5670d5800"

# sha256 of the canonical payload of `utrop fan --kind a --n 7
# --skip-intersections`, the fan-build benchmark's a7 command, recorded
# before the complex computed its facet relation in one pass
FAN_A7_OUTPUT_HASH = "8b7e4c97672f6e68f5317be6e22ea9927b0d84e769f1f2d1bbc4e197e0c7ab66"

# output hashes of `utrop certify --kind c --n 3` with the two published
# sign patterns and of `utrop certify --kind a --n 5`; any change to a
# verdict, a witness or a cone's stats changes them.  The c3 hash was
# recorded when cones started sharing Groebner work across symmetry orbits:
# a member cone's stats describe its transport run (a grevlex run from the
# permuted basis of its representative), with `image_of` and `permutation`.
# The a5 report has no sign patterns, hence no stats, and kept its hash.
CERTIFY_C3_OUTPUT_HASH = "4eb5626036dd664db0d92e0cab1c6e936f453e851f5adcd6366070d686c66b56"
CERTIFY_A5_OUTPUT_HASH = "c21edf7ab0ee1b3c4de37b7dd47d08fa3b09d9def3dd4f96c1c7a5cc92032b7f"

# sha256 of the same c3 report's canonical payload without the manifest and
# without every cone's `signed[*].stats`, recorded when each cone still ran
# its own weighted Groebner basis: the verdicts and witnesses must not move
CERTIFY_C3_STATS_FREE_HASH = "8dc7d197b24131ae2460c3ef8e3d5080bc4a3a0ce34d5b4f8a403688f3ad5029"


def stats_free_hash(doc):
    doc = json.loads(json.dumps(doc))
    doc.pop("manifest")
    for cone in doc["cones"]:
        for cert in cone["signed"].values():
            cert.pop("stats")
    return _sha256(_canonical_json(doc))


# sha256 of the canonical payload of `utrop fan --kind c --n 4
# --skip-intersections`, recorded from the builder that made one tree per
# subdivision and looked each contraction child up by its tree
FAN_C4_OUTPUT_HASH = "7627ea69587c8298c4717ab851e76a4ed7eb22963a4eff31ebc158513b2fcef9"


def test_fan_c4_golden_digest(tmp_path):
    out = tmp_path / "fan_c4.json"
    assert run(tmp_path, "fan", "--kind", "c", "--n", "4", "--skip-intersections", "--out", str(out)) == EXIT_OK
    doc = load(out)
    payload = {k: v for k, v in doc.items() if k != "manifest"}
    assert _sha256(_canonical_json(payload)) == FAN_C4_OUTPUT_HASH
    assert doc["manifest"]["output_hash"] == FAN_C4_OUTPUT_HASH


def test_fan_a6_golden_digest(tmp_path, monkeypatch):
    # the pairwise-intersection check runs by default at this size
    checked = []
    check = fans._check_pairwise_intersections

    def counted_check(fan):
        checked.append(fan)
        check(fan)

    monkeypatch.setattr(fans, "_check_pairwise_intersections", counted_check)
    out = tmp_path / "fan6.json"
    assert run(tmp_path, "fan", "--kind", "a", "--n", "6", "--out", str(out)) == EXIT_OK
    assert len(checked) == 1
    doc = load(out)
    payload = {k: v for k, v in doc.items() if k != "manifest"}
    assert _sha256(_canonical_json(payload)) == FAN_A6_OUTPUT_HASH
    assert doc["manifest"]["output_hash"] == FAN_A6_OUTPUT_HASH


def test_fan_a7_golden_digest(tmp_path):
    out = tmp_path / "fan_a7.json"
    assert run(tmp_path, "fan", "--kind", "a", "--n", "7", "--skip-intersections", "--out", str(out)) == EXIT_OK
    doc = load(out)
    payload = {k: v for k, v in doc.items() if k != "manifest"}
    assert _sha256(_canonical_json(payload)) == FAN_A7_OUTPUT_HASH
    assert doc["manifest"]["output_hash"] == FAN_A7_OUTPUT_HASH


@pytest.mark.parametrize(
    "argv",
    [
        ["fan", "--kind", "a", "--n", "5"],
        ["certify", "--kind", "c", "--n", "3", "--cones", "0,5"],
        ["enumerate", "--n", "5"],
    ],
)
def test_artifact_is_canonical_payload_then_manifest(tmp_path, monkeypatch, capsys, argv):
    # a fixed clock makes the manifest's timing, and so the whole text, repeatable
    monkeypatch.setattr(cli, "time", SimpleNamespace(time=lambda: 0.0))
    out = tmp_path / "artifact.json"
    assert run(tmp_path, *argv, "--out", str(out)) == EXIT_OK
    text = out.read_text()
    doc = json.loads(text)
    body = text[: text.rindex(',"manifest":')] + "}"
    assert doc["manifest"]["output_hash"] == hashlib.sha256(body.encode()).hexdigest()
    assert body == _canonical_json({k: v for k, v in doc.items() if k != "manifest"})
    assert text == body[:-1] + ',"manifest":' + _canonical_json(doc["manifest"]) + "}\n"
    capsys.readouterr()
    assert run(tmp_path, *argv, "--out", "-") == EXIT_OK
    assert capsys.readouterr().out == text


def test_certify_a4_signed_and_probes(tmp_path):
    out = tmp_path / "cert.json"
    code = run(
        tmp_path,
        "certify", "--kind", "a", "--n", "4", "--sign", "+,+",
        "--probes", "8", "--out", str(out),
    )
    assert code == EXIT_OK
    doc = load(out)
    assert doc["faces_total"] == 3
    assert doc["all_in_trop"] is True
    assert doc["signed_member_counts"]["+,+"] == 2
    assert doc["inconclusive"] == 0
    assert doc["probe_mismatches"] == 0
    assert len(doc["probes"]) == 8


def test_certify_resource_cap(tmp_path):
    assert run(tmp_path, "certify", "--kind", "c", "--n", "4") == EXIT_RESOURCE
    # an exhausted pair budget also exits with the resource code
    assert run(
        tmp_path, "certify", "--kind", "c", "--n", "3", "--max-pairs", "1"
    ) == EXIT_RESOURCE
    # an explicit raise of the cap is honored (but keep it cheap: restrict
    # to a single small cone)
    out = tmp_path / "cert_c.json"
    code = run(
        tmp_path,
        "certify", "--kind", "c", "--n", "3", "--cones", "0", "--out", str(out),
    )
    assert code == EXIT_OK
    assert load(out)["faces_total"] == 1


def test_certify_budget_exhausted_in_a_worker_exits_resource(tmp_path, capsys):
    # the budget error raised in a pool worker must cross back to the parent
    out = tmp_path / "cert.json"
    assert run(
        tmp_path, "certify", "--kind", "c", "--n", "3", "--max-pairs", "1", "--jobs", "2",
        "--out", str(out),
    ) == EXIT_RESOURCE
    assert not out.exists()
    assert "Groebner pair budget exhausted" in capsys.readouterr().err


def test_certify_pool_never_outnumbers_the_orbits(tmp_path, pool_sizes):
    asked = pool_sizes
    out = tmp_path / "cert.json"
    args = ["certify", "--kind", "c", "--n", "3", "--sign=+,+,+,+,-,+", "--out", str(out)]
    assert run(tmp_path, *args, "--jobs", "64") == EXIT_OK
    assert asked == [11]  # c3: 34 cones in 11 orbits
    assert load(out)["faces_total"] == 34
    # cones 0 and 1 lie in two orbits; a single orbit runs in process
    assert run(tmp_path, *args, "--jobs", "8", "--cones", "0,1") == EXIT_OK
    assert run(tmp_path, *args, "--jobs", "8", "--cones", "0") == EXIT_OK
    assert asked == [11, 2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_certify_orbit_error_propagates(tmp_path, monkeypatch, pool_sizes, fan_c3, ideal_c3, jobs):
    from utrop.fans import interior_point
    from utrop.ualgebra import signed

    weights = [interior_point(fan_c3.cones[f]).vector for f in fan_c3.proper_faces()]
    faulty = tuple(weights[1])  # cone 1 leads the second of the 11 orbits
    original = signed.orbit_certifiers

    def orbit_certifiers(ideal, w, *args):
        if tuple(w) == faulty:
            raise RuntimeError("injected fault")
        return original(ideal, w, *args)

    monkeypatch.setattr(signed, "orbit_certifiers", orbit_certifiers)
    # an unexpected error is neither a verdict nor a budget record
    with pytest.raises(RuntimeError, match="injected fault"):
        signed.certify_weights(ideal_c3, weights, [(1, 1, 1, 1, -1, 1)], jobs=jobs)
    out = tmp_path / "cert.json"
    argv = ["certify", "--kind", "c", "--n", "3", "--sign=+,+,+,+,-,+", "--jobs", str(jobs), "--out", str(out)]
    with pytest.raises(RuntimeError, match="injected fault"):  # no exit code, 0 least of all
        main(argv)
    assert not out.exists()


def test_budget_error_pickle_round_trip():
    err = GroebnerBudgetError(5, 5, zero_reductions=2, basis_size=9)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is GroebnerBudgetError
    assert str(back) == str(err)
    assert (back.pairs_processed, back.budget) == (5, 5)
    assert back.stats == err.stats == {"pairs": 5, "zero_reductions": 2, "basis_size": 9}


def test_certify_parallel_jobs_match_serial(tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    args = ["certify", "--kind", "a", "--n", "4", "--sign=+,-"]
    assert run(tmp_path, *args, "--out", str(serial)) == EXIT_OK
    assert run(tmp_path, *args, "--jobs", "2", "--out", str(parallel)) == EXIT_OK
    a, b = strip_timing(load(serial)), strip_timing(load(parallel))
    assert a == b


def test_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert run(
            tmp_path, "certify", "--kind", "a", "--n", "5", "--probes", "3", "--out", str(out)
        ) == EXIT_OK
    assert strip_timing(load(out1)) == strip_timing(load(out2))
    assert load(out1)["manifest"]["output_hash"] == load(out2)["manifest"]["output_hash"]


def test_report_verdicts_parse_back(tmp_path):
    from utrop.ualgebra import Verdict

    out = tmp_path / "r.json"
    assert run(
        tmp_path, "certify", "--kind", "a", "--n", "4", "--sign=-,+", "--out", str(out)
    ) == EXIT_OK
    doc = load(out)
    for cone in doc["cones"]:
        for cert in cone["signed"].values():
            Verdict(cert["verdict"])  # every verdict string is a valid enum value
            assert "witness" in cert and "stats" in cert
    assert canonical(doc) == json.loads(json.dumps(doc))


def test_certify_c3_full_reproduction(tmp_path):
    # the headline run: all 34 cones in the tropicalization, and the two
    # published sign patterns carving out their 12- and 10-face subfans
    out = tmp_path / "c3.json"
    code = run(
        tmp_path,
        "certify", "--kind", "c", "--n", "3",
        "--sign", "+,+,+,+,-,+", "--sign", "+,+,-,+,+,+",
        "--out", str(out),
    )
    assert code == EXIT_OK
    doc = load(out)
    assert doc["faces_total"] == 34
    assert doc["all_in_trop"] is True
    assert doc["inconclusive"] == 0
    assert doc["signed_member_counts"] == {"+,+,+,+,-,+": 12, "+,+,-,+,+,+": 10}
    assert stats_free_hash(doc) == CERTIFY_C3_STATS_FREE_HASH
    assert doc["manifest"]["output_hash"] == CERTIFY_C3_OUTPUT_HASH


def test_certify_a5_golden_digest(tmp_path):
    out = tmp_path / "a5.json"
    assert run(tmp_path, "certify", "--kind", "a", "--n", "5", "--out", str(out)) == EXIT_OK
    assert load(out)["manifest"]["output_hash"] == CERTIFY_A5_OUTPUT_HASH


def test_certify_c3_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    args = ["certify", "--kind", "c", "--n", "3", "--sign", "+,+,+,+,-,+"]
    assert run(tmp_path, *args, "--out", str(serial)) == EXIT_OK
    assert run(tmp_path, *args, "--jobs", "2", "--out", str(parallel)) == EXIT_OK
    assert strip_timing(load(serial)) == strip_timing(load(parallel))
    # stats included: the workers transported the same members
    members = [
        c for c in load(parallel)["cones"] if "image_of" in c["signed"]["+,+,+,+,-,+"]["stats"]
    ]
    assert len(members) == 34 - 11


def test_certify_selected_cones_match_the_full_run(tmp_path):
    full, some = tmp_path / "full.json", tmp_path / "some.json"
    args = ["certify", "--kind", "c", "--n", "3", "--sign=+,+,+,+,-,+", "--sign=+,+,-,+,+,+"]
    assert run(tmp_path, *args, "--out", str(full)) == EXIT_OK
    assert run(tmp_path, *args, "--cones", "0,5,20", "--out", str(some)) == EXIT_OK

    def verdicts(cone):
        return cone["in_trop"], {
            tau: (cert["verdict"], cert["witness"]) for tau, cert in cone["signed"].items()
        }

    cones = load(full)["cones"]
    chosen = load(some)["cones"]
    assert [c["face"] for c in chosen] == [cones[i]["face"] for i in (0, 5, 20)]
    assert [verdicts(c) for c in chosen] == [verdicts(cones[i]) for i in (0, 5, 20)]


def test_emit_cas_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.m2", tmp_path / "b.m2"
    assert run(tmp_path, "emit-cas", "--kind", "c", "--n", "3", "--out", str(f1)) == EXIT_OK
    assert run(tmp_path, "emit-cas", "--kind", "c", "--n", "3", "--out", str(f2)) == EXIT_OK
    strip = lambda t: "\n".join(l for l in t.splitlines() if not l.startswith("-- manifest:"))
    assert strip(f1.read_text()) == strip(f2.read_text())
    text = f1.read_text()
    assert text.count("ideal(") >= 1
    assert "u2xm2*u3xm3*u2xm3^2" in text.replace("(1)*", "")
    assert text.count("checkWeight") >= 35  # definition + 34 cones


def test_emit_cas_a5_has_five_generators(tmp_path):
    f1 = tmp_path / "a5.m2"
    assert run(tmp_path, "emit-cas", "--kind", "a", "--n", "5", "--out", str(f1)) == EXIT_OK
    body = f1.read_text().split("ideal(")[1].split(");")[0]
    assert body.count("\n") >= 5
