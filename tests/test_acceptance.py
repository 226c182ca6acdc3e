"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  Every tolerance is exact (integer/rational equality); the stated
wall-clock targets are asserted as hard bounds.
"""

import math
import random
import time
from fractions import Fraction

from utrop.fans import assemble_fan
from utrop.symtrees import (
    DihedralOrdering,
    PhyloTree,
    Symmetry,
    build_complex,
    build_sub,
    delta_as_iso,
    enumerate_coarsest,
    enumerate_orderings,
    make_split,
)
from utrop.ualgebra import (
    ConeCertifier,
    Verdict,
    cross_ratio_point,
    ideal_a,
    ideal_c,
    initial_ideal,
)
N3 = [1, 2, 3, -1, -2, -3]


def t3(*sides):
    return PhyloTree.make(N3, [make_split(side, set(N3) - set(side)) for side in sides])


def report(num, ok, detail, t0, limit):
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail} ({elapsed:.2f}s, limit {limit}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s target ({elapsed:.2f}s)"


def test_criterion_01_counting_suite():
    t0 = time.time()
    ok = True
    for n in range(3, 8):
        ok &= len(enumerate_orderings(n)) == math.factorial(n - 1) // 2
    for n in range(3, 6):
        ok &= len(enumerate_orderings(n, Symmetry.AXIAL)) == 2 ** (n - 2) * math.factorial(n)
        ok &= len(enumerate_orderings(n, Symmetry.CENTRAL)) == 2 ** (n - 2) * math.factorial(n - 1)
    for n in range(3, 7):
        alpha = DihedralOrdering.make(range(1, n + 1))
        ok &= len(enumerate_coarsest(alpha)) == n * (n - 3) // 2
    for n in range(3, 7):
        ax = enumerate_orderings(n, Symmetry.AXIAL)[0]
        cs = enumerate_orderings(n, Symmetry.CENTRAL)[0]
        ok &= len(enumerate_coarsest(ax)) == (n + 2) * (n - 1) // 2
        ok &= len(enumerate_coarsest(cs)) == n * (n - 1)
    report(1, ok, "ordering and coarsest-subdivision counts match the closed forms", t0, 60)


def test_criterion_02_petersen():
    t0 = time.time()
    theta5 = build_complex("a", 5)
    ok = (
        len(theta5.vertices) == 10
        and len(theta5.edges()) == 15
        and set(theta5.degree_sequence()) == {3}
        and theta5.girth() == 5
    )
    edge_sets = set()
    for alpha in enumerate_orderings(5):
        sub = build_sub(alpha)
        ok &= len(sub.vertices) == 5 and len(sub.edges()) == 5
        ok &= set(sub.degree_sequence()) == {2}
        ok &= theta5.contains_complex(sub)
        edge_sets.add(
            frozenset(
                frozenset((sub.vertices[a].canonical_key, sub.vertices[b].canonical_key))
                for a, b in sub.edges()
            )
        )
    ok &= len(edge_sets) == 12
    report(2, ok, "the plain complex at n=5 is the Petersen graph with 12 pentagon subcomplexes", t0, 1)


def test_criterion_03_axial_and_central_n3():
    t0 = time.time()
    theta_as3 = build_complex("as", 3)
    theta_cs3 = build_complex("cs", 3)
    ok = len(theta_as3.vertices) == 13 and len(theta_as3.edges()) == 21
    ok &= len(theta_cs3.vertices) == 10 and len(theta_cs3.edges()) == 12
    ok &= theta_as3.contains_complex(theta_cs3)
    report(3, ok, "axial complex 13/21, central complex 10/12, contained face-by-face", t0, 1)


def test_criterion_04_axial_complex_identification():
    t0 = time.time()
    ok = True
    for n in (3, 4):
        alpha = enumerate_orderings(n, Symmetry.AXIAL)[0]
        axial, plain, fm = delta_as_iso(alpha)
        ok &= len(fm) == len(axial.faces) == len(plain.faces)
        ok &= len(set(fm.values())) == len(plain.faces)
        faces = list(axial.faces)
        ok &= all((f1 <= f2) == (fm[f1] <= fm[f2]) for f1 in faces for f2 in faces)
    report(4, ok, "axial complexes are order-isomorphic to the plain (n+2)-gon complexes", t0, 10)


TABLE_RAYS = [
    (t3({1, -2, -3}), (1, 0, 0, 0, 0, 0)),
    (t3({1, 2, -3}), (0, 1, 0, 0, 0, 0)),
    (t3({1, 2, 3}), (0, 0, 1, 0, 0, 0)),
    (t3({2, 3}, {-2, -3}), (0, 0, 0, 1, 0, 0)),
    (t3({1, -3}, {-1, 3}), (0, 0, 0, 0, 1, 0)),
    (t3({1, 2}, {-1, -2}), (0, 0, 0, 0, 0, 1)),
    (t3({1, -1}), (-1, 0, -1, 1, 0, 0)),
    (t3({2, -2}), (-1, -1, 0, 0, 1, 0)),
    (t3({3, -3}), (0, -1, -1, 0, 0, 1)),
    (t3({1, -2}, {-1, 2}), (2, 0, 0, -1, -1, 0)),
    (t3({2, -3}, {-2, 3}), (0, 2, 0, 0, -1, -1)),
    (t3({1, 3}, {-1, -3}), (0, 0, 2, -1, 0, -1)),
    (t3({1, -2, 3}), (1, 1, 1, -1, -1, -1)),
]


def test_criterion_05_ray_table():
    t0 = time.time()
    fan_c3 = assemble_fan(build_complex("as", 3), "c", check_intersections=False)
    ok = fan_c3.index_set.pairs == ((1, -1), (2, -2), (3, -3), (1, 3), (1, -2), (2, -3))
    vertices = fan_c3.complex.vertices
    got = {vertices[min(f)].canonical_key: rays for f, rays in fan_c3.cones.items() if len(f) == 1}
    ok &= len(got) == 13
    for tree, expected in TABLE_RAYS:
        ok &= got.get(tree.canonical_key) == (expected,)
    report(5, ok, "the 13 ray generators match the published table exactly", t0, 1)


def test_criterion_06_unsigned_certification():
    # computed from scratch so the reported time covers the whole pipeline:
    # ideal, fan, weighted initial ideal and saturation per cone
    t0 = time.time()
    ideal = ideal_c(3)
    fan = assemble_fan(build_complex("as", 3), "c", check_intersections=False)
    faces = fan.proper_faces()
    ok = len(faces) == 34
    ok &= sum(1 for f in faces if len(f) == 1) == 13
    ok &= sum(1 for f in faces if len(f) == 2) == 21
    for f in faces:
        w = fan.interior_point(f)
        ok &= ConeCertifier(ideal, w).monomial_free
    report(6, ok, "all 13 rays and 21 two-dimensional cones have monomial-free initial ideals", t0, 300)


def test_criterion_07_signed_subfans():
    t0 = time.time()
    ideal = ideal_c(3)
    fan = assemble_fan(build_complex("as", 3), "c", check_intersections=False)
    pack = []
    for f in fan.proper_faces():
        w = fan.interior_point(f)
        pack.append((f, ConeCertifier(ideal, w)))
    cases = [
        ((1, 1, 1, 1, -1, 1), DihedralOrdering.make([1, -2, 3, -1, 2, -3], Symmetry.CENTRAL), 12),
        ((1, 1, -1, 1, 1, 1), DihedralOrdering.make([1, 2, 3, -3, -2, -1], Symmetry.AXIAL), 10),
    ]
    ok = True
    for tau, alpha, size in cases:
        sub = build_sub(alpha)
        expected = {sub.face_tree(f).canonical_key for f in sub.faces if f}
        ok &= len(expected) == size
        members, inconclusive = set(), 0
        for face, certifier in pack:
            cert = certifier.certify(tau)
            if cert.verdict is Verdict.MEMBER:
                members.add(fan.complex.face_tree(face).canonical_key)
            elif cert.verdict is Verdict.INCONCLUSIVE:
                inconclusive += 1
        ok &= members == expected and inconclusive == 0
    report(7, ok, "the two published sign patterns certify exactly their 6-cycle/5-cycle subfans", t0, 600)


def test_criterion_08_type_a_sanity(theta5):
    t0 = time.time()
    I4, I5 = ideal_a(4), ideal_a(5)
    fan4 = assemble_fan(build_complex("a", 4), "a")
    ok = len(fan4.rays()) == 3 and all(len(f) <= 1 for f in fan4.cones)
    for f in fan4.proper_faces():
        ok &= ConeCertifier(I4, fan4.interior_point(f)).monomial_free
    # off-fan probes must be rejected
    for probe in [(-1, -2), (1, 2), (2, 1), (-3, -1)]:
        ok &= not ConeCertifier(I4, probe).monomial_free
    fan5 = assemble_fan(theta5, "a", check_intersections=False)
    faces5 = fan5.proper_faces()
    ok &= len(faces5) == 25
    for f in faces5:
        ok &= ConeCertifier(I5, fan5.interior_point(f)).monomial_free
    # positive part at n=4: exactly the two coordinate rays and the origin
    verdicts = {}
    for f in fan4.proper_faces():
        w = fan4.interior_point(f)
        verdicts[w] = ConeCertifier(I4, w).certify((1, 1)).verdict
    ok &= verdicts[(0, 1)] is Verdict.MEMBER
    ok &= verdicts[(1, 0)] is Verdict.MEMBER
    ok &= verdicts[(-1, -1)] is Verdict.NON_MEMBER
    ok &= ConeCertifier(I4, (0, 0)).certify((1, 1)).verdict is Verdict.MEMBER  # origin
    report(8, ok, "the n=4 line and n=5 Petersen fans certify; positive part at n=4 is the 2-vertex complex", t0, 60)


def test_criterion_09_oracle_suite():
    t0 = time.time()
    import test_initial as oracle_mod

    ok = True
    rng = random.Random(424242)
    for _ in range(50):
        ideal = oracle_mod.random_small_ideal(rng)
        w = tuple(rng.randrange(-3, 4) for _ in range(ideal.nvars))
        got = initial_ideal(ideal, w)
        matched = False
        for cap in (6, 8, 10, 12):
            oracle = oracle_mod.oracle_initial_ideal(ideal, w, cap)
            ok &= oracle_mod.contains_all(got, oracle.generators)
            if oracle_mod.contains_all(oracle, got.generators):
                matched = True
                break
        ok &= matched
    rng = random.Random(7)
    checks = 0
    for n in (4, 5, 6, 7):
        ideal = ideal_a(n)
        for _ in range(25):
            den = rng.randrange(1, 4)
            xs = [Fraction(x, den) for x in rng.sample(range(-80, 80), n)]
            u = cross_ratio_point(xs)
            ok &= all(g.evaluate(u) == 0 for g in ideal.generators)
            checks += 1
    ok &= checks == 100
    report(9, ok, "50 initial-ideal oracle cases and 100 configuration points agree exactly", t0, 60)


def test_criterion_10_sign_pattern_census(census_c3):
    rep = census_c3
    matched = rep["matches_conjecture"]
    families = {"as": 0, "cs": 0, "other": 0}
    for p in rep["patterns"]:
        if p["member_count"] and p["matches"]:
            families[p["matches"]["family"]] += 1
        elif p["member_count"]:
            families["other"] += 1
    detail = (
        f"census: {rep['nonempty_count']} nonempty patterns vs conjectured "
        f"{rep['conjectured_count']} ({'agrees' if matched else 'DISCREPANCY - finding'}); "
        f"{families['as']} axial subfans, {families['cs']} central subfans, "
        f"{families['other']} unclassified; {rep['inconclusive_total']} inconclusive"
    )
    # reported, not asserted: the count comparison is a conjecture check;
    # the suite only requires the sweep to complete over all 64 patterns
    # with every verdict accounted for
    ok = len(rep["patterns"]) == 64 and not rep["partial"]
    print(f"[REPORT] criterion 10: {detail}")
    assert ok
