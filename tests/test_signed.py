"""Signed certification: soundness of the certificates and the worked
doubled-hexagon sign patterns.

The exact Member/NonMember content of the two published patterns is
asserted in the acceptance suite; here the focus is on certificate
soundness (witnesses verify) and on the engine's smaller moving parts.
"""

from fractions import Fraction

import pytest

from utrop.errors import InvalidArgumentError
from utrop.fans import interior_point
from utrop.symtrees import DihedralOrdering, Symmetry, build_sub
from utrop.ualgebra import Verdict, certify_signed, ideal_a, initial_ideal, sign_twist
from utrop.ualgebra.groebner import NormalFormCalculator, groebner_basis
from utrop.ualgebra.initial import twist_poly
from utrop.ualgebra.poly import Poly, grevlex
from utrop.ualgebra.signed import (
    all_positive_element_search,
    positive_point_search,
)


def test_positive_point_search_solves_triangular_system():
    # u2 = 1, u1*u3 = 2, u3 + u4 = 1
    gens = [
        Poly(4, {(0, 1, 0, 0): 1, (0, 0, 0, 0): -1}),
        Poly(4, {(1, 0, 1, 0): 1, (0, 0, 0, 0): -2}),
        Poly(4, {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1, (0, 0, 0, 0): -1}),
    ]
    point = positive_point_search(gens, 4)
    assert point is not None
    vec = [point[i] for i in range(4)]
    assert all(v > 0 for v in vec)
    assert all(g.evaluate(vec) == 0 for g in gens)


def test_positive_point_search_detects_sign_definite():
    gens = [Poly(2, {(1, 0): 1, (0, 1): 2})]  # u1 + 2 u2: positive on the orthant
    assert positive_point_search(gens, 2) is None


def test_positive_point_search_needs_matching_halves():
    # u1 = u2 and u1 + u2 = 1 forces u1 = u2 = 1/2
    gens = [
        Poly(2, {(1, 0): 1, (0, 1): -1}),
        Poly(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1}),
    ]
    point = positive_point_search(gens, 2)
    assert point == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_kth_root_solving():
    # u1^3 = 27/8 has the rational root 3/2
    gens = [Poly(1, {(3,): 8, (0,): -27})]
    point = positive_point_search(gens, 1)
    assert point == {0: Fraction(3, 2)}
    # u1^2 = 2 has no rational root and no other exit: no point found
    assert positive_point_search([Poly(1, {(2,): 1, (0,): -2})], 1) is None


def test_all_positive_element_search_finds_combination():
    # the ideal contains (u1 + u3) + (u3 + u2) with all-positive coefficients
    order = grevlex(3)
    gens = [
        Poly(3, {(1, 0, 0): 1, (0, 0, 1): 1}),
        Poly(3, {(0, 1, 0): 1, (0, 0, 1): 1}),
    ]
    nf = NormalFormCalculator(groebner_basis(gens, order), order)
    elt = all_positive_element_search(nf, 3, 2)
    assert elt is not None
    assert elt.coefficient_signs() == {1}
    assert not nf.reduce(elt)


def test_all_positive_element_absent_for_positive_variety():
    order = grevlex(2)
    gens = [Poly(2, {(1, 0): 1, (0, 1): -1})]  # u1 = u2 has positive points
    nf = NormalFormCalculator(groebner_basis(gens, order), order)
    assert all_positive_element_search(nf, 2, 3) is None


def test_certify_signed_type_a_positive_part():
    ideal = ideal_a(4)
    # rays of the candidate line: direction (0,1), (1,0), (-1,-1)
    assert certify_signed(ideal, (1, 1), (0, 1)).verdict is Verdict.MEMBER
    assert certify_signed(ideal, (1, 1), (1, 0)).verdict is Verdict.MEMBER
    assert certify_signed(ideal, (1, 1), (-1, -1)).verdict is Verdict.NON_MEMBER


def test_every_realized_pattern_matches_its_ordering_n4():
    # each of the three realized sign patterns certifies exactly the two
    # rays of the trees compatible with its ordering
    from utrop.fans import cone_rays
    from utrop.symtrees import enumerate_orderings, is_compatible, build_complex
    from utrop.ualgebra import sign_pattern_a

    ideal = ideal_a(4)
    theta4 = build_complex("a", 4)
    rays = {v: cone_rays(v, "a").rays[0] for v in theta4.vertices}
    for alpha in enumerate_orderings(4):
        tau = sign_pattern_a(alpha)
        for tree, ray in rays.items():
            verdict = certify_signed(ideal, tau, ray).verdict
            expected = Verdict.MEMBER if is_compatible(tree, alpha) else Verdict.NON_MEMBER
            assert verdict is expected


def test_member_witness_is_a_positive_zero(certifiers_c3, ideal_c3):
    blue = (1, 1, 1, 1, -1, 1)
    checked = 0
    for face, w, certifier in certifiers_c3:
        cert = certifier.certify(blue)
        if cert.verdict is not Verdict.MEMBER:
            continue
        point = [Fraction(n, d) for n, d in cert.witness["point"]]
        assert all(v > 0 for v in point)
        twisted_initial = initial_ideal(sign_twist(ideal_c3, blue), w)
        assert all(g.evaluate(point) == 0 for g in twisted_initial.generators)
        checked += 1
    assert checked == 12


def test_nonmember_witnesses_are_all_positive_elements(certifiers_c3, ideal_c3):
    blue = (1, 1, 1, 1, -1, 1)
    seen = 0
    for face, w, certifier in certifiers_c3:
        cert = certifier.certify(blue)
        if cert.verdict is not Verdict.NON_MEMBER:
            continue
        seen += 1
        assert cert.witness["type"] in ("all_positive_element", "monomial_in_initial_ideal")
    assert seen == 22


def test_subfan_membership_matches_subcomplex(certifiers_c3, fan_c3):
    red_alpha = DihedralOrdering.make([1, 2, 3, -3, -2, -1], Symmetry.AXIAL)
    red = (1, 1, -1, 1, 1, 1)
    sub = build_sub(red_alpha)
    expected = {
        sub.face_tree(f).canonical_key for f in sub.faces if f
    }
    got = set()
    for face, w, certifier in certifiers_c3:
        if certifier.certify(red).verdict is Verdict.MEMBER:
            got.add(fan_c3.complex.face_tree(face).canonical_key)
    assert got == expected


def test_verdicts_independent_of_search_seed(certifiers_c3, monkeypatch):
    # witnesses may differ across seeds; verdicts must not
    import utrop.ualgebra.signed as signed_mod

    blue = (1, 1, 1, 1, -1, 1)
    baseline = [c.certify(blue).verdict for _, _, c in certifiers_c3]
    monkeypatch.setattr(signed_mod, "SEARCH_SEED", 987654321)
    assert [c.certify(blue).verdict for _, _, c in certifiers_c3] == baseline


def test_sweep_flags_budget_exhaustion(fan_c3, ideal_c3):
    # with an impossible pair budget the sweep must flag itself partial and
    # list the skipped cones instead of failing silently
    from utrop.ualgebra.signed import search_sign_patterns_c

    rep = search_sign_patterns_c(3, fan_c3, ideal_c3, max_pairs=1)
    assert rep["partial"] is True
    assert len(rep["skipped_faces"]) == 34
    assert rep["matches_conjecture"] is False


def test_certify_signed_validates_pattern():
    with pytest.raises(InvalidArgumentError):
        certify_signed(ideal_a(4), (1, 0), (0, 1))
    with pytest.raises(InvalidArgumentError):
        certify_signed(ideal_a(4), (1, 1, 1), (0, 1))


def test_cone_certifier_validates_pattern(certifiers_c3, ideal_c3):
    certifier = certifiers_c3[0][2]
    for bad in ((1, 1), (1, 1, 1, 1, 0, 1)):  # short, and an entry that is not +-1
        with pytest.raises(InvalidArgumentError):
            certifier.certify(bad)
        with pytest.raises(InvalidArgumentError):
            sign_twist(ideal_c3, bad)


PUBLISHED_C3_PATTERNS = ((1, 1, 1, 1, -1, 1), (1, 1, -1, 1, 1, 1))


def test_initial_generators_are_the_reduced_grevlex_basis(certifiers_c3, ideal_c3):
    # the certifier twists these generators in place of a grevlex run of its
    # own, so they must be the reduced basis, untwisted and twisted
    order = grevlex(ideal_c3.nvars)
    for _, w, certifier in certifiers_c3:
        gens = list(certifier.initial.generators)
        assert gens == groebner_basis(gens, order)
        for tau in PUBLISHED_C3_PATTERNS:
            twisted = list(initial_ideal(sign_twist(ideal_c3, tau), w).generators)
            assert twisted == groebner_basis(twisted, order)
            # twisting maps the reduced basis onto the twisted one, up to sign
            flipped = [twist_poly(g, tau) for g in gens]
            assert twisted == [g if g.terms[order.leading_monomial(g)] > 0 else -g for g in flipped]


def test_cone_certifier_runs_two_groebner_bases(fan_c3, ideal_c3, monkeypatch):
    import utrop.ualgebra.groebner as groebner_mod
    import utrop.ualgebra.initial as initial_mod
    import utrop.ualgebra.signed as signed_mod

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return groebner_basis(*args, **kwargs)

    for mod in (groebner_mod, initial_mod, signed_mod):
        monkeypatch.setattr(mod, "groebner_basis", counting)
    face = fan_c3.proper_faces()[0]
    signed_mod.ConeCertifier(ideal_c3, interior_point(fan_c3.cones[face]).vector)
    assert len(calls) == 2  # the weighted run, then the saturation run
