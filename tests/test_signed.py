"""Signed certification: soundness of the certificates and the worked
doubled-hexagon sign patterns.

The exact Member/NonMember content of the two published patterns is
asserted in the acceptance suite; here the focus is on certificate
soundness (witnesses verify) and on the engine's smaller moving parts.
"""

import itertools
from fractions import Fraction

import pytest

from utrop.errors import GroebnerBudgetError, InvalidArgumentError
from utrop.symtrees import DihedralOrdering, Symmetry, build_sub
from utrop.ualgebra import Verdict, ideal_a, initial_ideal, sign_twist
from utrop.ualgebra.groebner import NormalFormCalculator, groebner_basis
from utrop.ualgebra.ideals import Ideal, permute_weight
from utrop.ualgebra.initial import twist_poly
from utrop.ualgebra.poly import Poly, grevlex
from utrop.ualgebra.signed import (
    ConeCertifier,
    all_positive_element_search,
    certify_weights,
    cone_orbits,
    positive_point_search,
    sign_key,
)


def test_positive_point_search_solves_triangular_system():
    # u2 = 1, u1*u3 = 2, u3 + u4 = 1; the search takes a reduced basis
    gens = groebner_basis([
        Poly(4, {(0, 1, 0, 0): 1, (0, 0, 0, 0): -1}),
        Poly(4, {(1, 0, 1, 0): 1, (0, 0, 0, 0): -2}),
        Poly(4, {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1, (0, 0, 0, 0): -1}),
    ], grevlex(4))
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
    gens = groebner_basis([
        Poly(2, {(1, 0): 1, (0, 1): -1}),
        Poly(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1}),
    ], grevlex(2))
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
    assert ConeCertifier(ideal, (0, 1)).certify((1, 1)).verdict is Verdict.MEMBER
    assert ConeCertifier(ideal, (1, 0)).certify((1, 1)).verdict is Verdict.MEMBER
    assert ConeCertifier(ideal, (-1, -1)).certify((1, 1)).verdict is Verdict.NON_MEMBER


def test_every_realized_pattern_matches_its_ordering_n4():
    # each of the three realized sign patterns certifies exactly the two
    # rays of the trees compatible with its ordering
    from utrop.fans import cone_rays
    from utrop.symtrees import enumerate_orderings, is_compatible, build_complex
    from utrop.ualgebra import sign_pattern_a

    ideal = ideal_a(4)
    theta4 = build_complex("a", 4)
    rays = {v: cone_rays(v, "a")[0] for v in theta4.vertices}
    for alpha in enumerate_orderings(4):
        tau = sign_pattern_a(alpha)
        for tree, ray in rays.items():
            verdict = ConeCertifier(ideal, ray).certify(tau).verdict
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


@pytest.fixture
def search_runs(monkeypatch):
    """The systems that the search's Groebner runs start from, in order."""
    import utrop.ualgebra.signed as signed_mod

    runs = []

    def recording(system, *args, **kwargs):
        runs.append(list(system))
        return groebner_basis(system, *args, **kwargs)

    monkeypatch.setattr(signed_mod, "groebner_basis", recording)
    return runs


def test_search_runs_no_groebner_basis_before_substituting(search_runs, monkeypatch):
    # the search is given a reduced basis, so its first Groebner run is on
    # the first substituted system, and a hopeless root runs none
    import utrop.ualgebra.signed as signed_mod

    xy = Poly(2, {(1, 1): 1, (0, 0): -1})  # u1*u2 = 1: nothing forced, so u1 branches
    assert positive_point_search([xy], 2) == {0: Fraction(1), 1: Fraction(1)}
    assert search_runs[0] == [xy.substitute({0: Fraction(1)})]
    search_runs.clear()
    assert positive_point_search([Poly(2, {(1, 0): 1, (0, 1): 2})], 2) is None
    assert search_runs == []
    # the root spends a budget of one node, so no child starts a run
    monkeypatch.setattr(signed_mod, "NODE_BUDGET", 1)
    assert positive_point_search([xy], 2) is None
    assert search_runs == []


def test_search_groebner_runs_in_certify_c3(tmp_path, search_runs, monkeypatch):
    # certify c 3 with both published patterns: the search's runs alone,
    # not the certifiers' weighted and saturation runs
    import utrop.ualgebra.signed as signed_mod
    from utrop.cli import EXIT_OK, main

    inside = [0]

    def search(*args):
        before = len(search_runs)
        try:
            return positive_point_search(*args)
        finally:
            inside[0] += len(search_runs) - before

    monkeypatch.setattr(signed_mod, "positive_point_search", search)
    argv = ["certify", "--kind", "c", "--n", "3", "--out", str(tmp_path / "c3.json")]
    for tau in PUBLISHED_C3_PATTERNS:
        argv.append(f"--sign={sign_key(tau)}")
    assert main(argv) == EXIT_OK
    assert inside[0] == len(search_runs) == 35


def test_search_starts_no_run_on_a_hopeless_child(search_runs, monkeypatch):
    # u1*u2 - u1*u3 - u2 - u3 branches u1 first: u1 = 1 leaves -2*u3, which
    # is sign-definite, so that child starts no run; u1 = 2 and then u2 = 1
    # run one each, and the linear u3 = 1/3 that follows runs none
    import utrop.ualgebra.signed as signed_mod

    f = Poly(3, {(1, 1, 0): 1, (1, 0, 1): -1, (0, 1, 0): -1, (0, 0, 1): -1})
    assert positive_point_search([f], 3) == {0: Fraction(2), 1: Fraction(1), 2: Fraction(1, 3)}
    at2 = f.substitute({0: Fraction(2)})
    assert search_runs == [[at2], [at2.substitute({1: Fraction(1)})]]
    # the hopeless child is still a node: the root and it spend a budget of two
    search_runs.clear()
    monkeypatch.setattr(signed_mod, "NODE_BUDGET", 2)
    assert positive_point_search([f], 3) is None
    assert search_runs == []


def test_search_runs_a_basis_after_a_budget_fallback(search_runs, monkeypatch):
    # u1*u2 = 1 branches u1 = 1 and then forces u2 = 1 from u2 - 1: after a
    # run, that system is a reduced basis and the linear value needs no run;
    # after a run past its pair budget it is not, and the value gets one
    import utrop.ualgebra.signed as signed_mod

    xy = Poly(2, {(1, 1): 1, (0, 0): -1})
    y1 = xy.substitute({0: Fraction(1)})
    assert positive_point_search([xy], 2) == {0: Fraction(1), 1: Fraction(1)}
    assert search_runs == [[y1]]
    search_runs.clear()

    def over_budget(system, *args, **kwargs):
        search_runs.append(list(system))
        raise GroebnerBudgetError(2000, 2000, 0, len(system))

    monkeypatch.setattr(signed_mod, "groebner_basis", over_budget)
    assert positive_point_search([xy], 2) == {0: Fraction(1), 1: Fraction(1)}
    assert search_runs == [[y1], [y1.substitute({1: Fraction(1)})]]


def test_search_shortcuts_give_the_system_a_run_would(fan_c3, ideal_c3, search_runs, monkeypatch):
    # every search over all 64 c3 patterns: a substitution that starts no
    # run either drops a linear forced element from a reduced basis, and
    # what is left must be the run's basis up to each element's factor, or
    # stops at a system that holds a sign-definite element
    import utrop.ualgebra.signed as signed_mod

    order = grevlex(ideal_c3.nvars)
    substitute = signed_mod._substitute
    seen = {"linear": 0, "hopeless": 0, "run": 0}

    def monic(g):
        lc = g.terms[order.leading_monomial(g)]
        return Poly(g.nvars, {m: c / lc for m, c in g.terms.items()})

    def checked(system, reduced, var, val, order_, forced=None):
        before = len(search_runs)
        out, out_reduced = substitute(system, reduced, var, val, order_, forced)
        raw = [g.substitute({var: val}) for g in system]
        if len(search_runs) > before:
            seen["run"] += 1
        elif out_reduced:
            seen["linear"] += 1
            assert [monic(g) for g in out] == groebner_basis(raw, order)
        else:
            seen["hopeless"] += 1
            assert out == raw and any(len(g.coefficient_signs()) == 1 for g in out)
        return out, out_reduced

    monkeypatch.setattr(signed_mod, "_substitute", checked)
    weights = [fan_c3.interior_point(f) for f in fan_c3.proper_faces()]
    taus = list(itertools.product((1, -1), repeat=ideal_c3.nvars))
    certify_weights(ideal_c3, weights, taus)
    assert min(seen.values()) > 0 and seen["run"] == len(search_runs)


def test_sweep_flags_budget_exhaustion(fan_c3, ideal_c3):
    # with an impossible pair budget the sweep must flag itself partial and
    # list the skipped cones instead of failing silently
    from utrop.ualgebra.signed import search_sign_patterns_c

    rep = search_sign_patterns_c(3, fan_c3, ideal_c3, max_pairs=1)
    assert rep["partial"] is True
    assert len(rep["skipped_faces"]) == 34
    # a representative's budget error skips every cone of its orbit
    assert rep["skipped_faces"] == [sorted(f) for f in fan_c3.proper_faces()]
    assert rep["matches_conjecture"] is False
    # the shared driver marks every cone with the error and its counters,
    # in process and in a pool alike
    weights = [fan_c3.interior_point(f) for f in fan_c3.proper_faces()]
    for jobs in (1, 2):
        records = certify_weights(ideal_c3, weights, PUBLISHED_C3_PATTERNS, max_pairs=1, jobs=jobs)
        assert len(records) == 34
        for err in records:
            assert isinstance(err, GroebnerBudgetError)
            assert (err.pairs_processed, err.budget) == (1, 1)
            assert err.stats["pairs"] == 1 and err.stats["basis_size"] > 0


def test_certify_signed_validates_pattern():
    with pytest.raises(InvalidArgumentError):
        ConeCertifier(ideal_a(4), (0, 1)).certify((1, 0))
    with pytest.raises(InvalidArgumentError):
        ConeCertifier(ideal_a(4), (0, 1)).certify((1, 1, 1))


def test_cone_certifier_validates_pattern(certifiers_c3, ideal_c3):
    certifier = certifiers_c3[0][2]
    for bad in ((1, 1), (1, 1, 1, 1, 0, 1)):  # short, and an entry that is not +-1
        with pytest.raises(InvalidArgumentError):
            certifier.certify(bad)
        with pytest.raises(InvalidArgumentError):
            sign_twist(ideal_c3, bad)


PUBLISHED_C3_PATTERNS = ((1, 1, 1, 1, -1, 1), (1, 1, -1, 1, 1, 1))

# sha256 of the canonical JSON of the c3 sign-pattern census (64 patterns x
# 34 cones).  The census holds verdicts and subfan matches but no witness or
# stats, so a change to how a verdict is found must leave it in place.
CENSUS_C3_HASH = "5fa584d80a545f3a029aa9cdad0ea9fcc64a422ed246e2fbe6163ae61a908111"


def test_census_c3_is_pinned(census_c3):
    from utrop.cli import _canonical_json, _sha256

    assert _sha256(_canonical_json(census_c3)) == CENSUS_C3_HASH


# sha256 of the canonical JSON of the certify_weights records of every cone
# under every sign pattern (64 for c3, 32 for a5), witnesses and stats
# included, so it pins every positive point the search finds: a search that
# varied from run to run would move it.  The c3 hash was re-pinned when the
# weighted runs came to start from the homogenized grevlex basis: with every
# `stats` removed, the records equal those before.
ALL_PATTERNS_HASHES = {
    ("c", 3): "60cdd86f742364c763b58e285c8a71ebe3ab2cae245e0cfaf9abfe392dad5090",
    ("a", 5): "e97de8cf9e83eab42e8c674426303cb9bffe09e0cd91333b7d676ba58ec9b3ef",
}


@pytest.mark.parametrize("kind,n", sorted(ALL_PATTERNS_HASHES))
def test_every_sign_pattern_record_is_pinned(kind, n):
    from utrop.cli import _candidate_fan, _canonical_json, _sha256, _the_ideal

    ideal, fan = _the_ideal(kind, n), _candidate_fan(kind, n)
    weights = [fan.interior_point(f) for f in fan.proper_faces()]
    taus = list(itertools.product((1, -1), repeat=ideal.nvars))
    records = certify_weights(ideal, weights, taus)
    assert _sha256(_canonical_json(records)) == ALL_PATTERNS_HASHES[kind, n]


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
    initial_mod._grevlex_basis.cache_clear()
    first, second = fan_c3.proper_faces()[:2]
    signed_mod.ConeCertifier(ideal_c3, fan_c3.interior_point(first))
    # the grevlex run of the ideal, once per process, then the weighted run
    # on its homogenized basis and the saturation run
    assert [(order.nvars, order.weight is None) for _, order, *_ in calls] == [(6, True), (7, False), (7, True)]
    calls.clear()
    signed_mod.ConeCertifier(ideal_c3, fan_c3.interior_point(second))
    assert len(calls) == 2  # the weighted run, then the saturation run


@pytest.mark.parametrize(
    "terms,w", [({(7, 7): 1}, (0, 0)), ({(7, 7): 1, (8, 7): 1}, (1, 0))]
)
def test_monomial_nonmember_names_the_least_power(terms, w):
    # the initial ideal is <x^7*y^7>: the least power of x*y in it lies past
    # any small fixed cap, and the witness must still name it
    ideal = Ideal(("x", "y"), (Poly(2, terms),))
    cert = ConeCertifier(ideal, w).certify((1, 1))
    assert cert.verdict is Verdict.NON_MEMBER
    assert cert.witness == {"type": "monomial_in_initial_ideal", "element": "x^7*y^7"}
    nf = NormalFormCalculator(initial_ideal(ideal, w).generators, grevlex(2))
    assert nf.contains(Poly.monomial((7, 7), 2))
    assert not nf.contains(Poly.monomial((6, 6), 2))


def parse_witness(text, names):
    """The polynomial that ``Poly.text(names)`` printed as ``text``."""
    terms = {}
    for part in text.replace(" - ", " + -").split(" + "):
        c, expo = Fraction(1), [0] * len(names)
        if part.startswith("-"):
            c, part = -c, part[1:]
        for factor in part.split("*"):
            name, _, e = factor.partition("^")
            if name in names:
                expo[names.index(name)] += int(e or 1)
            else:
                c *= Fraction(factor)
        terms[tuple(expo)] = c
    poly = Poly(len(names), terms)
    assert poly.text(names) == text
    return poly


def assert_certificate_checks_out(ideal, w, tau, cert):
    """``cert`` holds against the twisted initial ideal of the cone at
    ``w``, computed directly: a point is a positive zero of it, an element
    is all-positive with normal form 0."""
    twisted_initial = initial_ideal(sign_twist(ideal, tau), w)
    witness = cert["witness"]
    if cert["verdict"] == Verdict.MEMBER.value:
        point = [Fraction(n, d) for n, d in witness["point"]]
        assert all(v > 0 for v in point)
        assert not any(g.evaluate(point) for g in twisted_initial.generators)
    elif cert["verdict"] == Verdict.NON_MEMBER.value:
        elt = parse_witness(witness["element"], list(ideal.variables))
        assert elt.coefficient_signs() == {1}
        nf = NormalFormCalculator(twisted_initial.generators, grevlex(ideal.nvars))
        assert not nf.reduce(elt)


# a few a5 patterns: those of the orderings 1,2,3,4,5 and 1,3,5,2,4, then two
# that no ordering realizes
A5_PATTERNS = ((1, 1, 1, 1, 1), (-1, -1, -1, -1, -1), (1, -1, 1, -1, 1), (-1, 1, -1, -1, 1))


def test_transported_certificates_check_out_against_each_cone(certifiers_c3, ideal_c3):
    # every cone's certificate is pushed forward from its orbit's least
    # weight; it must hold for the cone's own twisted initial ideal and give
    # the verdict that a certifier of the cone's own gives
    from utrop.fans import assemble_fan
    from utrop.symtrees import build_complex

    fan_a5 = assemble_fan(build_complex("a", 5), "a", check_intersections=False)
    ideal_a5 = ideal_a(5)
    weights_a5 = [fan_a5.interior_point(f) for f in fan_a5.proper_faces()]
    cases = [
        (ideal_c3, [w for _, w, _ in certifiers_c3], [c for _, _, c in certifiers_c3],
         PUBLISHED_C3_PATTERNS, 11),
        (ideal_a5, weights_a5, [ConeCertifier(ideal_a5, w) for w in weights_a5], A5_PATTERNS, 5),
    ]
    for ideal, weights, direct, taus, orbit_count in cases:
        orbits = cone_orbits(ideal, weights)
        assert len(orbits) == orbit_count
        assert sorted(i for _, members in orbits for i, _ in members) == list(range(len(weights)))
        records = certify_weights(ideal, weights, taus)
        for w, record, reference in zip(weights, records, direct):
            assert record["in_trop"] == reference.monomial_free
            for tau in taus:
                cert = record["signed"][sign_key(tau)]
                assert cert["verdict"] == reference.certify(tau).verdict.value
                assert_certificate_checks_out(ideal, w, tau, cert)
    member_counts = [
        sum(r["signed"][sign_key(tau)]["verdict"] == Verdict.MEMBER.value for r in records)
        for tau in A5_PATTERNS
    ]
    assert member_counts == [10, 10, 0, 0]


def test_one_cone_alone_reproduces_its_record_in_the_full_run(certifiers_c3, ideal_c3):
    # the representative is the orbit's least weight, whichever cones are
    # asked for, so a cone certified alone gets the full run's record,
    # witness and stats included
    weights = [w for _, w, _ in certifiers_c3]
    full = certify_weights(ideal_c3, weights, PUBLISHED_C3_PATTERNS)
    for i, w in enumerate(weights):
        assert certify_weights(ideal_c3, [w], PUBLISHED_C3_PATTERNS) == [full[i]]
    # a member's stats are its representative's counters, with the
    # representative's weight and the permutation that carries it over
    for rep, members in cone_orbits(ideal_c3, weights):
        counters = ConeCertifier(ideal_c3, rep).stats
        for i, perm in members:
            stats = full[i]["signed"][sign_key(PUBLISHED_C3_PATTERNS[0])]["stats"]
            assert permute_weight(rep, perm) == tuple(weights[i])
            if tuple(weights[i]) == rep:
                assert stats == counters
            else:
                assert stats == {**counters, "image_of": list(rep), "permutation": list(perm)}


def test_only_the_representatives_run_groebner_bases(fan_c3, ideal_c3, monkeypatch):
    import utrop.ualgebra.groebner as groebner_mod
    import utrop.ualgebra.initial as initial_mod
    import utrop.ualgebra.signed as signed_mod

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return groebner_basis(*args, **kwargs)

    for mod in (groebner_mod, initial_mod, signed_mod):
        monkeypatch.setattr(mod, "groebner_basis", counting)
    initial_mod._grevlex_basis.cache_clear()
    weights = [fan_c3.interior_point(f) for f in fan_c3.proper_faces()]
    records = certify_weights(ideal_c3, weights, [])
    assert len(records) == 34 and all(r["in_trop"] for r in records)
    # one grevlex run of the ideal, then a weighted and a saturation run per orbit
    assert len(calls) == 1 + 2 * 11


def test_lp_ladder_reaches_degree_three_after_degree_two(monkeypatch):
    # x^2 - xy + y^2 has no positive zero, is not sign-definite, and its
    # least all-positive multiple is (x + y)(x^2 - xy + y^2) = x^3 + y^3:
    # only the degree-3 LP, tried after the degree-2 one, decides it
    import utrop.ualgebra.signed as signed_mod

    caps = []

    def recording(nf, nvars, cap):
        caps.append(cap)
        return all_positive_element_search(nf, nvars, cap)

    monkeypatch.setattr(signed_mod, "all_positive_element_search", recording)
    ideal = Ideal(("x", "y"), (Poly(2, {(2, 0): 1, (1, 1): -1, (0, 2): 1}),))
    cert = ConeCertifier(ideal, (0, 0)).certify((1, 1))
    assert cert.verdict is Verdict.NON_MEMBER
    assert cert.witness == {"type": "all_positive_element", "element": "1/2*x^3 + 1/2*y^3"}
    assert caps == [2, 3]
