"""Signed certification: soundness of the certificates and the worked
doubled-hexagon sign patterns.

The exact Member/NonMember content of the two published patterns is
asserted in the acceptance suite; here the focus is on certificate
soundness (witnesses verify) and on the engine's smaller moving parts.
"""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utrop.errors import GroebnerBudgetError, InvalidArgumentError
from utrop.symtrees import DihedralOrdering, Symmetry, build_sub
from utrop.ualgebra import Verdict, ideal_a, initial_ideal, is_monomial_free, sign_twist
from utrop.ualgebra.groebner import DEFAULT_MAX_PAIRS, NormalFormCalculator, groebner_basis
from utrop.ualgebra.ideals import Ideal, ideal_symmetries, permute_weight
from utrop.ualgebra.initial import twist_poly
from utrop.ualgebra.poly import Poly, grevlex, primitive
from utrop.ualgebra.signed import (
    ConeCertifier,
    all_positive_element_search,
    certify_weights,
    cone_orbits,
    positive_point_search,
    sign_key,
)


def ints(p):
    """The primitive integer form of the ``Poly`` ``p``, the form in which
    the search keeps its systems."""
    return primitive(p)[0]


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


def test_forced_value_of_an_integer_form_is_exact():
    # 2u - 1 pins u = 1/2 as the Fraction(-c0, c1) of its integers; a float
    # coefficient fails there rather than round
    from utrop.ualgebra.signed import _forced_value

    var, val = _forced_value({(1,): 2, (0,): -1})
    assert (var, val) == (0, Fraction(1, 2)) and type(val) is Fraction
    with pytest.raises(TypeError):
        _forced_value({(1,): 2.0, (0,): -1.0})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-3, 3), min_size=1, max_size=4),
                min_size=1, max_size=3),
       st.integers(0, 2),
       st.fractions(min_value=Fraction(1, 6), max_value=5, max_denominator=6))
def test_integer_substitution_runs_the_basis_of_poly_substitute(gens, var, val):
    # the search's substitution on integer forms, then a run on integer
    # forms, against Poly.substitute and a run on Polys: each element is a
    # positive multiple of the monic one, and primitive
    from utrop.ualgebra.signed import _substituted

    order = grevlex(3)
    polys = [p for p in (Poly(3, terms) for terms in gens) if p]
    got = groebner_basis([_substituted(ints(p), var, val) for p in polys], order)
    want = groebner_basis([p.substitute({var: val}) for p in polys], order)
    assert len(got) == len(want)
    for g, h in zip(got, want):
        lc = g[order.leading_monomial(h)]
        assert lc > 0 and math.gcd(*g.values()) == 1
        assert Poly(3, {m: Fraction(c, lc) for m, c in g.items()}) == h


def fraction_lp_search(nf, nvars, cap):
    """The all-positive-element LP on rational columns: column j is
    NF(m_j) from ``nf.reduce`` and its sum-row entry is 1.  The reference
    for the scaled integer columns of ``all_positive_element_search``."""
    from utrop import linalg
    from utrop.ualgebra.signed import _monomials_up_to

    monos = list(_monomials_up_to(nvars, cap))
    images = [nf.reduce(Poly.monomial(m, nvars)) for m in monos]
    support = sorted({m for img in images for m in img.terms})
    if not support:
        return None
    row_of = {m: i for i, m in enumerate(support)}
    mat = [[Fraction(0)] * len(monos) for _ in support]
    for col, img in enumerate(images):
        for m, c in img.terms.items():
            mat[row_of[m]][col] = c
    mat.append([Fraction(1)] * len(monos))
    rhs = [Fraction(0)] * len(support) + [Fraction(1)]
    sol = linalg.solve_nonneg(mat, rhs)
    if sol is None:
        return None
    poly = Poly(nvars, {m: lam for m, lam in zip(monos, sol) if lam})
    if not poly or poly.coefficient_signs() != {1}:
        return None
    if nf.reduce(poly):
        return None
    return poly


def test_scaled_lp_columns_give_the_rational_lp_answer():
    # random small systems: the same element, so the same lambda, or None
    # from both; a positive column scale moves no pivot of Bland's rule
    rng = random.Random(28)
    order = grevlex(3)
    outcomes = []
    for _ in range(80):
        gens = [
            Poly(3, {tuple(rng.randint(0, 2) for _ in range(3)): rng.choice((-3, -2, -1, 1, 2, 3))
                     for _ in range(rng.randint(2, 3))})
            for _ in range(rng.randint(1, 2))
        ]
        basis = groebner_basis(gens, order)
        for cap in (2, 3):
            got = all_positive_element_search(NormalFormCalculator(basis, order), 3, cap)
            assert got == fraction_lp_search(NormalFormCalculator(basis, order), 3, cap)
            outcomes.append(got is not None)
    assert 0 < sum(outcomes) < len(outcomes)


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
    """The systems that the search's Groebner runs start from, in order, as
    integer forms."""
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
    assert search_runs[0] == [ints(xy.substitute({0: Fraction(1)}))]
    search_runs.clear()
    assert positive_point_search([Poly(2, {(1, 0): 1, (0, 1): 2})], 2) is None
    assert search_runs == []
    # the root spends a budget of one node, so no child starts a run
    monkeypatch.setattr(signed_mod, "NODE_BUDGET", 1)
    assert positive_point_search([xy], 2) is None
    assert search_runs == []


def test_search_groebner_runs_in_certify_c3(tmp_path, search_runs, monkeypatch):
    # certify c 3 with both published patterns: the search's runs alone,
    # not the certifiers' weighted and saturation runs, and the work that
    # the stabilizer and a point settling in_trop save: 44 decisions, 16
    # point searches, 22 search runs and 2 saturation runs, where deciding
    # each pulled-back pattern of each orbit, with a saturation run per
    # orbit, took 62, 23, 35 and 11
    import utrop.ualgebra.signed as signed_mod
    from utrop.cli import EXIT_OK, main

    inside = [0]
    counts = dict.fromkeys(("decisions", "point_searches", "saturation_runs"), 0)
    decide, saturate = signed_mod.ConeCertifier._decide, signed_mod.is_monomial_free

    def search(*args):
        counts["point_searches"] += 1
        before = len(search_runs)
        try:
            return positive_point_search(*args)
        finally:
            inside[0] += len(search_runs) - before

    def deciding(self, tau):
        counts["decisions"] += 1
        return decide(self, tau)

    def saturating(*args):
        counts["saturation_runs"] += 1
        return saturate(*args)

    monkeypatch.setattr(signed_mod, "positive_point_search", search)
    monkeypatch.setattr(signed_mod.ConeCertifier, "_decide", deciding)
    monkeypatch.setattr(signed_mod, "is_monomial_free", saturating)
    argv = ["certify", "--kind", "c", "--n", "3", "--out", str(tmp_path / "c3.json")]
    for tau in PUBLISHED_C3_PATTERNS:
        argv.append(f"--sign={sign_key(tau)}")
    assert main(argv) == EXIT_OK
    assert inside[0] == len(search_runs) == 22
    assert counts == {"decisions": 44, "point_searches": 16, "saturation_runs": 2}


def test_search_starts_no_run_on_a_hopeless_child(search_runs, monkeypatch):
    # u1*u2 - u1*u3 - u2 - u3 branches u1 first: u1 = 1 leaves -2*u3, which
    # is sign-definite, so that child starts no run; u1 = 2 and then u2 = 1
    # run one each, and the linear u3 = 1/3 that follows runs none
    import utrop.ualgebra.signed as signed_mod

    f = Poly(3, {(1, 1, 0): 1, (1, 0, 1): -1, (0, 1, 0): -1, (0, 0, 1): -1})
    assert positive_point_search([f], 3) == {0: Fraction(2), 1: Fraction(1), 2: Fraction(1, 3)}
    at2 = f.substitute({0: Fraction(2)})
    assert search_runs == [[ints(at2)], [ints(at2.substitute({1: Fraction(1)}))]]
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
    assert search_runs == [[ints(y1)]]
    search_runs.clear()

    def over_budget(system, *args, **kwargs):
        search_runs.append(list(system))
        raise GroebnerBudgetError(2000, 2000, 0, len(system))

    monkeypatch.setattr(signed_mod, "groebner_basis", over_budget)
    assert positive_point_search([xy], 2) == {0: Fraction(1), 1: Fraction(1)}
    assert search_runs == [[ints(y1)], [ints(y1.substitute({1: Fraction(1)}))]]


def test_search_shortcuts_give_the_system_a_run_would(fan_c3, ideal_c3, search_runs, monkeypatch):
    # every search over all 64 c3 patterns: a substitution that starts no
    # run either drops a linear forced element from a reduced basis, and
    # what is left must be the run's basis up to each element's factor, or
    # stops at a system that holds a sign-definite element
    import utrop.ualgebra.signed as signed_mod

    n = ideal_c3.nvars
    order = grevlex(n)
    substitute = signed_mod._substitute
    seen = {"linear": 0, "hopeless": 0, "run": 0}

    def positive_lead(g):
        # the primitive form of a reduced element, up to sign, is the run's
        return g if g[max(g, key=order.key)] > 0 else {m: -c for m, c in g.items()}

    def checked(system, reduced, var, val, order_, forced=None):
        before = len(search_runs)
        out, out_reduced = substitute(system, reduced, var, val, order_, forced)
        raw = [ints(Poly(n, g).substitute({var: val})) for g in system]
        if len(search_runs) > before:
            seen["run"] += 1
        elif out_reduced:
            seen["linear"] += 1
            assert [positive_lead(g) for g in out] == groebner_basis(raw, order)
        else:
            seen["hopeless"] += 1
            assert out == raw and any(len({c > 0 for c in g.values()}) == 1 for g in out)
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
# `stats` removed, the records equal those before.  Both were re-pinned (c3
# 60cdd86f... -> 6b69327f..., a5 e97de8cf... -> 88befe29...) when a
# certifier came to decide the least pulled-back pattern of each cone's
# coset under the stabilizer of its least weight: every verdict and
# `in_trop` held (`VERDICT_HASHES`), 199 of the 2176 c3 and 115 of the 800
# a5 witnesses moved, and a least weight with a nontrivial stabilizer may
# now name a `permutation` in its stats.
ALL_PATTERNS_HASHES = {
    ("c", 3): "6b69327f2709ad0fd23ce65dc8db1c9fc15ae732c3be48ebff7a9c9f68b833f3",
    ("a", 5): "88befe29c6646ef2e34f331014b17bc156761e498093b94055cf40bf12fb8f01",
}


@functools.cache
def all_pattern_records(kind, n):
    """The ideal, the cone weights and the ``certify_weights`` records of
    every cone of the candidate fan under every sign pattern."""
    from utrop.cli import _candidate_fan, _the_ideal

    ideal, fan = _the_ideal(kind, n), _candidate_fan(kind, n)
    weights = [fan.interior_point(f) for f in fan.proper_faces()]
    taus = list(itertools.product((1, -1), repeat=ideal.nvars))
    return ideal, weights, certify_weights(ideal, weights, taus)


@pytest.mark.parametrize("kind,n", sorted(ALL_PATTERNS_HASHES))
def test_every_sign_pattern_record_is_pinned(kind, n):
    from utrop.cli import _canonical_json, _sha256

    records = all_pattern_records(kind, n)[2]
    assert _sha256(_canonical_json(records)) == ALL_PATTERNS_HASHES[kind, n]


def verdicts_only(records):
    """Each record's ``in_trop`` and its verdict under each pattern: no
    witness and no stats."""
    return [
        [r["in_trop"], {key: cert["verdict"] for key, cert in r["signed"].items()}]
        for r in records
    ]


# sha256 of the canonical JSON of `verdicts_only` over the cones of `certify
# c 3` with both published patterns, and over the all-pattern records of c3
# and a5.  A change to how a verdict is found, or to which witness shows it,
# must leave every one of these in place.
VERDICT_HASHES = {
    "certify-c3": "8522289dfad773b3a32ceee20ed91d742257194a816b05862ebc7083da9b16d2",
    ("c", 3): "c79dc5287fc839013f3e087de7e9968f8610e5fb176b3525be45692d235392de",
    ("a", 5): "54ddf5bc7abb450a552d24e1c5b3e32189a013c8d3a935e7fdd0352fdf1bc807",
}


def test_every_verdict_is_pinned(tmp_path):
    from utrop.cli import EXIT_OK, _canonical_json, _sha256, main

    out = tmp_path / "c3.json"
    argv = ["certify", "--kind", "c", "--n", "3", "--out", str(out)]
    argv += [f"--sign={sign_key(tau)}" for tau in PUBLISHED_C3_PATTERNS]
    assert main(argv) == EXIT_OK
    got = {"certify-c3": verdicts_only(json.loads(out.read_text())["cones"])}
    for kind, n in sorted(ALL_PATTERNS_HASHES):
        got[kind, n] = verdicts_only(all_pattern_records(kind, n)[2])
    assert {key: _sha256(_canonical_json(v)) for key, v in got.items()} == VERDICT_HASHES


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
    initial_mod._GREVLEX_BASES.clear()
    first, second = fan_c3.proper_faces()[:2]
    certifier = signed_mod.ConeCertifier(ideal_c3, fan_c3.interior_point(first))
    # construction runs the grevlex run of the ideal, once per process, then
    # the weighted run on its homogenized basis; reading monomial_free then
    # runs the saturation run, once
    assert [(order.nvars, order.weight is None) for _, order, *_ in calls] == [(6, True), (7, False)]
    assert certifier.monomial_free and certifier.monomial_free
    assert [(order.nvars, order.weight is None) for _, order, *_ in calls] == [(6, True), (7, False), (7, True)]
    calls.clear()
    certifier = signed_mod.ConeCertifier(ideal_c3, fan_c3.interior_point(second))
    assert len(calls) == 1  # the weighted run
    assert certifier.monomial_free
    assert len(calls) == 2  # then the saturation run


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
    # a cone's stats are its representative's counters and, unless that
    # permutation is the identity, the representative's weight and the
    # permutation that the witness was pushed by; it maps the representative
    # onto the cone, and a certifier at the representative with no
    # stabilizer, given it, gives the same certificate
    for rep, members in cone_orbits(ideal_c3, weights):
        reference = ConeCertifier(ideal_c3, rep)
        for i, _ in members:
            for tau in PUBLISHED_C3_PATTERNS:
                cert = full[i]["signed"][sign_key(tau)]
                perm = tuple(cert["stats"].get("permutation", range(len(rep))))
                assert permute_weight(rep, perm) == tuple(weights[i])
                assert cert == reference.certify(tau, perm).to_json()
                assert {k: v for k, v in cert["stats"].items() if k not in ("image_of", "permutation")} == reference.stats


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
    initial_mod._GREVLEX_BASES.clear()
    weights = [fan_c3.interior_point(f) for f in fan_c3.proper_faces()]
    records = certify_weights(ideal_c3, weights, [])
    assert len(records) == 34 and all(r["in_trop"] for r in records)
    # one grevlex run of the ideal, then a weighted and a saturation run per orbit
    assert len(calls) == 1 + 2 * 11


def test_a_worker_takes_the_grevlex_basis_from_its_task(fan_c3, ideal_c3, monkeypatch):
    # a pool worker starts with an empty memo; the basis in its task spares
    # it the grevlex run, and its records are those it would compute itself
    import utrop.ualgebra.initial as initial_mod
    from utrop.ualgebra.signed import _certify_orbit

    weights = [fan_c3.interior_point(f) for f in fan_c3.proper_faces()]
    # the orbit of cone 1 under +,+,-,+,+,+: no point is found, so the
    # saturation run still answers in_trop
    rep, members = cone_orbits(ideal_c3, weights)[1]
    stabilizer = [s for s in ideal_symmetries(ideal_c3) if permute_weight(rep, s) == rep]
    task = (ideal_c3, rep, stabilizer, [p for _, p in members], PUBLISHED_C3_PATTERNS[1:], DEFAULT_MAX_PAIRS)
    shared = initial_mod._grevlex_basis(ideal_c3.generators, ideal_c3.nvars, DEFAULT_MAX_PAIRS)
    calls = []  # the runs of initial_ideal and is_monomial_free

    def counting(*args, **kwargs):
        calls.append(args)
        return groebner_basis(*args, **kwargs)

    monkeypatch.setattr(initial_mod, "groebner_basis", counting)
    initial_mod._GREVLEX_BASES.clear()
    handed = _certify_orbit(*task, shared)
    # the weighted run and the saturation run, and no 6-variable grevlex run
    assert [(order.nvars, order.weight is None) for _, order, *_ in calls] == [(7, False), (7, True)]
    calls.clear()
    initial_mod._GREVLEX_BASES.clear()
    assert _certify_orbit(*task, None) == handed
    assert [(order.nvars, order.weight is None) for _, order, *_ in calls] == [(6, True), (7, False), (7, True)]


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


def assert_checks_out_at(generators, names, tau, cert):
    """``cert`` holds against the twist by ``tau`` of the initial ideal
    with reduced basis ``generators``: a point is a positive zero of it, an
    all-positive element has normal form 0."""
    twisted = [twist_poly(g, tau) for g in generators]
    if cert["verdict"] == Verdict.MEMBER.value:
        point = [Fraction(a, b) for a, b in cert["witness"]["point"]]
        assert all(v > 0 for v in point)
        assert not any(g.evaluate(point) for g in twisted)
    else:
        assert cert["verdict"] == Verdict.NON_MEMBER.value
        assert cert["witness"]["type"] == "all_positive_element"
        elt = parse_witness(cert["witness"]["element"], names)
        assert elt.coefficient_signs() == {1}
        assert not NormalFormCalculator(twisted, grevlex(len(names))).reduce(elt)


@pytest.mark.parametrize("kind,n", sorted(ALL_PATTERNS_HASHES))
def test_every_all_pattern_certificate_checks_out(kind, n):
    # all 2176 c3 and 800 a5 certificates, each against its own cone's
    # initial ideal: computed once per cone at the cone's own weight and
    # twisted per pattern, so no witness is trusted to its representative
    ideal, weights, records = all_pattern_records(kind, n)
    checked = 0
    for w, record in zip(weights, records):
        assert record["in_trop"]
        generators = initial_ideal(ideal, w).generators
        for tau in itertools.product((1, -1), repeat=ideal.nvars):
            assert_checks_out_at(generators, list(ideal.variables), tau, record["signed"][sign_key(tau)])
            checked += 1
    assert checked == len(weights) * 2 ** ideal.nvars == {"c": 2176, "a": 800}[kind]


def test_a_monomial_initial_ideal_gets_the_monomial_witness_under_every_pattern(ideal_c3):
    # at this weight off the fan, J holds a monomial: every pattern is
    # decided by it, whether through certify_weights, which may pull a
    # pattern back through the stabilizer, or on a certifier alone
    w = (-1, -1, -1, -1, -1, 0)
    assert not is_monomial_free(initial_ideal(ideal_c3, w))
    taus = list(itertools.product((1, -1), repeat=ideal_c3.nvars))
    [record] = certify_weights(ideal_c3, [w], taus)
    alone = ConeCertifier(ideal_c3, w)
    references = [alone.certify(tau) for tau in taus]  # before monomial_free is read
    assert record["in_trop"] is False and alone.monomial_free is False
    for tau, reference in zip(taus, references):
        cert = record["signed"][sign_key(tau)]
        assert cert["verdict"] == reference.verdict.value == Verdict.NON_MEMBER.value
        assert cert["witness"] == reference.witness
        assert cert["witness"]["type"] == "monomial_in_initial_ideal"
        assert_certificate_checks_out(ideal_c3, w, tau, cert)


def test_a_pattern_and_its_stabilizer_image_are_decided_once(fan_c3, ideal_c3, monkeypatch):
    # at each c3 least weight with a nontrivial stabilizer, tau and tau o s
    # pull back to one least pattern, which reaches _decide once; over all
    # 64 patterns, each class of patterns under the stabilizer is decided
    # once, and every certificate holds against the weight's own twisted
    # initial ideal
    import utrop.ualgebra.signed as signed_mod

    decided = []
    decide = signed_mod.ConeCertifier._decide

    def spy(self, pulled):
        decided.append(pulled)
        return decide(self, pulled)

    monkeypatch.setattr(signed_mod.ConeCertifier, "_decide", spy)
    weights = [fan_c3.interior_point(f) for f in fan_c3.proper_faces()]
    group = ideal_symmetries(ideal_c3)
    taus = list(itertools.product((1, -1), repeat=ideal_c3.nvars))
    seen = 0
    for rep, _ in cone_orbits(ideal_c3, weights, group):
        stabilizer = [s for s in group if permute_weight(rep, s) == rep]
        if len(stabilizer) == 1:
            continue
        seen += 1
        certifier = ConeCertifier(ideal_c3, rep, DEFAULT_MAX_PAIRS, stabilizer)
        decided.clear()
        s = stabilizer[1]
        tau = next(t for t in taus if tuple(t[j] for j in s) != t)
        certifier.certify(tau)
        certifier.certify(tuple(tau[j] for j in s))
        assert len(decided) == 1
        for t in taus:
            assert_checks_out_at(certifier.initial.generators, list(ideal_c3.variables), t,
                                 certifier.certify(t).to_json())
        classes = {min(tuple(t[j] for j in g) for g in stabilizer) for t in taus}
        assert sorted(decided) == sorted(classes) and len(classes) < len(taus)
    assert seen == 10  # of the 11 orbits


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-4, 4).filter(bool), min_size=1, max_size=4),
       st.lists(st.fractions(min_value=Fraction(1, 7), max_value=6, max_denominator=7), min_size=3, max_size=3),
       st.integers(0, 2))
def test_integer_point_check_agrees_with_poly_evaluate(terms, point, var):
    # h * (q*u - p) vanishes at u = p/q and, in general, not at p/q + 1/q;
    # the integer check accepts and rejects exactly as Poly.evaluate does,
    # at both points and for h alone
    from utrop.ualgebra.signed import _vanishes_at

    h = Poly(3, terms)
    p, q = point[var].numerator, point[var].denominator
    root = Poly(3, {tuple(int(i == var) for i in range(3)): q, (0, 0, 0): -p})
    off = point[:var] + [point[var] + Fraction(1, q)] + point[var + 1:]
    for g in (h, h * root):
        for at in (point, off):
            assert _vanishes_at(ints(g), at) == (g.evaluate(at) == 0)
    assert _vanishes_at(ints(h * root), point)


def test_a_budget_error_in_the_lazy_saturation_run_stands_for_its_orbit(fan_c3, ideal_c3, monkeypatch):
    # under the published patterns, 2 of the 11 c3 orbits find no point and
    # need the saturation run; when it runs out of budget, the error stands
    # for every cone of those orbits, and the other orbits keep their records
    import utrop.ualgebra.signed as signed_mod

    def over_budget(ideal, max_pairs):
        raise GroebnerBudgetError(max_pairs, max_pairs, 0, len(ideal.generators))

    weights = [fan_c3.interior_point(f) for f in fan_c3.proper_faces()]
    full = certify_weights(ideal_c3, weights, PUBLISHED_C3_PATTERNS)
    monkeypatch.setattr(signed_mod, "is_monomial_free", over_budget)
    records = certify_weights(ideal_c3, weights, PUBLISHED_C3_PATTERNS)
    failed = 0
    for _, members in cone_orbits(ideal_c3, weights):
        got = [records[i] for i, _ in members]
        if isinstance(got[0], GroebnerBudgetError):
            failed += 1
            assert all(isinstance(r, GroebnerBudgetError) for r in got)
        else:
            assert got == [full[i] for i, _ in members]
    assert failed == 2
