"""The Groebner engine: reduced-basis properties checked against the raw
Buchberger criterion (every S-polynomial of the output reduces to zero),
which is independent of the pair pruning used inside the algorithm."""

import math
import random
from fractions import Fraction

import pytest

from utrop.errors import GroebnerBudgetError, InvalidArgumentError
from utrop.ualgebra import NormalFormCalculator, groebner_basis, ideal_a, ideal_c
from utrop.ualgebra.groebner import reduced_basis
from utrop.ualgebra.poly import (
    Poly,
    grevlex,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    primitive,
    weighted_order,
)
from utrop.ualgebra.signed import all_positive_element_search


def s_poly_rational(f, g, order):
    lf, lg = order.leading_monomial(f), order.leading_monomial(g)
    lcm = monomial_lcm(lf, lg)
    mf = Poly.monomial(monomial_div(lcm, lf), f.nvars, 1 / f.terms[lf])
    mg = Poly.monomial(monomial_div(lcm, lg), g.nvars, 1 / g.terms[lg])
    return f * mf - g * mg


def forms(polys):
    """The primitive integer forms of ``polys``, the kernel's one input."""
    return [primitive(g)[0] for g in polys]


def assert_is_reduced_groebner_basis(gens, basis, order):
    # ``gens`` and ``basis`` are integer forms
    nf = NormalFormCalculator(basis, order)
    # every input generator lies in the basis ideal
    for g in gens:
        assert not nf.reduce(g)[0]
    # Buchberger criterion on the output
    polys = [Poly(order.nvars, b) for b in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert not nf.reduce(primitive(s_poly_rational(polys[i], polys[j], order))[0])[0]
    # reduced: primitive with positive leading coefficient, and no monomial
    # of one element is divisible by the leading monomial of another
    lms = [order.leading_monomial(p) for p in polys]
    for i, b in enumerate(basis):
        assert b[lms[i]] > 0 and math.gcd(*b.values()) == 1
        for m in b:
            for j, lm in enumerate(lms):
                if j != i:
                    assert not monomial_divides(lm, m)


def random_poly(rng, nvars, max_deg, max_terms):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        m = [0] * nvars
        for _ in range(rng.randrange(0, max_deg + 1)):
            m[rng.randrange(nvars)] += 1
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[tuple(m)] = terms.get(tuple(m), 0) + c
    return Poly(nvars, {m: c for m, c in terms.items() if c})


@pytest.mark.parametrize("seed", range(12))
def test_random_ideals_give_groebner_bases(seed):
    rng = random.Random(seed)
    nvars = rng.choice([2, 3])
    order = grevlex(nvars)
    gens = [random_poly(rng, nvars, 3, 4) for _ in range(rng.choice([2, 3]))]
    gens = forms(g for g in gens if g)
    if not gens:
        return
    basis = groebner_basis(gens, order)
    assert_is_reduced_groebner_basis(gens, basis, order)


def test_disjoint_linear_generators_stay_put():
    g1 = Poly(4, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 0): -1})
    g2 = Poly(4, {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (0, 0, 0, 0): -1})
    basis = groebner_basis(forms([g1, g2]), grevlex(4))
    assert basis in (forms([g1, g2]), forms([g2, g1]))


@pytest.mark.parametrize("seed", range(8))
def test_reduced_basis_answers_in_the_form_it_is_given(seed):
    # a Groebner basis that is not reduced (elements scaled off primitive,
    # negated, repeated, and joined by an ideal element of another's
    # multiple), as integer forms: the answer is the reduced basis, in the
    # integer form of the kernel, each element primitive with a positive
    # leading coefficient
    rng = random.Random(300 + seed)
    nvars = rng.choice([2, 3])
    order = grevlex(nvars)
    gb = groebner_basis(forms(g for g in (random_poly(rng, nvars, 3, 4) for _ in range(3)) if g), order)
    scales = [rng.choice((-3, -1, 1, 2)) * rng.randrange(1, 4) for _ in gb]
    given = [{m: k * c for m, c in g.items()} for g, k in zip(gb, scales)]
    given += forms([Poly(nvars, gb[0]), Poly(nvars, gb[0]) * Poly.var(0, nvars) + Poly(nvars, gb[-1])])
    got = reduced_basis(given, order)
    assert got == groebner_basis(gb, order) == gb
    assert all(g[max(g, key=order.key)] > 0 and math.gcd(*g.values()) == 1 for g in got)


def test_unit_ideal():
    h1 = Poly(2, {(2, 0): 1})
    h2 = Poly(2, {(1, 1): 1, (0, 0): -1})
    assert groebner_basis(forms([h1, h2]), grevlex(2)) == forms([Poly.const(1, 2)])


def test_membership_by_normal_form():
    # a generator of the pentagon ideal reduces to zero against the basis
    ideal = ideal_a(5)
    order = grevlex(ideal.nvars)
    basis = groebner_basis(forms(ideal.generators), order)
    nf = NormalFormCalculator(basis, order)
    for g in forms(ideal.generators):
        assert not nf.reduce(g)[0]


def test_budget_error():
    # katsura-like system that needs more than a handful of pairs
    rng = random.Random(5)
    gens = forms(random_poly(rng, 3, 3, 5) for _ in range(3))
    with pytest.raises(GroebnerBudgetError) as err:
        groebner_basis(gens, grevlex(3), max_pairs=1)
    assert err.value.stats["pairs"] == err.value.budget == 1


def test_budget_error_keeps_the_counters_it_reached():
    ideal = ideal_c(3)
    gens = homogenized(ideal.generators)
    order = grevlex(ideal.nvars + 1)
    full = {}
    groebner_basis(gens, order, stats=full)
    assert full["pairs"] > 5
    start = {}
    with pytest.raises(GroebnerBudgetError):
        groebner_basis(gens, order, max_pairs=0, stats=start)
    assert start["pairs"] == start["zero_reductions"] == 0
    stats = {}
    with pytest.raises(GroebnerBudgetError) as err:
        groebner_basis(gens, order, max_pairs=5, stats=stats)
    assert stats == err.value.stats
    assert stats["pairs"] == 5 and 0 <= stats["zero_reductions"] <= 5
    # each pair that did not reduce to zero added one basis element
    assert stats["basis_size"] == start["basis_size"] + 5 - stats["zero_reductions"]
    assert str(err.value).startswith("Groebner pair budget exhausted: 5 pairs reduced (budget 5)")
    # a budget of exactly the pairs the run needs is enough
    exact = {}
    assert groebner_basis(gens, order, max_pairs=full["pairs"], stats=exact) == groebner_basis(gens, order)
    assert exact == full


def test_negative_budget_is_rejected():
    # a negative budget is never met by the pair counter, so it would
    # otherwise run without any bound
    ideal = ideal_c(3)
    with pytest.raises(InvalidArgumentError, match="max_pairs must be at least 0, got -1"):
        groebner_basis(forms(ideal.generators), grevlex(ideal.nvars), max_pairs=-1)


def test_determinism():
    rng = random.Random(11)
    gens = forms(random_poly(rng, 3, 3, 4) for _ in range(3))
    b1 = groebner_basis(gens, grevlex(3))
    b2 = groebner_basis(list(reversed(gens)), grevlex(3))
    assert b1 == b2


def fraction_normal_form(p, basis, order):
    """Reference normal form in plain Fraction arithmetic: repeatedly cancel
    the largest reducible term with the first basis element that divides
    it."""
    lms = [order.leading_monomial(g) for g in basis]
    work, rem = dict(p.terms), {}
    while work:
        lm = max(work, key=order.key)
        i = next((i for i, g_lm in enumerate(lms) if monomial_divides(g_lm, lm)), None)
        if i is None:
            rem[lm] = work.pop(lm)
            continue
        factor = work[lm] / basis[i].terms[lms[i]]
        shift = monomial_div(lm, lms[i])
        for m, c in basis[i].terms.items():
            mm = tuple(a + b for a, b in zip(m, shift))
            v = work.get(mm, 0) - factor * c
            if v:
                work[mm] = v
            else:
                work.pop(mm, None)
    return Poly(p.nvars, rem)


ORDERS = {
    "grevlex": grevlex,
    "weighted": lambda n: weighted_order(tuple((-1) ** i * (i + 1) for i in range(n)), n),
}


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("seed", range(6))
def test_normal_form_keeps_the_input_scale(seed, order_name):
    rng = random.Random(100 + seed)
    nvars = 3
    order = ORDERS[order_name](nvars)
    gens = forms(g for g in (random_poly(rng, nvars, 3, 4) for _ in range(3)) if g)
    basis = groebner_basis(gens, order)
    polys = [Poly(nvars, b) for b in basis]
    nf = NormalFormCalculator(basis, order)
    for _ in range(8):
        p = random_poly(rng, nvars, 4, 6) * Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        terms = primitive(p)[0]
        r, s = nf.reduce(terms)
        assert s > 0 and Poly(nvars, r) == fraction_normal_form(Poly(nvars, terms), polys, order) * s
        for c in (-1, 3, -22):
            rc, sc = nf.reduce({m: c * v for m, v in terms.items()})
            assert {m: v * s for m, v in rc.items()} == {m: c * v * sc for m, v in r.items()}


@pytest.mark.parametrize("seed", range(4))
def test_normal_form_memo_across_widening(seed, monkeypatch):
    # one calculator reduces a low input, then one past its range, which
    # repacks the basis and so starts its divisor memo afresh, then the low
    # monomials again (scaled, so the result cache does not answer); each
    # result is a fresh calculator's and the Fraction reference's
    from utrop.ualgebra import groebner

    widened = []
    widen = groebner._Basis.widen

    def spy(self, need):
        widened.append(need)
        return widen(self, need)

    monkeypatch.setattr(groebner._Basis, "widen", spy)
    rng = random.Random(300 + seed)
    order = grevlex(3)
    basis = groebner_basis(forms(g for g in (random_poly(rng, 3, 2, 4) for _ in range(3)) if g), order)
    polys = [Poly(3, b) for b in basis]
    nf = NormalFormCalculator(basis, order)
    low = primitive(random_poly(rng, 3, 3, 6))[0]
    high = primitive(Poly(3, low) + Poly.monomial((nf._basis.codec.top + 1, 0, 0), 3))[0]
    inputs = [low, high, {m: -5 * c for m, c in low.items()}, low]
    got = [nf.reduce(p) for p in inputs]
    assert widened == [max(map(sum, high))]
    for p, (r, s) in zip(inputs, got):
        assert (r, s) == NormalFormCalculator(basis, order).reduce(p)
        assert Poly(3, r) == fraction_normal_form(Poly(3, p), polys, order) * s


def test_positive_element_witness_reduces_to_zero_at_scale():
    # non-unit coefficients put the normal forms the LP reads at a
    # nontrivial scale; the witness it returns must still lie in the ideal
    order = grevlex(3)
    gens = [
        {(1, 0, 0): 2, (0, 0, 1): -3},
        {(0, 1, 0): 5, (0, 0, 1): 7},
    ]
    basis = groebner_basis(gens, order)
    nf = NormalFormCalculator(basis, order)
    elt = all_positive_element_search(nf, 3, 2)
    assert elt is not None and elt.coefficient_signs() == {1}
    assert not nf.reduce(primitive(elt)[0])[0]
    assert not fraction_normal_form(elt, [Poly(3, b) for b in basis], order)


def homogenized(gens):
    """The integer forms of the ``Poly`` objects ``gens``, homogenized by a
    last variable."""
    out = []
    for g in gens:
        d = g.degree()
        out.append({m + (d - sum(m),): c for m, c in primitive(g)[0].items()})
    return out


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("seed", range(6))
def test_generator_order_does_not_change_the_basis(seed, order_name):
    rng = random.Random(200 + seed)
    nvars = rng.choice([3, 4])
    order = ORDERS[order_name](nvars)
    gens = forms(g for g in (random_poly(rng, nvars, 3, 4) for _ in range(4)) if g)
    expected = groebner_basis(gens, order)
    for _ in range(4):
        rng.shuffle(gens)
        assert groebner_basis(gens, order) == expected


@pytest.mark.parametrize("order_name", sorted(ORDERS))
def test_generator_order_does_not_change_the_c3_basis(order_name):
    gens = homogenized(ideal_c(3).generators)
    order = ORDERS[order_name](ideal_c(3).nvars + 1)
    expected = groebner_basis(gens, order)
    rng = random.Random(7)
    for _ in range(3):
        rng.shuffle(gens)
        assert groebner_basis(gens, order) == expected


def c4_weights(indices):
    """The interior points of the c4 fan's proper faces at ``indices``."""
    from utrop.fans import assemble_fan
    from utrop.symtrees import build_complex

    fan = assemble_fan(build_complex("as", 4), "c", check_intersections=False)
    faces = fan.proper_faces()
    return {index: fan.interior_point(faces[index]) for index in indices}


C4_BUDGET_STATS = {
    # cone index in fan.proper_faces(): the counters of the weighted run, at
    # budget 300, on the homogenized generators of ideal_c(4) at that cone
    0: {"pairs": 300, "zero_reductions": 105, "basis_size": 207},
    480: {"pairs": 300, "zero_reductions": 112, "basis_size": 200},
}


def test_c4_budget_counters_pin_the_kernels_choices():
    # at 13 variables (12 plus the homogenizing one) the packed monomials use
    # every field; any change of pair order, reducer or pruning moves these
    gens = homogenized(ideal_c(4).generators)
    for index, w in c4_weights(C4_BUDGET_STATS).items():
        order = weighted_order(tuple(-x for x in w) + (0,), len(w) + 1)
        stats = {}
        with pytest.raises(GroebnerBudgetError) as err:
            groebner_basis(gens, order, 300, stats)
        assert stats == err.value.stats == C4_BUDGET_STATS[index]


# the counters of initial_ideal(ideal_c(4), w, 300) at both cones above: its
# grevlex run exhausts the budget before any weighted run starts, so they do
# not depend on w
C4_INITIAL_BUDGET_STATS = {"pairs": 300, "zero_reductions": 139, "basis_size": 173}


def test_c4_initial_ideal_budget_counters_are_the_grevlex_runs():
    from utrop.ualgebra.initial import initial_ideal

    ideal = ideal_c(4)
    for w in c4_weights(C4_BUDGET_STATS).values():
        stats = {}
        with pytest.raises(GroebnerBudgetError) as err:
            initial_ideal(ideal, w, 300, stats)
        assert stats == err.value.stats == C4_INITIAL_BUDGET_STATS


def test_widening_mid_run_keeps_the_basis(monkeypatch):
    # cubic inputs start with fields for degree 7; an S-pair lcm of degree 8
    # makes the run repack its basis and pairs (left packed at degree 7, the
    # x2^8 term below overflows its field and the basis comes out wrong);
    # the expected basis is sympy's
    from utrop.ualgebra import groebner

    widened = []
    widen = groebner._Basis.widen

    def spy(self, need):
        widened.append((self.codec.top, need))
        return widen(self, need)

    monkeypatch.setattr(groebner._Basis, "widen", spy)
    order = weighted_order((0, -3, -3), 3)
    gens = [
        {(2, 1, 0): -1, (0, 0, 3): -1},
        {(3, 0, 0): 1, (0, 2, 1): -1, (0, 1, 1): 1},
    ]
    expected = [
        {(2, 1, 0): 1, (0, 0, 3): 1},
        {(3, 0, 0): 1, (0, 2, 1): -1, (0, 1, 1): 1},
        {(1, 0, 3): 1, (0, 3, 1): 1, (0, 2, 1): -1},
        {(1, 4, 1): 1, (0, 0, 6): -1, (1, 3, 1): -1},
        {(0, 7, 1): 1, (0, 0, 8): 1, (0, 6, 1): -2, (0, 5, 1): 1},
    ]
    basis = groebner_basis(gens, order)
    assert widened == [(7, 8)]
    assert basis == expected
    assert_is_reduced_groebner_basis(gens, basis, order)


@pytest.mark.parametrize("order", [grevlex(2), weighted_order((3, -7), 2)])
def test_degree_40000(order):
    # far past a 15-bit field: x^40000 - 1 and x - y give y^40000 - 1
    gens = [{(40000, 0): 1, (0, 0): -1}, {(1, 0): 1, (0, 1): -1}]
    assert groebner_basis(gens, order) == [gens[1], {(0, 40000): 1, (0, 0): -1}]
    # the univariate gcd: (x^40000 - 1, x^30000 - 1) = (x^10000 - 1)
    pair = [{(40000,): 1, (0,): -1}, {(30000,): 1, (0,): -1}]
    assert groebner_basis(pair, grevlex(1)) == [{(10000,): 1, (0,): -1}]


def test_normal_form_past_the_basis_range():
    # a basis of degree 1 packs up to degree 3; larger inputs widen it
    order = grevlex(2)
    basis = groebner_basis([{(1, 0): 1, (0, 1): -2}], order)
    nf = NormalFormCalculator(basis, order)
    for k in (3, 4, 100):
        assert nf.reduce({(k, 0): 1, (0, 1): 1}) == ({(0, k): 2**k, (0, 1): 1}, 1)
    assert nf.reduce({(1, 1): 3}) == ({(0, 2): 6}, 1)
