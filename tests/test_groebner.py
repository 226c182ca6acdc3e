"""The Groebner engine: reduced-basis properties checked against the raw
Buchberger criterion (every S-polynomial of the output reduces to zero),
which is independent of the pair pruning used inside the algorithm."""

import random
from fractions import Fraction

import pytest

from utrop.errors import GroebnerBudgetError, InvalidArgumentError
from utrop.ualgebra import NormalFormCalculator, groebner_basis, ideal_a, ideal_c
from utrop.ualgebra.poly import (
    Poly,
    grevlex,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    weighted_order,
)
from utrop.ualgebra.signed import all_positive_element_search


def s_poly_rational(f, g, order):
    lf, lg = order.leading_monomial(f), order.leading_monomial(g)
    lcm = monomial_lcm(lf, lg)
    mf = Poly.monomial(monomial_div(lcm, lf), f.nvars, 1 / f.terms[lf])
    mg = Poly.monomial(monomial_div(lcm, lg), g.nvars, 1 / g.terms[lg])
    return f * mf - g * mg


def assert_is_reduced_groebner_basis(gens, basis, order):
    nf = NormalFormCalculator(basis, order)
    # every input generator lies in the basis ideal
    for g in gens:
        assert not nf.reduce(g)
    # Buchberger criterion on the output
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert not nf.reduce(s_poly_rational(basis[i], basis[j], order))
    # reduced: monic, and no monomial of one element is divisible by the
    # leading monomial of another
    lms = [order.leading_monomial(b) for b in basis]
    for i, b in enumerate(basis):
        assert b.terms[lms[i]] == 1
        for m in b.terms:
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
    gens = [g for g in gens if g]
    if not gens:
        return
    basis = groebner_basis(gens, order)
    assert_is_reduced_groebner_basis(gens, basis, order)


def test_disjoint_linear_generators_stay_put():
    g1 = Poly(4, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 0): -1})
    g2 = Poly(4, {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1, (0, 0, 0, 0): -1})
    basis = groebner_basis([g1, g2], grevlex(4))
    assert set(basis) == {g1, g2}


def test_unit_ideal():
    h1 = Poly(2, {(2, 0): 1})
    h2 = Poly(2, {(1, 1): 1, (0, 0): -1})
    assert groebner_basis([h1, h2], grevlex(2)) == [Poly.const(1, 2)]


def test_membership_by_normal_form():
    # a generator of the pentagon ideal reduces to zero against the basis
    ideal = ideal_a(5)
    order = grevlex(ideal.nvars)
    basis = groebner_basis(ideal.generators, order)
    nf = NormalFormCalculator(basis, order)
    for g in ideal.generators:
        assert not nf.reduce(g)


def test_budget_error():
    # katsura-like system that needs more than a handful of pairs
    rng = random.Random(5)
    gens = [random_poly(rng, 3, 3, 5) for _ in range(3)]
    with pytest.raises(GroebnerBudgetError) as err:
        groebner_basis(gens, grevlex(3), max_pairs=1)
    assert err.value.pairs_processed > err.value.budget - 1


def test_budget_error_keeps_the_counters_it_reached():
    from utrop.ualgebra.initial import _homogenize

    ideal = ideal_c(3)
    gens = [_homogenize(g) for g in ideal.generators]
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
        groebner_basis(ideal.generators, grevlex(ideal.nvars), max_pairs=-1)


def test_determinism():
    rng = random.Random(11)
    gens = [random_poly(rng, 3, 3, 4) for _ in range(3)]
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
    gens = [g for g in (random_poly(rng, nvars, 3, 4) for _ in range(3)) if g]
    basis = groebner_basis(gens, order)
    nf = NormalFormCalculator(basis, order)
    for _ in range(8):
        p = random_poly(rng, nvars, 4, 6) * Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        r = nf.reduce(p)
        assert r == fraction_normal_form(p, basis, order)
        for c in (Fraction(-1), Fraction(3, 7), Fraction(-22, 5)):
            assert nf.reduce(p * c) == r * c


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
    basis = groebner_basis([g for g in (random_poly(rng, 3, 2, 4) for _ in range(3)) if g], order)
    nf = NormalFormCalculator(basis, order)
    low = random_poly(rng, 3, 3, 6)
    high = low + Poly.monomial((nf._basis.codec.top + 1, 0, 0), 3)
    inputs = [low, high, low * Fraction(-5, 3), low]
    got = [nf.reduce(p) for p in inputs]
    assert widened == [high.degree()]
    for p, r in zip(inputs, got):
        assert r == NormalFormCalculator(basis, order).reduce(p) == fraction_normal_form(p, basis, order)


def test_positive_element_witness_reduces_to_zero_at_scale():
    # non-unit coefficients put the normal forms the LP reads at a
    # nontrivial scale; the witness it returns must still lie in the ideal
    order = grevlex(3)
    gens = [
        Poly(3, {(1, 0, 0): 2, (0, 0, 1): -3}),
        Poly(3, {(0, 1, 0): 5, (0, 0, 1): 7}),
    ]
    basis = groebner_basis(gens, order)
    nf = NormalFormCalculator(basis, order)
    elt = all_positive_element_search(nf, 3, 2)
    assert elt is not None and elt.coefficient_signs() == {1}
    assert not nf.reduce(elt)
    assert not fraction_normal_form(elt, basis, order)


def homogenized(gens):
    out = []
    for g in gens:
        d = g.degree()
        out.append(Poly(g.nvars + 1, {m + (d - sum(m),): c for m, c in g.terms.items()}))
    return out


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("seed", range(6))
def test_generator_order_does_not_change_the_basis(seed, order_name):
    rng = random.Random(200 + seed)
    nvars = rng.choice([3, 4])
    order = ORDERS[order_name](nvars)
    gens = [g for g in (random_poly(rng, nvars, 3, 4) for _ in range(4)) if g]
    expected = groebner_basis(gens, order)
    for _ in range(4):
        rng.shuffle(gens)
        assert groebner_basis(gens, order) == expected


@pytest.mark.parametrize("order_name", sorted(ORDERS))
def test_generator_order_does_not_change_the_c3_basis(order_name):
    gens = homogenized(ideal_c(3).generators)
    order = ORDERS[order_name](gens[0].nvars)
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
        Poly(3, {(2, 1, 0): -1, (0, 0, 3): -1}),
        Poly(3, {(3, 0, 0): 1, (0, 2, 1): -1, (0, 1, 1): 1}),
    ]
    expected = [
        Poly(3, {(2, 1, 0): 1, (0, 0, 3): 1}),
        Poly(3, {(3, 0, 0): 1, (0, 2, 1): -1, (0, 1, 1): 1}),
        Poly(3, {(1, 0, 3): 1, (0, 3, 1): 1, (0, 2, 1): -1}),
        Poly(3, {(1, 4, 1): 1, (0, 0, 6): -1, (1, 3, 1): -1}),
        Poly(3, {(0, 7, 1): 1, (0, 0, 8): 1, (0, 6, 1): -2, (0, 5, 1): 1}),
    ]
    basis = groebner_basis(gens, order)
    assert widened == [(7, 8)]
    assert basis == expected
    assert_is_reduced_groebner_basis(gens, basis, order)


@pytest.mark.parametrize("order", [grevlex(2), weighted_order((3, -7), 2)])
def test_degree_40000(order):
    # far past a 15-bit field: x^40000 - 1 and x - y give y^40000 - 1
    gens = [Poly(2, {(40000, 0): 1, (0, 0): -1}), Poly(2, {(1, 0): 1, (0, 1): -1})]
    assert groebner_basis(gens, order) == [gens[1], Poly(2, {(0, 40000): 1, (0, 0): -1})]
    # the univariate gcd: (x^40000 - 1, x^30000 - 1) = (x^10000 - 1)
    pair = [Poly(1, {(40000,): 1, (0,): -1}), Poly(1, {(30000,): 1, (0,): -1})]
    assert groebner_basis(pair, grevlex(1)) == [Poly(1, {(10000,): 1, (0,): -1})]


def test_normal_form_past_the_basis_range():
    # a basis of degree 1 packs up to degree 3; larger inputs widen it
    order = grevlex(2)
    basis = groebner_basis([Poly(2, {(1, 0): 1, (0, 1): -2})], order)
    nf = NormalFormCalculator(basis, order)
    for k in (3, 4, 100):
        p = Poly(2, {(k, 0): 1, (0, 1): 1})
        assert nf.reduce(p) == Poly(2, {(0, k): 2**k, (0, 1): 1})
    assert nf.reduce(Poly(2, {(1, 1): 3})) == Poly(2, {(0, 2): 6})
