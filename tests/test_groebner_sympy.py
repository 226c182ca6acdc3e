"""The Groebner kernel against an independent implementation,
``sympy.groebner``, at small sizes: random ideals in 2 or 3 variables, and
in 5 to 8 variables, where the kernel's packed monomials have more fields.

Under grevlex both sides must return the same reduced basis.  Under the
degree-first order with negative weights that ``initial_ideal`` uses, sympy
runs with its own implementation of that order, and each side's basis must
reduce to zero against the other's: both are Groebner bases of one ideal.
"""

import random
from fractions import Fraction

import pytest

from test_groebner import homogenized, random_poly
from utrop.ualgebra import NormalFormCalculator, groebner_basis, ideal_a
from utrop.ualgebra.poly import Poly, grevlex, weighted_order

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import MonomialOrder  # noqa: E402


class DegreeWeightGrevlex(MonomialOrder):
    """Total degree, then ``weight``, then sympy's grevlex."""

    alias = "degree_weight_grevlex"
    is_global = True

    def __init__(self, weight):
        self.weight = tuple(weight)

    def __call__(self, monomial):
        dot = sum(w * e for w, e in zip(self.weight, monomial))
        return (sum(monomial), dot, sympy.polys.orderings.grevlex(monomial)[1])

    # sympy caches rings by order, so orders with different weights must differ
    def __eq__(self, other):
        return isinstance(other, DegreeWeightGrevlex) and other.weight == self.weight

    def __hash__(self):
        return hash((DegreeWeightGrevlex, self.weight))


def to_sympy(p, xs):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(xs, m)))
        for m, c in p.terms.items()
    ))


def from_sympy(expr, xs):
    terms = sympy.Poly(expr, *xs).terms()
    return Poly(len(xs), {m: Fraction(int(c.p), int(c.q)) for m, c in terms})


def monic(p, order):
    return p * (1 / p.terms[order.leading_monomial(p)])


def random_ideal(seed):
    rng = random.Random(seed)
    nvars = rng.choice([2, 3])
    gens = [random_poly(rng, nvars, 3, 4) for _ in range(rng.choice([2, 3]))]
    return rng, nvars, [g for g in gens if g]


def random_wide_ideal(seed):
    """Three cubics in 5 to 8 variables: the kernel packs their monomials
    into fields for degree 7, and some runs meet S-pair lcms of degree 8,
    so the fields are filled to the top and then widened."""
    rng = random.Random(seed)
    nvars = rng.randint(5, 8)
    gens = [random_poly(rng, nvars, 3, 4) for _ in range(3)]
    return rng, nvars, [g for g in gens if g]


@pytest.mark.parametrize("seed", range(12))
def test_grevlex_reduced_basis_matches_sympy(seed):
    assert_grevlex_basis_matches_sympy(*random_ideal(seed)[1:])


@pytest.mark.parametrize("seed", range(12))
def test_grevlex_reduced_basis_matches_sympy_in_more_variables(seed):
    assert_grevlex_basis_matches_sympy(*random_wide_ideal(seed)[1:])


def assert_grevlex_basis_matches_sympy(nvars, gens):
    if not gens:
        return
    xs = sympy.symbols(f"x0:{nvars}")
    order = grevlex(nvars)
    theirs = sympy.groebner([to_sympy(g, xs) for g in gens], *xs, order="grevlex")
    ours = groebner_basis(gens, order)
    assert set(ours) == {monic(from_sympy(e, xs), order) for e in theirs.exprs}


def test_grevlex_reduced_basis_matches_sympy_pentagon():
    gens = ideal_a(5).generators
    xs = sympy.symbols(f"x0:{gens[0].nvars}")
    order = grevlex(len(xs))
    theirs = sympy.groebner([to_sympy(g, xs) for g in gens], *xs, order="grevlex")
    ours = groebner_basis(gens, order)
    assert set(ours) == {monic(from_sympy(e, xs), order) for e in theirs.exprs}


def assert_same_ideal_under_weight(gens, weight):
    xs = sympy.symbols(f"x0:{len(weight)}")
    sym_order = DegreeWeightGrevlex(weight)
    theirs = sympy.groebner([to_sympy(g, xs) for g in gens], *xs, order=sym_order)
    order = weighted_order(weight, len(weight))
    ours = groebner_basis(gens, order)
    nf = NormalFormCalculator(ours, order)
    for e in theirs.exprs:
        assert not nf.reduce(from_sympy(e, xs))
    for g in ours:
        _, rem = sympy.reduced(to_sympy(g, xs), theirs.exprs, *xs, order=sym_order)
        assert rem == 0


@pytest.mark.parametrize("seed", range(12))
def test_negative_weight_basis_agrees_with_sympy(seed):
    assert_same_ideal_under_random_weight(*random_ideal(seed))


@pytest.mark.parametrize("seed", range(12))
def test_negative_weight_basis_agrees_with_sympy_in_more_variables(seed):
    assert_same_ideal_under_random_weight(*random_wide_ideal(seed))


def assert_same_ideal_under_random_weight(rng, nvars, gens):
    if not gens:
        return
    weight = tuple(rng.randint(-3, 1) for _ in range(nvars))
    assert_same_ideal_under_weight(gens, weight)


@pytest.mark.parametrize("w", [(1, -2, 0, 3, -1), (-1, -1, 2, 0, 1)])
def test_initial_ideal_order_agrees_with_sympy(w):
    # the homogenized pentagon ideal under (degree, -w, grevlex), as
    # initial_ideal runs it; sympy takes seconds on the c3 ideal under a
    # Python-level order, so the larger case is left out
    weight = tuple(-x for x in w) + (0,)
    assert_same_ideal_under_weight(homogenized(ideal_a(5).generators), weight)
