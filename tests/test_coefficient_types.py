"""Every ``Poly`` coefficient is a ``Fraction``, never an ``int``, and the
Groebner kernel answers in integers only.

The Groebner kernel, ``initial_ideal``'s intermediate forms, the LP rows
and the sign-pattern decision path work on integers; a ``Poly`` built from
them must convert back.  An ``int`` coefficient would turn ``a / b``
between coefficients into float division.  The kernel's own answers are
the other way round: ``groebner_basis`` and ``reduced_basis`` give
primitive integer forms with positive leading coefficient, and
``NormalFormCalculator.reduce`` an integer remainder at a positive integer
scale.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from utrop.fans import assemble_fan
from utrop.symtrees import build_complex
from utrop.ualgebra import Ideal, NormalFormCalculator, groebner_basis, grevlex, ideal_a, initial_ideal
from utrop.ualgebra.groebner import reduced_basis
from utrop.ualgebra.ideals import ideal_symmetries, permute_poly
from utrop.ualgebra.initial import twist_poly
from utrop.ualgebra.poly import Poly, primitive


def assert_fraction_coefficients(polys):
    for p in polys:
        assert all(type(c) is Fraction for c in p.terms.values()), p.terms


def assert_primitive_forms(forms, order):
    for g in forms:
        assert all(type(c) is int for c in g.values()), g
        assert math.gcd(*g.values()) == 1 and g[max(g, key=order.key)] > 0, g


def check_ideal(ideal, w):
    """Every coefficient-producing operation on ``ideal`` and its initial
    ideal at ``w``."""
    n = ideal.nvars
    order = grevlex(n)
    forms = [primitive(g)[0] for g in ideal.generators]
    gb = groebner_basis(forms, order)
    assert_primitive_forms(gb, order)
    # a Groebner basis still, scaled off primitive, negated and with a
    # redundant element
    assert_primitive_forms(reduced_basis([{m: -3 * c for m, c in g.items()} for g in gb] + gb[:1], order), order)
    init = initial_ideal(ideal, w).generators
    assert_fraction_coefficients(init)
    tau = tuple(-1 if i % 2 else 1 for i in range(n))
    perm = ideal_symmetries(ideal)[-1]
    for g in (*ideal.generators, *init):
        assert_fraction_coefficients([
            g.substitute({0: 2, n - 1: Fraction(1, 3)}),  # an int value too
            twist_poly(g, tau),
            permute_poly(g, perm),
        ])
    nf = NormalFormCalculator([primitive(g)[0] for g in init], order)
    probes = [{(1,) * n: 1}, {(2,) + (0,) * (n - 1): 3}, *forms]
    for remainder, scale in map(nf.reduce, probes):
        assert all(type(c) is int for c in remainder.values()), remainder
        assert type(scale) is int and scale > 0


def test_c3_and_a5_coefficients_are_fractions(fan_c3, ideal_c3):
    for fan, ideal in ((fan_c3, ideal_c3),
                       (assemble_fan(build_complex("a", 5), "a", check_intersections=False), ideal_a(5))):
        faces = fan.proper_faces()
        for f in (faces[0], faces[-1]):
            check_ideal(ideal, fan.interior_point(f))


_coefficients = st.one_of(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=6))
_monomials = st.tuples(*[st.integers(0, 2)] * 3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.dictionaries(_monomials, _coefficients, min_size=1, max_size=4), min_size=1, max_size=3),
       st.tuples(*[st.integers(-2, 2)] * 3))
def test_rational_inputs_give_fraction_coefficients(gens, w):
    polys = [p for p in (Poly(3, terms) for terms in gens) if p]
    ideal = Ideal(("x", "y", "z"), tuple(polys))
    check_ideal(ideal, w)


def test_decision_path_polys_have_fraction_coefficients(fan_c3, ideal_c3, monkeypatch):
    # the certifier decides on integer forms; the scan and LP witnesses are
    # Polys built from them, and the point check reads the integer forms at
    # a point of Fractions, with no Poly
    import utrop.ualgebra.signed as signed

    checked, lp = [], []
    vanishes, search = signed._vanishes_at, signed.all_positive_element_search

    def spy_vanishes(g, point):
        checked.append((g, point))
        return vanishes(g, point)

    def spy_search(*args):
        found = search(*args)
        if found is not None:
            lp.append(found)
        return found

    monkeypatch.setattr(signed, "_vanishes_at", spy_vanishes)
    monkeypatch.setattr(signed, "all_positive_element_search", spy_search)
    weights = [fan_c3.interior_point(f) for f in fan_c3.proper_faces()]
    decided = []
    for rep, _ in signed.cone_orbits(ideal_c3, weights):
        certifier = signed.ConeCertifier(ideal_c3, rep)
        for tau in itertools.product((1, -1), repeat=ideal_c3.nvars):
            certifier.certify(tau)
        decided += certifier._decided.values()
    elements = [found for _, kind, found in decided if kind == "all_positive_element"]
    points = [found for _, kind, found in decided if kind == "positive_point"]
    scan = [elt for elt in elements if not any(elt is found for found in lp)]
    assert checked and lp and scan and points
    assert_fraction_coefficients(elements)
    assert all(type(c) is int for g, _ in checked for c in g.values())
    assert all(type(v) is Fraction for _, point in checked for v in point)
    assert all(type(v) is Fraction for point in points for v in point)
