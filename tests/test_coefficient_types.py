"""Every ``Poly`` coefficient is a ``Fraction``, never an ``int``.

The Groebner kernel, ``initial_ideal``'s intermediate forms and the LP rows
work on integers; a result built from them must convert back.  An ``int``
coefficient would turn ``a / b`` between coefficients into float division
(``signed._forced_value`` divides two of them).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from utrop.fans import assemble_fan
from utrop.symtrees import build_complex
from utrop.ualgebra import Ideal, NormalFormCalculator, groebner_basis, grevlex, ideal_a, initial_ideal
from utrop.ualgebra.groebner import reduced_basis
from utrop.ualgebra.ideals import ideal_symmetries, permute_poly
from utrop.ualgebra.initial import twist_poly
from utrop.ualgebra.poly import Poly


def assert_fraction_coefficients(polys):
    for p in polys:
        assert all(type(c) is Fraction for c in p.terms.values()), p.terms


def check_ideal(ideal, w):
    """Every coefficient-producing operation on ``ideal`` and its initial
    ideal at ``w``."""
    n = ideal.nvars
    order = grevlex(n)
    gb = groebner_basis(ideal.generators, order)
    assert_fraction_coefficients(gb)
    # a Groebner basis still, scaled off monic and with a redundant element
    assert_fraction_coefficients(reduced_basis([g * Fraction(3, 2) for g in gb] + gb[:1], order))
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
    nf = NormalFormCalculator(init, order)
    probes = [Poly.monomial((1,) * n, n), Poly.monomial((2,) + (0,) * (n - 1), n, 3), *ideal.generators]
    assert_fraction_coefficients(nf.reduce(p) for p in probes)


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
