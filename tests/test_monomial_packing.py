"""The Groebner kernel's packed monomials against the exponent tuples they
stand for: order, products, quotients, divisibility and unpacking, for 1 to
13 variables, grevlex and weighted orders of mixed sign, at field widths
from the smallest to ones past 16 bits."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from utrop.ualgebra.groebner import _Codec
from utrop.ualgebra.poly import TermOrder, monomial_divides

_weights = st.one_of(
    st.integers(-5, 5),
    st.integers(-10**6, 10**6),
    st.fractions(-3, 3, max_denominator=7),
)


@st.composite
def _orders(draw):
    nvars = draw(st.integers(1, 13))
    if draw(st.booleans()):
        return TermOrder(nvars)
    return TermOrder(nvars, tuple(draw(st.lists(_weights, min_size=nvars, max_size=nvars))))


def _monomial(draw, nvars: int, degree: int):
    """A monomial of total degree at most ``degree``: exponents drawn up to
    ``degree`` and capped, in a drawn variable order, by what is left."""
    caps = draw(st.lists(st.integers(0, degree), min_size=nvars, max_size=nvars))
    m = [0] * nvars
    left = degree
    for i in draw(st.permutations(range(nvars))):
        m[i] = min(caps[i], left)
        left -= m[i]
    return tuple(m)


@st.composite
def _cases(draw):
    order = draw(_orders())
    need = draw(st.one_of(st.integers(0, 40), st.integers(0, 70000)))
    codec = _Codec(order, need)
    n = order.nvars
    # a and b reach the codec's whole range; c and d multiply within it;
    # e has a's degree, which ties the leading fields
    a, b = (_monomial(draw, n, codec.top) for _ in range(2))
    c, d = (_monomial(draw, n, codec.top // 2) for _ in range(2))
    e = tuple(draw(st.permutations(a)))
    return order, need, codec, a, b, c, d, e


def _divides(codec, a, b) -> bool:
    """The kernel's divisor test on packed monomials: ``a`` divides ``b``."""
    return not (codec.pack(b) - (codec.pack(a) - codec.low)) & codec.guards


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_packing_agrees_with_exponent_tuples(case):
    order, need, codec, a, b, c, d, e = case
    assert codec.top >= 2 * need and not (codec.top + 1) & codec.top
    for x, y in ((a, b), (c, d), (a, c), (a, e)):
        px, py = codec.pack(x), codec.pack(y)
        assert (px < py) == (order.key(x) < order.key(y))
        assert (px == py) == (x == y)
        assert _divides(codec, x, y) == monomial_divides(x, y)
        assert codec.unpack(px) == x
    cd = tuple(map(sum, zip(c, d)))
    assert codec.pack(cd) == codec.pack(c) + codec.pack(d) - codec.one
    assert codec.pack(cd) - codec.pack(d) + codec.one == codec.pack(c)
    assert codec.unpack(codec.pack(c) + codec.pack(d) - codec.one) == cd
    assert _divides(codec, c, cd) and _divides(codec, d, cd)


def test_fields_at_the_edges_of_the_range():
    # every exponent, and the degree, at 0 or at top; weights at both signs
    order = TermOrder(3, (Fraction(-5, 2), 7, 0))
    codec = _Codec(order, 3)
    top = codec.top
    corners = [(top, 0, 0), (0, top, 0), (0, 0, top), (0, 0, 0), (1, 0, top - 1), (top - 1, 1, 0)]
    for x in corners:
        assert codec.unpack(codec.pack(x)) == x
        for y in corners:
            assert (codec.pack(x) < codec.pack(y)) == (order.key(x) < order.key(y))
            assert _divides(codec, x, y) == monomial_divides(x, y)
