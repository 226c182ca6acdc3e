"""Weighted initial ideals (minimum convention), monomial-freeness, and
tropical membership certification.

``initial_part(p, w)`` keeps the terms of least ``w``-weight.  For ideals
the computation homogenizes: if the generators are homogenized with a
degree variable ``h`` of weight zero, then every homogeneous element of the
ideal they generate is ``h^k * (p homogenized)`` for some ``p`` in the
original ideal, so dehomogenizing the initial forms of a Groebner basis
taken under (total degree, then -w, then grevlex) yields exactly the
initial ideal of the original ideal.  The order is a genuine term order for
any sign pattern of ``w`` because total degree comes first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from ..errors import DegenerateIdealError, InvalidArgumentError
from .groebner import DEFAULT_MAX_PAIRS, groebner_basis, reduced_basis
from .ideals import Ideal
from .poly import Poly, grevlex, weighted_order


def _integer_weight(w, nvars: int):
    if len(w) != nvars:
        raise InvalidArgumentError("weight length != number of variables")
    fracs = [Fraction(x) for x in w]
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    return tuple(int(f * den) for f in fracs)


def initial_part(p: Poly, w) -> Poly:
    """Terms of minimal w-weight (the whole polynomial for w = 0)."""
    if not p:
        return p
    wz = _integer_weight(w, p.nvars)  # a positive multiple: the same least terms
    wts = {m: sum(map(mul, wz, m)) for m in p.terms}
    least = min(wts.values())
    return Poly(p.nvars, {m: c for m, c in p.terms.items() if wts[m] == least})


def _homogenize(p: Poly) -> Poly:
    d = p.degree()
    return Poly(p.nvars + 1, {m + (d - sum(m),): c for m, c in p.terms.items()})


def _dehomogenize(p: Poly) -> Poly:
    return Poly(p.nvars - 1, _collapse(p.terms))


def _collapse(terms):
    out = {}
    for m, c in terms.items():
        mm = m[:-1]
        out[mm] = out.get(mm, 0) + c
    return out


def initial_ideal(ideal: Ideal, w, max_pairs: int = DEFAULT_MAX_PAIRS, stats: dict | None = None) -> Ideal:
    """The minimum-convention initial ideal J at weight ``w``, generated by
    its reduced grevlex Groebner basis (monic, ascending leading monomial:
    what ``groebner_basis(J, grevlex)`` returns).

    One Groebner run suffices.  G, the reduced basis of the homogenized
    ideal I^h under (degree, -w, grevlex), is a Groebner basis for the
    w-refinement of grevlex, so the initial forms in_w(G) are a grevlex
    Groebner basis of in_w(I^h) (Sturmfels, *Groebner Bases and Convex
    Polytopes*, Prop. 1.8).  These forms are homogeneous and h is the last,
    hence smallest, grevlex variable, so setting h = 1 keeps every leading
    monomial apart from its h power, and the dehomogenized forms are a
    grevlex Groebner basis of in_w(I^h) at h = 1 (Cox-Little-O'Shea,
    *Ideals, Varieties, and Algorithms*, section 8.4), which is J by the
    argument above.  Minimalizing and inter-reducing them gives the unique
    reduced basis; minimalization also drops repeated forms.  ``stats``
    receives the counters of the weighted run.
    """
    wz = _integer_weight(w, ideal.nvars)
    hgens = [_homogenize(g) for g in ideal.generators if g]
    neg = tuple(-x for x in wz) + (0,)
    order = weighted_order(neg, ideal.nvars + 1)
    basis = groebner_basis(hgens, order, max_pairs, stats)
    ext_w = tuple(wz) + (0,)
    inits = [_dehomogenize(initial_part(g, ext_w)) for g in basis]
    gens = reduced_basis(inits, grevlex(ideal.nvars))
    return Ideal(ideal.variables, tuple(gens), ideal.index_set)


def sign_twist(ideal: Ideal, tau) -> Ideal:
    """Apply the coordinate automorphism u_i -> tau_i * u_i to every
    generator (an involution for tau in {+-1}^V)."""
    _check_tau(tau, ideal.nvars)
    gens = tuple(twist_poly(g, tau) for g in ideal.generators)
    return Ideal(ideal.variables, gens, ideal.index_set)


def _check_tau(tau, nvars: int):
    if len(tau) != nvars or any(t not in (1, -1) for t in tau):
        raise InvalidArgumentError("sign pattern must be a +-1 vector over the variables")


def twist_poly(p: Poly, tau) -> Poly:
    """``p(tau_1 u_1, ..., tau_n u_n)`` for signs tau_i in {+-1}: a term
    changes sign when its total degree in the negated variables is odd."""
    terms = {}
    for m, c in p.terms.items():
        odd = sum(e for t, e in zip(tau, m) if t < 0) % 2
        terms[m] = -c if odd else c
    return Poly(p.nvars, terms)


def is_monomial_free(ideal: Ideal, max_pairs: int = DEFAULT_MAX_PAIRS) -> bool:
    """True iff the ideal contains no monomial.

    A monomial lies in the ideal iff some power of the product of all
    variables does, i.e. iff saturating by that product gives the unit
    ideal; tested by adjoining y and the generator y*prod(u) - 1 and
    checking whether 1 turns up in a Groebner basis.
    """
    n = ideal.nvars
    gens = [
        Poly(n + 1, {m + (0,): c for m, c in g.terms.items()}) for g in ideal.generators if g
    ]
    if not gens:
        return True  # zero ideal
    sat = Poly(n + 1, {(1,) * (n + 1): Fraction(1), (0,) * (n + 1): Fraction(-1)})
    basis = groebner_basis(gens + [sat], grevlex(n + 1), max_pairs)
    return not any(g.is_constant() for g in basis)


def certify_trop(ideal: Ideal, w, max_pairs: int = DEFAULT_MAX_PAIRS) -> bool:
    """True iff the initial ideal at ``w`` is monomial-free, certifying that
    ``w`` lies in the tropicalization.

    Ideals with a monomial generator are rejected outright: their every
    initial ideal contains a monomial, so the membership question is
    vacuous and almost surely a caller error.
    """
    for g in ideal.generators:
        if g and g.is_monomial():
            raise DegenerateIdealError(
                "ideal has a monomial generator; tropicalization is empty"
            )
    return is_monomial_free(initial_ideal(ideal, w, max_pairs), max_pairs)
