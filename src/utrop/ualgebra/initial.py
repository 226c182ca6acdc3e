"""Weighted initial ideals (minimum convention), sign twists, and
monomial-freeness: the Groebner steps behind each verdict, which
:mod:`.signed` puts together to decide a weight.

``initial_part(p, w)`` keeps the terms of least ``w``-weight.  For ideals
the computation homogenizes.  It starts from the reduced grevlex basis G of
the ideal I, computed once per ideal and pair budget in a process: grevlex
is a degree order, so the homogenized elements of G generate the
homogenization I^h (Cox-Little-O'Shea, *Ideals, Varieties, and
Algorithms*, section 8.4, Theorem 4).  Every homogeneous element of I^h is
``h^k * (p homogenized)`` for some ``p`` in I, so dehomogenizing the initial
forms of a Groebner basis of I^h taken under (total degree, then -w, then
grevlex), with the degree variable ``h`` of weight zero, yields exactly the
initial ideal of I.  The order is a genuine term order for any sign
pattern of ``w`` because total degree comes first.

Coefficients of every ``Poly`` here are ``Fraction``.  The Groebner
kernel takes and gives primitive integer forms only (:mod:`.poly`), so
:func:`initial_ideal` works on them end to end: the memoized grevlex basis
is kept in that form, and the homogenization, the weighted run, the
initial forms, setting h = 1 and the inter-reduction all take and give
integer forms.  Only the generators of J are built as monic ``Poly``
objects, once, at the end.  :func:`is_monomial_free` hands its saturation
run integer forms too.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from ..errors import GroebnerBudgetError, InvalidArgumentError
from .groebner import DEFAULT_MAX_PAIRS, groebner_basis, reduced_basis
from .ideals import Ideal
from .poly import Poly, grevlex, primitive, weighted_order


def _integer_weight(w, nvars: int):
    if len(w) != nvars:
        raise InvalidArgumentError("weight length != number of variables")
    fracs = [Fraction(x) for x in w]
    den = lcm(*(f.denominator for f in fracs))
    return tuple(int(f * den) for f in fracs)


def _least_terms(terms, wz):
    """The terms of least ``wz``-weight; variables past the end of ``wz``
    weigh zero."""
    wts = {m: sum(map(mul, wz, m)) for m in terms}
    least = min(wts.values())
    return {m: c for m, c in terms.items() if wts[m] == least}


def initial_part(p: Poly, w) -> Poly:
    """Terms of minimal w-weight (the whole polynomial for w = 0)."""
    if not p:
        return p
    wz = _integer_weight(w, p.nvars)  # a positive multiple: the same least terms
    return Poly(p.nvars, _least_terms(p.terms, wz))


def _homogenize(terms: dict) -> dict:
    """The integer form ``terms`` homogenized by a last variable h."""
    d = max(map(sum, terms))
    return {m + (d - sum(m),): c for m, c in terms.items()}


_GREVLEX_BASES: dict = {}  # (generators, nvars, max_pairs) -> reduced grevlex basis


def _grevlex_basis(generators, nvars: int, max_pairs: int) -> tuple:
    """The reduced grevlex basis of the ideal that the ``Poly``
    ``generators`` span, as integer forms, run once per process for each
    pair budget: a result reached under one budget is never handed to a
    call with another.  A run past its budget raises and is not kept."""
    basis = _GREVLEX_BASES.get((generators, nvars, max_pairs))
    if basis is None:
        forms = [primitive(g)[0] for g in generators]
        basis = tuple(groebner_basis(forms, grevlex(nvars), max_pairs))
        _remember_grevlex(generators, nvars, max_pairs, basis)
    return basis


def _remember_grevlex(generators, nvars: int, max_pairs: int, basis: tuple):
    """Keep ``basis`` as what :func:`_grevlex_basis` returns for these
    arguments, whichever process computed it.  Certify works on one ideal;
    past 32 bases the oldest goes, so many small ideals do not pile up."""
    if len(_GREVLEX_BASES) >= 32:
        del _GREVLEX_BASES[next(iter(_GREVLEX_BASES))]
    _GREVLEX_BASES[generators, nvars, max_pairs] = basis


def initial_ideal(ideal: Ideal, w, max_pairs: int = DEFAULT_MAX_PAIRS, stats: dict | None = None) -> Ideal:
    """The minimum-convention initial ideal J at weight ``w``, generated by
    its reduced grevlex Groebner basis (monic, ascending leading monomial:
    what ``groebner_basis(J, grevlex)`` returns).

    Two Groebner runs suffice, and the first is shared.  The reduced grevlex
    basis of the ideal, homogenized, generates I^h (Cox-Little-O'Shea,
    section 8.4, Theorem 4), and every call on the same generators and
    budget reuses it.  Starting from the raw generators instead gives an
    ideal that need not be saturated in h, and the weighted run then spends
    most of its pairs rebuilding the same basis at every weight.  G, the
    reduced basis of I^h under (degree, -w, grevlex), is a Groebner basis
    for the w-refinement of grevlex, so the initial forms in_w(G) are a
    grevlex Groebner basis of in_w(I^h) (Sturmfels, *Groebner Bases and
    Convex Polytopes*, Prop. 1.8).  These forms are homogeneous and h is
    the last, hence smallest, grevlex variable, so setting h = 1 keeps every
    leading monomial apart from its h power, and the dehomogenized forms
    are a grevlex Groebner basis of in_w(I^h) at h = 1 (Cox-Little-O'Shea,
    section 8.4), which is J by the argument above.  J depends on I alone,
    not on the generators the weighted run starts from.  Minimalizing and
    inter-reducing the forms gives the unique reduced basis; minimalization
    also drops repeated forms.  ``stats`` receives the counters of the
    grevlex run when that run exhausts ``max_pairs``, and otherwise those
    of the weighted run.
    """
    wz = _integer_weight(w, ideal.nvars)
    try:
        gb = _grevlex_basis(ideal.generators, ideal.nvars, max_pairs)
    except GroebnerBudgetError as exc:
        if stats is not None:
            stats.update(exc.stats)
        raise
    n = ideal.nvars
    weighted = weighted_order(tuple(-x for x in wz) + (0,), n + 1)
    basis = groebner_basis([_homogenize(g) for g in gb], weighted, max_pairs, stats)
    # each g is homogeneous, so setting h = 1 (dropping its exponent) merges no terms
    inits = [{m[:-1]: c for m, c in _least_terms(g, wz).items()} for g in basis]
    order = grevlex(n)
    gens = []  # monic, built once from the reduced integer forms
    for g in reduced_basis(inits, order):
        lc = g[max(g, key=order.key)]
        gens.append(Poly._trusted(n, {m: Fraction(c, lc) for m, c in g.items()}))
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
    """``p(tau_1 u_1, ..., tau_n u_n)`` for signs tau_i in {+-1}."""
    return Poly._trusted(p.nvars, twist_terms(p.terms, tau))


def twist_terms(terms: dict, tau) -> dict:
    """The terms of ``p(tau_1 u_1, ..., tau_n u_n)`` from the terms of
    ``p``, whatever their coefficient type: a term changes sign when its
    total degree in the negated variables is odd."""
    negated = [i for i, t in enumerate(tau) if t < 0]
    return {m: -c if sum([m[i] for i in negated]) & 1 else c for m, c in terms.items()}


def is_monomial_free(ideal: Ideal, max_pairs: int = DEFAULT_MAX_PAIRS) -> bool:
    """True iff the ideal contains no monomial.

    A monomial lies in the ideal iff some power of the product of all
    variables does, i.e. iff saturating by that product gives the unit
    ideal; tested by adjoining y and the generator y*prod(u) - 1 to the
    integer forms of the generators and checking whether the reduced
    Groebner basis is the integer form of 1.
    """
    n = ideal.nvars
    gens = [{m + (0,): c for m, c in primitive(g)[0].items()} for g in ideal.generators if g]
    if not gens:
        return True  # zero ideal
    sat = {(1,) * (n + 1): 1, (0,) * (n + 1): -1}
    basis = groebner_basis(gens + [sat], grevlex(n + 1), max_pairs)
    return basis != [{(0,) * (n + 1): 1}]

