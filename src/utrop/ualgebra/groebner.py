"""Buchberger's algorithm over the rationals on one integer reduction kernel.

Polynomials are cleared to primitive integer form on entry, and all S-pair,
reduction and normal-form arithmetic stays in integers (cross-multiplying by
leading coefficients), which avoids Fraction overhead in the inner loops.
The kernel's polynomials are ``{monomial: int}`` dicts; only the edges see
``Poly``: :func:`_primitive` reads a ``Poly``'s ``Fraction`` coefficients
into integers, and :func:`_monic` turns a reduced basis back into ``Poly``
objects whose coefficients are ``Fraction`` again.

One run works on one :class:`_Basis`.  It memoizes each monomial's order
key and variable-support bitmask, so a key is computed once per run however
often leading-term choice, pair selection and the pair update compare that
monomial.  The divisor search tests the bitmasks first: ``lm`` can divide
``m`` only if ``lm`` uses no variable that ``m`` lacks.  ``_reduce_scaled``
is the one reduction loop; it also serves :class:`NormalFormCalculator`,
which undoes the loop's integer scale to return exact rational normal
forms.  Pair pruning follows Gebauer-Moeller; pair selection is the normal
strategy (smallest lcm in the term order).  A hard pair budget raises
instead of truncating.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, le

from ..errors import GroebnerBudgetError, InvalidArgumentError
from .poly import Poly, TermOrder, monomial_div, monomial_divides, monomial_lcm

DEFAULT_MAX_PAIRS = 200000


def _primitive(p: Poly):
    """``(terms, content)``: the primitive integer form of ``p`` (positive
    content) and the rational ``content`` with ``p == content * terms``."""
    if not p:
        return {}, Fraction(1)
    den = lcm(*(c.denominator for c in p.terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    return {m: v // g for m, v in ints.items()}, Fraction(g, den)


def _content_strip(terms):
    g = 0
    for v in terms.values():
        g = gcd(g, v)
        if g == 1:
            return terms
    if g > 1:
        return {m: v // g for m, v in terms.items()}
    return terms


def _normalize_sign(terms, lm):
    if terms[lm] < 0:
        return {m: -v for m, v in terms.items()}
    return terms


def _support(m) -> int:
    """Bitmask of the variables that occur in monomial ``m``."""
    mask = 0
    for i, e in enumerate(m):
        if e:
            mask |= 1 << i
    return mask


class _Memo(dict):
    """Values of a function of monomials, each computed on first use."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, m):
        value = self[m] = self.fn(m)
        return value


class _Basis:
    """Basis polynomials of one run with cached leading data.

    ``key(m)`` and ``support(m)`` are the run's memoized order key and
    support bitmask.  Each element keeps its leading monomial (``lms``),
    leading coefficient (``lcs``), the support bitmask of its leading
    monomial (``sevs``) and its tail (the terms below the leading one).
    Elements are only ever appended, so an index stays valid for the whole
    run.
    """

    __slots__ = ("order", "key", "support", "polys", "lms", "lcs", "sevs", "tails")

    def __init__(self, order: TermOrder, key=None, support=None):
        self.order = order
        self.key = key or _Memo(order.key).__getitem__
        self.support = support or _Memo(_support).__getitem__
        self.polys = []
        self.lms = []
        self.lcs = []
        self.sevs = []
        self.tails = []

    def add(self, terms):
        lm = max(terms, key=self.key)
        terms = _normalize_sign(_content_strip(terms), lm)
        self.polys.append(terms)
        self.lms.append(lm)
        self.lcs.append(terms[lm])
        self.sevs.append(self.support(lm))
        self.tails.append([(m, v) for m, v in terms.items() if m != lm])
        return len(self.polys) - 1

    def restrict(self, indices):
        """A basis of the elements at ``indices`` (in that order), sharing
        this run's memos."""
        out = _Basis(self.order, self.key, self.support)
        for i in indices:
            out.polys.append(self.polys[i])
            out.lms.append(self.lms[i])
            out.lcs.append(self.lcs[i])
            out.sevs.append(self.sevs[i])
            out.tails.append(self.tails[i])
        return out

    def find_reducer(self, m, skip: int = -1) -> int:
        """Index of the first element (other than ``skip``) whose leading
        monomial divides ``m``, or -1."""
        outside = ~self.support(m)
        lms = self.lms
        for i, sev in enumerate(self.sevs):
            if not sev & outside and i != skip and all(map(le, lms[i], m)):
                return i
        return -1


def _reduce_scaled(terms, basis: _Basis, skip: int = -1):
    """Normal form of an integer polynomial against ``basis`` (element
    ``skip`` left out), up to the loop's integer scale.

    Returns ``(remainder, scale)`` with ``remainder == scale * NF(terms)``
    exactly, where ``scale`` is the positive product of the multipliers the
    loop applied to keep the arithmetic integral.
    """
    key, find = basis.key, basis.find_reducer
    lms, lcs, tails = basis.lms, basis.lcs, basis.tails
    p = dict(terms)
    remainder = {}
    scale = 1
    while p:
        lm = max(p, key=key)
        i = find(lm, skip)
        if i < 0:
            remainder[lm] = p.pop(lm)
            continue
        lc, glc = p.pop(lm), lcs[i]  # glc > 0: basis elements are sign-normalized
        a = glc // gcd(lc, glc)
        b = lc * a // glc  # lc*a - b*glc == 0: the leading term cancels
        if a != 1:
            scale *= a
            p = {m: a * v for m, v in p.items()}
            if remainder:
                remainder = {m: a * v for m, v in remainder.items()}
        shift = monomial_div(lm, lms[i])
        for m, v in tails[i]:
            mm = tuple(map(add, m, shift))
            w = p.get(mm, 0) - b * v
            if w:
                p[mm] = w
            else:
                del p[mm]
    return remainder, scale


def _reduce_int(terms, basis: _Basis, skip: int = -1):
    """Full normal form of an integer polynomial against ``basis``; the
    result is primitive with positive leading coefficient (or empty)."""
    remainder, _ = _reduce_scaled(terms, basis, skip)
    if not remainder:
        return {}
    return _normalize_sign(_content_strip(remainder), max(remainder, key=basis.key))


def _s_poly(basis: _Basis, i: int, j: int, lcm):
    li, lj = basis.lms[i], basis.lms[j]
    ci, cj = basis.lcs[i], basis.lcs[j]
    d = gcd(ci, cj)
    mi, mj = monomial_div(lcm, li), monomial_div(lcm, lj)
    fi, fj = cj // d, ci // d
    out = {}  # the leading terms cancel, so only the tails contribute
    for m, v in basis.tails[i]:
        out[tuple(map(add, m, mi))] = fi * v
    for m, v in basis.tails[j]:
        mm = tuple(map(add, m, mj))
        w = out.get(mm, 0) - fj * v
        if w:
            out[mm] = w
        else:
            del out[mm]
    return out


def _update_pairs(basis: _Basis, pairs: set, lcms: dict, t: int):
    """Gebauer-Moeller pair update after appending generator ``t``.

    ``pairs`` holds the open pairs; ``lcms`` maps each pair ever opened to
    the lcm of its leading monomials.
    """
    lms, sevs, key = basis.lms, basis.sevs, basis.key
    lmt, st = lms[t], sevs[t]
    lcm = monomial_lcm
    # discard old pairs strictly dominated by t
    kill = set()
    for ij in pairs:
        i, j = ij
        lij = lcms[ij]
        if (
            not st & ~(sevs[i] | sevs[j])
            and monomial_divides(lmt, lij)
            and lij != lcm(lms[i], lmt)
            and lij != lcm(lms[j], lmt)
        ):
            kill.add(ij)
    pairs -= kill
    # new pairs (i, t), pruned
    new = {}
    for i in range(t):
        new.setdefault(lcm(lms[i], lmt), []).append(i)
    keep = []
    minimal = []
    for L in sorted(new, key=key):
        if any(monomial_divides(M, L) for M in minimal):
            continue
        minimal.append(L)
        reps = new[L]
        # product criterion: skip if some representative has disjoint lm
        if any(not sevs[i] & st for i in reps):
            continue
        lcms[(reps[0], t)] = L
        keep.append((reps[0], t))
    pairs.update(keep)


def _buchberger_int(gens, order: TermOrder, max_pairs: int):
    basis = _Basis(order)
    key = basis.key
    pairs: set = set()
    lcms: dict = {}
    stats = {"pairs": 0, "zero_reductions": 0}
    for g in gens:
        g = _reduce_int(g, basis)
        if g:
            _update_pairs(basis, pairs, lcms, basis.add(g))
    while pairs:
        if stats["pairs"] == max_pairs:
            raise GroebnerBudgetError(
                max_pairs, max_pairs, stats["zero_reductions"], len(basis.polys)
            )
        ij = min(pairs, key=lambda p: key(lcms[p]))
        pairs.discard(ij)
        stats["pairs"] += 1
        r = _reduce_int(_s_poly(basis, *ij, lcms[ij]), basis)
        if r:
            _update_pairs(basis, pairs, lcms, basis.add(r))
        else:
            stats["zero_reductions"] += 1
    return basis, stats


def _reduced_basis(basis: _Basis):
    """The reduced basis as ``(lm, terms)`` pairs in ascending order of
    ``lm``, each ``terms`` primitive with positive leading coefficient.

    Minimalize (keep the elements whose leading monomial no other leading
    monomial divides), then reduce each minimal element ``g`` once against
    the other minimal elements.  One pass is final: the reduction never
    touches ``lm(g)``, since no other leading monomial divides it, so every
    result keeps its leading monomial and the set of leading monomials is
    the same before and after the pass.  It leaves no term of ``g`` below
    ``lm(g)`` that another leading monomial divides, and ``lm(g)`` itself
    divides no such term, because a multiple of ``lm(g)`` is never smaller
    than ``lm(g)``.  So each result is reduced against the final set of
    leading monomials, whatever the other results are.
    """
    key, lms = basis.key, basis.lms
    kept = []
    for i in sorted(range(len(basis.polys)), key=lambda i: key(lms[i])):
        if not any(monomial_divides(lms[j], lms[i]) for j in kept):
            kept.append(i)
    minimal = basis.restrict(kept)
    return [
        (lm, _reduce_int(g, minimal, skip=i))
        for i, (lm, g) in enumerate(zip(minimal.lms, minimal.polys))
    ]


def _filled(polys, order: TermOrder) -> _Basis:
    """A basis holding the primitive integer forms of the nonzero ``polys``."""
    basis = _Basis(order)
    for g in polys:
        terms, _ = _primitive(g)
        if terms:
            basis.add(terms)
    return basis


def _monic(reduced, nvars: int):
    """``_reduced_basis`` output as monic polynomials, in the same order."""
    out = []
    for lm, terms in reduced:
        lc = terms[lm]
        out.append(Poly._trusted(nvars, {m: Fraction(v, lc) for m, v in terms.items()}))
    return out


def groebner_basis(gens, order: TermOrder, max_pairs: int = DEFAULT_MAX_PAIRS, stats: dict | None = None):
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Returns monic polynomials sorted by leading monomial (ascending order
    key); the result is the unique reduced basis for the order.  Raises
    :class:`GroebnerBudgetError` when more than ``max_pairs`` S-pairs would
    be reduced, after copying the counters it reached into ``stats``, and
    :class:`InvalidArgumentError` when ``max_pairs`` is negative.
    """
    if max_pairs < 0:
        raise InvalidArgumentError(f"max_pairs must be at least 0, got {max_pairs}")
    ints = [_primitive(g)[0] for g in gens]
    try:
        basis, run_stats = _buchberger_int([g for g in ints if g], order, max_pairs)
    except GroebnerBudgetError as exc:
        if stats is not None:
            stats.update(exc.stats)
        raise
    reduced = _reduced_basis(basis)
    if stats is not None:
        stats.update(run_stats)
        stats["basis_size"] = len(reduced)
    return _monic(reduced, order.nvars)


def reduced_basis(gb, order: TermOrder):
    """The reduced Groebner basis, in the form :func:`groebner_basis`
    returns, of the ideal that ``gb`` generates, when ``gb`` is already a
    Groebner basis for ``order``.

    No S-pair is formed: the input is only minimalized and inter-reduced,
    which is exact when its leading monomials already generate the leading
    ideal.
    """
    return _monic(_reduced_basis(_filled(gb, order)), order.nvars)


class NormalFormCalculator:
    """Normal forms against a fixed basis, with memoization.

    The basis is fixed at construction time, which is what makes caching
    sound; use this for repeated membership queries and for assembling
    normal-form matrices.
    """

    def __init__(self, basis, order: TermOrder):
        self.order = order
        self._basis = _filled(basis, order)
        self.nvars = order.nvars
        self._cache: dict = {}

    def reduce(self, p: Poly) -> Poly:
        """Exact normal form over the rationals (unique for a reduced basis
        up to the input's scale; the output keeps the input's scale)."""
        key = frozenset(p.terms.items())
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        terms, content = _primitive(p)
        remainder, scale = _reduce_scaled(terms, self._basis)
        factor = content / scale
        result = Poly(self.nvars, {m: v * factor for m, v in remainder.items()})
        self._cache[key] = result
        return result

    def contains(self, p: Poly) -> bool:
        return not self.reduce(p)
