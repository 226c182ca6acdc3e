"""Buchberger's algorithm over the rationals on one integer reduction kernel.

The kernel takes integer forms, ``{exponent tuple: int}`` dicts, and gives
primitive integer forms only (see :mod:`.poly`): content 1 and a positive
leading coefficient.  All S-pair, reduction and normal-form arithmetic stays in
integers (cross-multiplying by leading coefficients), which avoids Fraction
overhead in the inner loops.  ``Poly`` objects stay outside; a caller
converts its own with :func:`.poly.primitive`.  :mod:`.initial` hands the
kernel its grevlex, weighted and saturation runs and the inter-reduction of
the initial forms, and :mod:`.signed` the search's runs and the
:class:`NormalFormCalculator` of its LP and monomial witness.
:func:`groebner_basis` and :func:`reduced_basis` answer with the reduced
basis in ascending order of leading monomial.

Inside the kernel a monomial is one Python int, packed by the run's
:class:`_Codec`, and a polynomial is a ``{packed monomial: int}`` dict.  The
packed int holds fixed-width fields, from most to least significant: the
total degree, ``W0 + weight . m`` (``W0`` makes it non-negative), and one
field ``top - e_i`` per variable, the last variable highest, each variable
field with a zero guard bit above it.  Comparing two packed ints compares
total degree, then weight, then the grevlex tie-break (the smaller exponent
of the last variable wins): the ints' natural order is the term order, so
the leading term of a dict is ``max(p)`` and the smallest lcm of a pair set
is a plain ``min``.

The packing is affine in the exponents, ``pack(m) = one + steps . m``, so
``pack(a + b) == pack(a) + pack(b) - one``: a reduction step moves each
tail term of a reducer by one int addition of ``lm - lm_i``.  Divisibility
is one subtract-and-mask test: ``lm`` divides ``m`` iff no guard bit of
``m - lm + low`` is set, where ``low`` holds ``top`` in every variable
field.  Variable field ``i`` of that difference is ``top - (e_i(m) -
e_i(lm))``, which stays in ``[0, 2 * top]`` and so never borrows from its
neighbour, and it passes ``top``, setting its guard bit, exactly when
``e_i(m) < e_i(lm)``.

Range rule: a codec with ``top = 2**b - 1`` packs every monomial of total
degree at most ``top``, and a codec made for degree ``d`` has ``top >= 2 *
d``.  In a degree-first order every term a reduction makes is smaller than
the term it cancels, so no run meets a degree above those of its inputs
and its S-pair lcms.  A run starts with a codec for its inputs and, before
it packs an lcm of higher degree than ``top``, widens it: it repacks its
basis and its pairs with a codec for that degree.
:class:`NormalFormCalculator` widens its basis in the same way for an
input of higher degree than ``top``.

``_reduce_scaled`` is the one reduction loop; it also serves
:class:`NormalFormCalculator`, which returns the loop's integer remainder
with its integer scale.  The loop takes its leading terms from
a max-heap of the pending monomials rather than a ``max`` over them at
every step, and each basis keeps a memo from a monomial to its first
divisor, so a monomial that many reductions meet is tested against the
leading monomials once.  Pair pruning follows Gebauer-Moeller;
pair selection is the normal strategy (smallest lcm in the term order).  A
hard pair budget raises instead of truncating.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul

from ..errors import GroebnerBudgetError, InvalidArgumentError
from .poly import TermOrder

DEFAULT_MAX_PAIRS = 200000


class _Codec:
    """Packing of one term order's monomials of total degree at most
    ``top`` into ints whose natural order is the term order, where ``top``
    is ``2**b - 1`` for the least ``b`` that makes it at least ``2 * need``.

    Each variable field is ``b`` bits wide plus its guard bit.  The weight
    field is as wide as ``(max weight - min weight) * top`` needs, and the
    degree field, the most significant, is as wide as the int; neither
    needs a guard bit, since only the variable fields' guard bits are read.
    Weights that are not integers are scaled to integers first, which keeps
    the order.
    """

    __slots__ = ("top", "one", "low", "guards", "steps", "shifts")

    def __init__(self, order: TermOrder, need: int):
        b = (2 * need).bit_length() or 1
        top = (1 << b) - 1
        weight = order.weight or (0,) * order.nvars
        if any(type(x) is not int for x in weight):
            weight = [Fraction(x) for x in weight]
            den = lcm(*(x.denominator for x in weight))
            weight = [int(x * den) for x in weight]
        below, above = -min((0, *weight)), max((0, *weight))
        wshift = order.nvars * (b + 1)
        dshift = wshift + ((below + above) * top).bit_length()
        self.top = top
        self.shifts = range(0, wshift, b + 1)
        self.steps = tuple((1 << dshift) + (w << wshift) - (1 << s) for w, s in zip(weight, self.shifts))
        self.low = sum(top << s for s in self.shifts)
        self.one = self.low + (below * top << wshift)
        self.guards = sum(1 << (s + b) for s in self.shifts)

    def pack(self, m) -> int:
        return self.one + sum(map(mul, m, self.steps))

    def unpack(self, x) -> tuple:
        top = self.top
        return tuple(top - (x >> s & top) for s in self.shifts)


def _degree(forms) -> int:
    return max((sum(m) for p in forms for m in p), default=0)


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


class _Basis:
    """Basis polynomials of one run, packed by ``codec``, with cached
    leading data.

    Each element keeps its leading monomial (``lms``, packed), its
    divisor-test key ``lm - codec.low`` (``divs``: ``lms[i]`` divides a
    packed ``m`` iff ``not (m - divs[i]) & codec.guards``, the module's
    guard-bit test), the exponent tuple of its leading monomial (``exps``,
    from which lcms are taken and their degrees checked against the range),
    its leading coefficient (``lcs``) and its tail (the terms below the
    leading one).  Every monomial held has total degree at most
    ``codec.top``; :meth:`widen` swaps in a codec of larger range and
    repacks every element.  Elements are only ever appended, so an index
    stays valid for the whole run.

    ``memo`` maps a packed monomial to the index of the first element whose
    leading monomial divides it, or to the number of elements when it was
    looked up and none did.  Appending keeps both answers true: the first
    divisor stays first, and a later divisor can only sit at or past the
    stored count, where :func:`_reduce_scaled` resumes its scan.
    :meth:`widen` repacks every monomial, so it starts an empty memo.
    """

    _lists = ("polys", "lms", "divs", "exps", "lcs", "tails")
    __slots__ = ("order", "codec", "memo") + _lists

    def __init__(self, order: TermOrder, codec: _Codec):
        self.order = order
        self.codec = codec
        self.memo = {}
        for name in self._lists:
            setattr(self, name, [])

    def add(self, terms):
        lm = max(terms)
        terms = _normalize_sign(_content_strip(terms), lm)
        self.polys.append(terms)
        self.lms.append(lm)
        self.divs.append(lm - self.codec.low)
        self.exps.append(self.codec.unpack(lm))
        self.lcs.append(terms[lm])
        self.tails.append([(m, v) for m, v in terms.items() if m != lm])
        return len(self.polys) - 1

    def restrict(self, indices):
        """A basis of the elements at ``indices`` (in that order), with
        this basis's codec."""
        out = _Basis(self.order, self.codec)
        for name in self._lists:
            whole = getattr(self, name)
            getattr(out, name).extend(whole[i] for i in indices)
        return out

    def widen(self, need: int):
        """Repack every element with a codec whose range covers total
        degree ``need``; returns the function that repacks a monomial."""
        unpack, polys = self.codec.unpack, self.polys
        self.codec = _Codec(self.order, need)
        pack = self.codec.pack
        self.memo = {}
        for name in self._lists:
            setattr(self, name, [])
        for terms in polys:
            self.add({pack(unpack(m)): v for m, v in terms.items()})
        return lambda m: pack(unpack(m))


def _reduce_scaled(terms, basis: _Basis):
    """Normal form of an integer polynomial against ``basis``, up to the
    loop's integer scale.

    Returns ``(remainder, scale)`` with ``remainder == scale * NF(terms)``
    exactly, where ``scale`` is the positive product of the multipliers the
    loop applied to keep the arithmetic integral.  Each step cancels the
    leading term with the first element, by index, whose leading monomial
    divides it; ``basis.memo`` remembers that index per monomial.

    The pending monomials sit in a max-heap beside the dict ``p`` that
    holds their coefficients.  A monomial is pushed when it enters ``p``,
    and a popped one that is not in ``p`` (it cancelled, or it was pushed
    twice and is already taken) is skipped.  Every term a step adds lies
    below the term it cancels, so no monomial enters ``p`` again once it is
    taken, and the pops visit the leading terms in the order that
    ``max(p)`` would.
    """
    guards = basis.codec.guards
    lms, divs, lcs, tails, memo = basis.lms, basis.divs, basis.lcs, basis.tails, basis.memo
    size = len(divs)
    p = dict(terms)
    heap = [-m for m in p]
    heapify(heap)
    remainder = {}
    scale = 1
    while heap:
        lm = -heappop(heap)
        lc = p.pop(lm, 0)
        if not lc:
            continue
        i = memo.get(lm, 0)
        while i < size and (lm - divs[i]) & guards:
            i += 1
        memo[lm] = i
        if i == size:
            remainder[lm] = lc
            continue
        glc = lcs[i]  # glc > 0: basis elements are sign-normalized
        a = glc // gcd(lc, glc)
        b = lc * a // glc  # lc*a - b*glc == 0: the leading term cancels
        if a != 1:
            scale *= a
            p = {m: a * v for m, v in p.items()}
            if remainder:
                remainder = {m: a * v for m, v in remainder.items()}
        shift = lm - lms[i]
        for m, v in tails[i]:
            m += shift
            v *= b
            w = p.get(m)
            if w is None:
                p[m] = -v
                heappush(heap, -m)
            elif w == v:
                del p[m]
            else:
                p[m] = w - v
    return remainder, scale


def _reduce_int(terms, basis: _Basis):
    """Full normal form of an integer polynomial against ``basis``; the
    result is primitive with positive leading coefficient (or empty)."""
    remainder, _ = _reduce_scaled(terms, basis)
    if not remainder:
        return {}
    return _normalize_sign(_content_strip(remainder), max(remainder))


def _s_poly(basis: _Basis, i: int, j: int, lcm):
    ci, cj = basis.lcs[i], basis.lcs[j]
    d = gcd(ci, cj)
    si, sj = lcm - basis.lms[i], lcm - basis.lms[j]
    fi, fj = cj // d, ci // d
    out = {}  # the leading terms cancel, so only the tails contribute
    for m, v in basis.tails[i]:
        out[m + si] = fi * v
    for m, v in basis.tails[j]:
        m += sj
        w = out.get(m, 0) - fj * v
        if w:
            out[m] = w
        else:
            del out[m]
    return out


def _update_pairs(basis: _Basis, pairs: set, lcms: dict, t: int):
    """Gebauer-Moeller pair update after appending generator ``t``.

    ``pairs`` holds the open pairs; ``lcms`` maps each pair ever opened to
    the packed lcm of its leading monomials.  When an lcm with ``t`` would
    leave the codec's range, the basis and ``lcms`` are repacked first.
    """
    et = basis.exps[t]
    lts = [tuple(map(max, e, et)) for e in basis.exps[:t]]
    need = max(map(sum, lts), default=0)
    if need > basis.codec.top:
        repack = basis.widen(need)
        for ij, L in lcms.items():
            lcms[ij] = repack(L)
    codec = basis.codec
    one, steps, guards, low = codec.one, codec.steps, codec.guards, codec.low
    lts = [one + sum(map(mul, L, steps)) for L in lts]  # codec.pack, inlined
    lms = basis.lms
    lmt, dt = lms[t], basis.divs[t]
    # discard old pairs strictly dominated by t
    kill = set()
    for ij in pairs:
        i, j = ij
        lij = lcms[ij]
        if not (lij - dt) & guards and lij != lts[i] and lij != lts[j]:
            kill.add(ij)
    pairs -= kill
    # new pairs (i, t), pruned
    new = {}
    for i, L in enumerate(lts):
        new.setdefault(L, []).append(i)
    keep = []
    minimal = []
    coprime = lmt - one  # lcm(lm_i, lm_t) == lms[i] + coprime iff the lms share no variable
    for L in sorted(new):
        if any(not (L - d) & guards for d in minimal):
            continue
        minimal.append(L - low)
        reps = new[L]
        # product criterion: skip if some representative has disjoint lm
        if any(L == lms[i] + coprime for i in reps):
            continue
        lcms[(reps[0], t)] = L
        keep.append((reps[0], t))
    pairs.update(keep)


def _buchberger_int(gens, order: TermOrder, max_pairs: int):
    basis = _Basis(order, _Codec(order, _degree(gens)))
    pairs: set = set()
    lcms: dict = {}
    stats = {"pairs": 0, "zero_reductions": 0}
    for g in gens:
        pack = basis.codec.pack  # a pair update may have widened the codec
        g = _reduce_int({pack(m): v for m, v in g.items()}, basis)
        if g:
            _update_pairs(basis, pairs, lcms, basis.add(g))
    while pairs:
        if stats["pairs"] == max_pairs:
            raise GroebnerBudgetError(max_pairs, stats["zero_reductions"], len(basis.polys))
        ij = min(pairs, key=lcms.__getitem__)
        pairs.discard(ij)
        stats["pairs"] += 1
        r = _reduce_int(_s_poly(basis, *ij, lcms[ij]), basis)
        if r:
            _update_pairs(basis, pairs, lcms, basis.add(r))
        else:
            stats["zero_reductions"] += 1
    return basis, stats


def _reduced_basis(basis: _Basis) -> list:
    """The reduced basis as integer forms in ascending order of leading
    monomial, each primitive with positive leading coefficient.

    Minimalize (keep the elements whose leading monomial no other leading
    monomial divides), then reduce the tail of each minimal element ``g``
    once against the minimal elements and put its leading term back, at
    the loop's scale.  ``lm(g)`` divides no term that this reduction meets,
    because every such term lies below ``lm(g)`` and a multiple of
    ``lm(g)`` never does, so ``g`` reduces against the other minimal
    elements only.  One pass is final: no other leading monomial divides
    ``lm(g)``, so every result keeps its leading monomial and the set of
    leading monomials is the same before and after the pass, and each
    result is reduced against that final set, whatever the other results
    are.
    """
    lms, divs, guards = basis.lms, basis.divs, basis.codec.guards
    kept = []
    for i in sorted(range(len(lms)), key=lms.__getitem__):
        if not any(not (lms[i] - divs[j]) & guards for j in kept):
            kept.append(i)
    minimal = basis.restrict(kept)
    unpack = basis.codec.unpack
    out = []
    for lm, lc, tail in zip(minimal.lms, minimal.lcs, minimal.tails):
        remainder, scale = _reduce_scaled(tail, minimal)
        terms = _content_strip({lm: lc * scale, **remainder})
        out.append({unpack(m): v for m, v in terms.items()})
    return out


def _filled(forms, order: TermOrder) -> _Basis:
    """A basis holding the nonzero integer forms ``forms``."""
    forms = [g for g in forms if g]
    basis = _Basis(order, _Codec(order, _degree(forms)))
    for g in forms:
        basis.add({basis.codec.pack(m): v for m, v in g.items()})
    return basis


def groebner_basis(gens, order: TermOrder, max_pairs: int = DEFAULT_MAX_PAIRS, stats: dict | None = None):
    """Reduced Groebner basis of the ideal generated by the integer forms
    ``gens``.

    Returns the unique reduced basis for the order sorted by leading
    monomial (ascending order key), as primitive integer forms with
    positive leading coefficients.  Raises :class:`GroebnerBudgetError`
    when more than ``max_pairs`` S-pairs would be reduced, after copying
    the counters it reached into ``stats``, and
    :class:`InvalidArgumentError` when ``max_pairs`` is negative.
    """
    if max_pairs < 0:
        raise InvalidArgumentError(f"max_pairs must be at least 0, got {max_pairs}")
    try:
        basis, run_stats = _buchberger_int([g for g in gens if g], order, max_pairs)
    except GroebnerBudgetError as exc:
        if stats is not None:
            stats.update(exc.stats)
        raise
    reduced = _reduced_basis(basis)
    if stats is not None:
        stats.update(run_stats)
        stats["basis_size"] = len(reduced)
    return reduced


def reduced_basis(gb, order: TermOrder):
    """The reduced Groebner basis of the ideal that the integer forms
    ``gb`` generate, when they are already a Groebner basis for ``order``,
    as :func:`groebner_basis` answers it.

    No S-pair is formed: the input is only minimalized and inter-reduced,
    which is exact when its leading monomials already generate the leading
    ideal.
    """
    return _reduced_basis(_filled(gb, order))


class NormalFormCalculator:
    """Normal forms against a fixed basis of integer forms, with
    memoization.

    The basis is fixed at construction time, which is what makes caching
    sound; use this for repeated membership queries and for assembling
    normal-form matrices.
    """

    def __init__(self, basis, order: TermOrder):
        self._basis = _filled(basis, order)
        self._cache: dict = {}  # results by frozen input terms

    def reduce(self, terms) -> tuple[dict, int]:
        """``(remainder, s)`` for the integer form ``terms``: ``remainder``
        is ``s`` times the normal form of ``terms``, as an integer form,
        and ``s`` is the positive integer scale of the reduction loop.  So
        ``terms`` lies in the ideal iff ``remainder`` is empty."""
        key = frozenset(terms.items())
        hit = self._cache.get(key)
        if hit is None:
            need = _degree((terms,))
            if need > self._basis.codec.top:
                self._basis.widen(need)
            codec = self._basis.codec
            remainder, scale = _reduce_scaled({codec.pack(m): v for m, v in terms.items()}, self._basis)
            unpack = codec.unpack
            hit = self._cache[key] = {unpack(m): v for m, v in remainder.items()}, scale
        return hit
