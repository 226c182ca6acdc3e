"""Signed tropical membership certification.

A weight ``w`` lies in the signed tropicalization for sign pattern ``tau``
iff the initial ideal J of the twisted ideal at ``w`` contains no nonzero
polynomial with all-positive coefficients.  Certificates:

* Member: a strictly positive rational common zero of J (an all-positive
  polynomial cannot vanish there);
* NonMember: an explicit all-positive element of J (found among the
  reduced basis elements or by exact linear programming over bounded
  degree), or a monomial in J (then ``w`` is not even in the unsigned
  tropicalization);
* Inconclusive: neither search succeeded -- an honest third state, never
  silently converted.

Twisting commutes with taking initial ideals and maps reduced bases to
reduced bases, so the Groebner data of a weight is reused across all sign
patterns.  The one Groebner run that does not depend on the weight, the
reduced grevlex basis of I that every weighted run starts from, is made
once per ideal and process inside :func:`~.initial.initial_ideal`.  The
weight's own runs are made once per symmetry orbit of cones, at the orbit's
least weight: a variable permutation g with g.I = I
(:func:`~.ideals.ideal_symmetries`) gives in_{g.w}(I_tau) = g.in_w(I_sigma)
with sigma[i] = tau[g[i]], so cone g.w under tau is decided by the
representative w under sigma, and g carries the witness over: a positive
point and an all-positive element are permuted, and the monomial witness
(prod u)^k is symmetric.  Every g in the coset of the stabilizer of w that
maps w onto a cone will do, so the certifier takes the one whose pulled-back
pattern is least, and the patterns that the stabilizer permutes are decided
once.  Whether w lies in Trop(I) at all, J holding no monomial (Maclagan-
Sturmfels, *Introduction to Tropical Geometry*, Theorem 3.2.3), is settled
by any positive point found, since a monomial vanishes nowhere on the
torus; a saturation run answers it only when no point did.

A pattern is decided on primitive integer forms (:mod:`.poly`), the one
form the Groebner kernel takes: the certifier converts the reduced basis of
J once, a twist flips signs in those dicts, the positive-point search keeps
its systems in that form, an LP column is the kernel's integer normal form
times its scale, the LP's answer and the monomial witness are checked by
reducing integer forms, and a point is checked on those forms in integers.
A ``Poly`` is built only for a witness.  Before the all-positive-element
LP, a presolve drops every column that a one-signed row forces to zero, so
the simplex sees a small part of the LP, and none when no column is left.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .. import linalg
from ..errors import GroebnerBudgetError
from ..symtrees import Symmetry, enumerate_orderings
from .groebner import DEFAULT_MAX_PAIRS, NormalFormCalculator, groebner_basis
from .ideals import Ideal, ideal_symmetries, permute_poly, permute_weight
from .initial import _check_tau, _grevlex_basis, _remember_grevlex, initial_ideal, is_monomial_free
from .initial import twist_poly, twist_terms
from .poly import Poly, grevlex, primitive

NODE_BUDGET = 4000  # search nodes per positive-point search
LP_CAPS = (2, 3)  # degree caps of the all-positive-element LPs, in order


class Verdict(enum.Enum):
    MEMBER = "member"
    NON_MEMBER = "nonmember"
    INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# member search: strictly positive rational points
# ---------------------------------------------------------------------------

_BRANCH_VALUES = [
    Fraction(1),
    Fraction(2),
    Fraction(1, 2),
    Fraction(3),
    Fraction(1, 3),
    Fraction(4),
    Fraction(1, 4),
    Fraction(3, 2),
    Fraction(2, 3),
    Fraction(5),
    Fraction(1, 5),
    Fraction(5, 2),
    Fraction(2, 5),
]


def _kth_root(f: Fraction, k: int):
    """Exact positive k-th root of a positive rational, or None."""
    if f <= 0:
        return None

    def iroot(v: int):
        if v == 0:
            return 0
        lo, hi = 0, 1
        while hi**k < v:
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if mid**k < v:
                lo = mid + 1
            else:
                hi = mid
        return lo if lo**k == v else None

    a, b = iroot(f.numerator), iroot(f.denominator)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def _forced_value(g: dict):
    """If the integer form ``g`` pins a single variable as c*u^k + d, return
    (var, value) of the positive solution, or ('dead', None) when no
    positive rational solution exists, else None."""
    if len(g) != 2:
        return None
    (m0, c0), (m1, c1) = sorted(g.items(), key=lambda mc: sum(mc[0]))
    if sum(m0) != 0:
        return None
    support = [i for i, e in enumerate(m1) if e]
    if len(support) != 1:
        return None
    var = support[0]
    val = _kth_root(Fraction(-c0, c1), m1[var])
    if val is None or val <= 0:
        return ("dead", None)
    return (var, val)


def _definite(g: dict) -> bool:
    """Whether the nonzero integer form ``g`` has coefficients of one sign."""
    return len({c > 0 for c in g.values()}) == 1


def _hopeless(system) -> bool:
    """Whether ``system`` holds a sign-definite element, a nonzero constant
    among them.  Such an element keeps one sign on the open orthant, and a
    positive substitution leaves it sign-definite, so neither the system nor
    any system substituted from it has a positive zero."""
    return any(map(_definite, system))


def _substituted(g: dict, var: int, val: Fraction) -> dict:
    """The primitive integer form of ``g`` after ``var := val``, for a
    positive ``val = p/q``.  With ``E`` the top degree of ``var`` in ``g``,
    each term ``c * u^e`` becomes ``c * p^e * q^(E - e)``: the substituted
    polynomial times ``q^E``, so a positive multiple, and it keeps every
    sign."""
    top = max(m[var] for m in g)
    if not top:
        return g
    p, q = val.numerator, val.denominator
    factors = [p**e * q ** (top - e) for e in range(top + 1)]
    out = {}
    for m, c in g.items():
        c *= factors[m[var]]
        m = m[:var] + (0,) + m[var + 1:]
        c += out.get(m, 0)
        if c:
            out[m] = c
        else:
            del out[m]
    content = math.gcd(*out.values())
    return {m: c // content for m, c in out.items()} if content > 1 else out


def _substitute(system, reduced: bool, var: int, val: Fraction, order, forced=None):
    """``system`` after ``var := val``, and whether the result is a reduced
    Groebner basis for ``order`` up to a nonzero factor on each element.

    ``reduced`` says the same of ``system``, and ``forced`` is the index of
    the element that forced the value, or None for a branch value.  The
    result comes from the first of these that applies:

    * ``system`` is reduced and its forced element is ``c*u + d``: that
      element goes, with no run.  Its leading monomial is ``u``, so no other
      element of a reduced basis holds ``u``, and the others are already the
      reduced basis of the substituted ideal, in the same order;
    * the substituted system is :func:`_hopeless`: it is returned as it is,
      with no run, since no reduction can give it a positive zero;
    * one small Groebner run, whose result is reduced; a run past its pair
      budget leaves the substituted elements as they are, not reduced.
    """
    if reduced and forced is not None and _degree(system[forced]) == 1:
        return system[:forced] + system[forced + 1:], True
    system = [_substituted(g, var, val) for g in system]
    if _hopeless(system):
        return system, False
    try:
        return groebner_basis(system, order, max_pairs=2000), True
    except GroebnerBudgetError:
        return [g for g in system if g], False


def _degree(g: dict) -> int:
    return max(map(sum, g), default=0)


def positive_point_search(gens, nvars: int):
    """Depth-first search for a strictly positive rational common zero of
    ``gens``, which must be a reduced grevlex basis up to a nonzero factor
    on each element, given as primitive integer forms.  The search keeps its
    systems in that form: values go in by :func:`_substituted`, and each
    Groebner run returns integer forms.

    A node applies forced single-variable solutions (:func:`_forced_value`)
    to a fixpoint, then branches the most frequent variable of the shortest
    element over ``_BRANCH_VALUES`` in order.  :meth:`ConeCertifier._decide`
    passes the sign twist of the reduced basis of J, and a twist maps each
    monomial to plus or minus itself, so it keeps every leading monomial and
    the order of the elements: a Groebner run would only make each element
    monic.  Each substituted system goes through :func:`_substitute`, which
    starts a small Groebner run only where one can change the system: not
    for a linear forced value in a reduced basis, and not for a system that
    is already hopeless.  The sign-definite test, the forced values and the
    branch choice do not change when an element is scaled, and a run
    normalizes its input, so the nodes and the point found are those that a
    run at every substitution would give.  A hopeless child still counts as
    a node; one that a run would not have shown to be hopeless has a
    subtree with no hit in it, so skipping that subtree only leaves more of
    the budget to the siblings after it.  At most ``NODE_BUDGET`` nodes are
    visited, and a child past the budget starts no run.  Returns a full
    assignment dict or None.
    """
    order = grevlex(nvars)
    budget = [NODE_BUDGET]

    def search(system, reduced, assignment):
        budget[0] -= 1
        if _hopeless(system):
            return None
        # forced single-variable solutions, to fixpoint
        while True:
            forced = None
            for k, g in enumerate(system):
                f = _forced_value(g)
                if f is not None:
                    forced = k, f
                    break
            if forced is None:
                break
            k, (var, val) = forced
            if var == "dead":
                return None
            assignment = {**assignment, var: val}
            system, reduced = _substitute(system, reduced, var, val, order, k)
            if _hopeless(system):
                return None
        if not system:
            full = dict(assignment)
            for i in range(nvars):
                full.setdefault(i, Fraction(1))
            return full
        # branch on the most constrained variable of the shortest generator
        shortest = min(system, key=lambda g: (len(g), _degree(g)))
        occur = {}
        for g in system:
            for m in g:
                for i, e in enumerate(m):
                    if e:
                        occur[i] = occur.get(i, 0) + 1
        cands = [i for i in range(nvars) if any(m[i] for m in shortest)]
        var = max(cands, key=lambda i: occur.get(i, 0))
        for val in _BRANCH_VALUES:
            if budget[0] <= 0:
                return None
            hit = search(*_substitute(system, reduced, var, val, order), {**assignment, var: val})
            if hit is not None:
                return hit
        return None

    return search(list(gens), True, {})


# ---------------------------------------------------------------------------
# nonmember search: all-positive elements
# ---------------------------------------------------------------------------


def _monomials_up_to(nvars: int, cap: int):
    for total in range(cap + 1):
        for bars in itertools.combinations(range(total + nvars - 1), nvars - 1):
            expo = []
            prev = -1
            for b in bars:
                expo.append(b - prev - 1)
                prev = b
            expo.append(total + nvars - 2 - prev)
            yield tuple(expo)


def _live_columns(rows, ncols: int) -> list:
    """The columns, in ascending order, that no row of ``rows`` forces to
    zero.  Each row is a ``{column: entry}`` dict of an equation with
    right-hand side 0 over nonnegative unknowns, so a row whose entries in
    the live columns share one sign forces each of them to 0; this repeats
    until no row forces one (Andersen & Andersen, "Presolving in linear
    programming", Math. Prog. 1995)."""
    live = set(range(ncols))
    while True:
        forced = set()
        for row in rows:
            signs = {c > 0 for j, c in row.items() if j in live}
            if len(signs) == 1:
                forced.update(row)
        forced &= live
        if not forced:
            return sorted(live)
        live -= forced


def all_positive_element_search(nf: NormalFormCalculator, nvars: int, cap: int):
    """An all-positive-coefficient element of the ideal behind ``nf`` with
    degree <= cap, or None.

    A nonneg combination of monomials lies in the ideal iff its normal form
    vanishes; that is a rational linear feasibility problem over the normal
    forms of all candidate monomials.  Column j holds the integers s_j *
    NF(m_j) (:meth:`~.groebner.NormalFormCalculator.reduce`) over s_j in
    the sum row: a positive column scale changes no sign and no ratio-test
    winner of Bland's rule, so lam_j = s_j * x_j.

    A presolve drops the columns that a one-signed row forces to zero
    (:func:`_live_columns`); most columns go.  The simplex gets the live
    columns in their order, and the rows that still hold a live entry in
    theirs, plus the sum row; with no live column left there is no element,
    and no simplex runs.
    """
    monos = list(_monomials_up_to(nvars, cap))
    images = [nf.reduce({m: 1}) for m in monos]
    rows: dict = {}  # normal-form monomial -> {column: entry}
    for col, (img, _) in enumerate(images):
        for m, c in img.items():
            rows.setdefault(m, {})[col] = c
    if not rows:
        return None
    live = _live_columns(rows.values(), len(monos))
    if not live:
        return None
    kept = [row for _, row in sorted(rows.items()) if not row.keys().isdisjoint(live)]
    mat = [[row.get(j, 0) for j in live] for row in kept]
    mat.append([images[j][1] for j in live])
    sol = linalg.solve_nonneg(mat, [0] * len(kept) + [1])
    if sol is None:
        return None
    poly = Poly(nvars, {monos[j]: images[j][1] * x for j, x in zip(live, sol) if x})
    if not poly or poly.coefficient_signs() != {1}:
        return None
    if nf.reduce(primitive(poly)[0])[0]:
        return None
    return poly


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    verdict: Verdict
    witness: dict
    stats: dict

    def to_json(self) -> dict:
        return {"verdict": self.verdict.value, "witness": self.witness, "stats": self.stats}


class ConeCertifier:
    """Per-weight certification engine, reusable across sign patterns and
    across the cones of the weight's symmetry orbit.

    Construction runs one Groebner basis at ``w``, once for all patterns:
    the weighted run inside :func:`initial_ideal`, which already yields the
    reduced grevlex basis of the initial ideal J.  It starts from the
    homogenized reduced grevlex basis of the ideal, which
    :func:`initial_ideal` computes on its first call for the ideal and
    shares with every later certifier in the process.  The saturation run
    of :func:`is_monomial_free`, started from J, runs at most once, and
    only when :attr:`monomial_free` is read or needed before a verified
    positive point has settled it.  A sign twist maps the reduced basis
    onto the reduced basis of the twisted initial ideal, so per-pattern
    work is only the positive-point / positive-element search.  Each
    pattern is decided once, and so is each class of patterns that
    ``stabilizer``, the symmetries of the ideal that fix ``w`` (identity
    first; the identity alone when not given), permutes (:meth:`decide`).
    ``stats`` holds the counters of the weighted run.

    :meth:`certify` climbs a fixed ladder and stops at the first rung that
    decides: a sign-definite element of the twisted basis, a positive
    point, then an all-positive element by LP at each degree cap of
    ``LP_CAPS`` in turn.  A monomial in J, which leaves no positive point
    to find, outranks every rung: once known it decides every pattern, it
    replaces a sign-definite element as the witness, and the LP rung asks
    for it first.  The point comes from the deterministic depth-first
    :func:`positive_point_search` of at most ``NODE_BUDGET`` nodes, started
    from the twisted basis itself, and counts only if it is positive and a
    zero of every element.  The search runs a small Groebner basis only on
    a substituted system that the run can change: neither after a linear
    forced value in a reduced basis nor on a system that already holds a
    sign-definite element.
    """

    def __init__(self, ideal: Ideal, w, max_pairs: int = DEFAULT_MAX_PAIRS, stabilizer=None):
        self.ideal = ideal
        self.w = tuple(w)
        self.max_pairs = max_pairs
        self.stats: dict = {}
        self.initial = initial_ideal(ideal, w, max_pairs, self.stats)
        identity = tuple(range(ideal.nvars))
        self._stabilizer = [identity] if stabilizer is None else [tuple(s) for s in stabilizer]
        self._monomial_free = None  # unknown until a point or the saturation run settles it
        self._forms = [primitive(g)[0] for g in self.initial.generators]
        self._decided: dict = {}  # sign pattern -> (verdict, witness type, witness)

    @property
    def monomial_free(self) -> bool:
        """Whether J holds no monomial, so that ``w`` lies in Trop(I).  A
        verified positive point of a twisted J settles it, since a monomial
        vanishes nowhere on the torus; otherwise the saturation run of
        :func:`is_monomial_free` answers it, once."""
        if self._monomial_free is None:
            self._monomial_free = is_monomial_free(self.initial, self.max_pairs)
        return self._monomial_free

    @functools.cached_property
    def _monomial_witness(self):
        """The least power (prod u)^k in J.  Saturation found a monomial in
        J, so some power of prod u lies in J and the loop ends.  NF is
        linear and u * (p - NF(p)) lies in J, so NF((prod u)^k) is
        NF(prod u * NF((prod u)^(k-1))); the loop carries the kernel's
        integer remainders, positive multiples of those normal forms, which
        vanish with them."""
        n = self.ideal.nvars
        nf = NormalFormCalculator(self._forms, grevlex(n))
        k, (rem, _) = 1, nf.reduce({(1,) * n: 1})
        while rem:
            k, (rem, _) = k + 1, nf.reduce({tuple(e + 1 for e in m): c for m, c in rem.items()})
        return Poly.monomial((k,) * n, n)

    def decide(self, tau, perm=None):
        """The permutation that carries ``w`` onto the cone at
        ``permute_weight(w, perm)`` under which ``tau`` is decided, and the
        decision ``(verdict, witness type, witness)`` at ``w``.

        Every ``perm * s``, for ``s`` in the stabilizer of ``w``, carries
        ``w`` onto the same cone; the one taken gives the least pulled-back
        pattern ``tau[(perm * s)[i]]``, the first in the stabilizer's order
        on a tie.  So the patterns of a cone's coset are decided once, and
        the choice depends only on the cone and ``tau``.  A scan witness is
        kept even when J holds a monomial: :meth:`certify` swaps it for the
        monomial witness."""
        n = self.ideal.nvars
        _check_tau(tau, n)
        perm = tuple(range(n)) if perm is None else tuple(perm)
        perm = min((tuple(perm[i] for i in s) for s in self._stabilizer),
                   key=lambda g: [tau[j] for j in g])
        pulled = tuple(tau[j] for j in perm)
        if pulled not in self._decided:
            self._decided[pulled] = self._decide(pulled)
        return perm, self._decided[pulled]

    def certify(self, tau, perm=None) -> Certificate:
        """The certificate of the cone at ``w`` under ``tau``, or, given a
        symmetry ``perm`` of the ideal, of the cone at ``permute_weight(w,
        perm)``: that one is decided at ``w`` under a pulled-back pattern
        (:meth:`decide`), and its witness is pushed forward by the
        permutation that pulled it back.  Its stats then also name
        ``image_of`` (``w``) and that ``permutation``, unless it is the
        identity.
        """
        perm, (verdict, kind, found) = self.decide(tau, perm)
        if verdict is Verdict.NON_MEMBER and not self.monomial_free:
            kind, found = "monomial_in_initial_ideal", self._monomial_witness
        witness = {"type": kind}
        if kind == "positive_point":
            witness["point"] = [[v.numerator, v.denominator] for v in permute_weight(found, perm)]
        elif kind is not None:
            witness["element"] = permute_poly(found, perm).text(list(self.ideal.variables))
        stats = dict(self.stats)
        if perm != tuple(range(len(perm))):
            stats.update(image_of=list(self.w), permutation=list(perm))
        return Certificate(verdict, witness, stats)

    def _decide(self, tau):
        """The verdict at ``w`` under ``tau``, the witness type, and the
        witness: a point, a polynomial, or None."""
        n = self.ideal.nvars
        if self._monomial_free is False:
            return _MONOMIAL
        twisted = [twist_terms(g, tau) for g in self._forms]
        # cheap scan: a sign-definite basis element is (up to sign) an
        # all-positive element of the twisted initial ideal
        k = next((k for k, g in enumerate(twisted) if _definite(g)), None)
        if k is not None:
            elt = twist_poly(self.initial.generators[k], tau)
        else:
            point = positive_point_search(twisted, n)
            if point is not None:
                vec = [point[i] for i in range(n)]
                if all(v > 0 for v in vec) and all(_vanishes_at(g, vec) for g in twisted):
                    self._monomial_free = True  # a monomial vanishes nowhere on the torus
                    return Verdict.MEMBER, "positive_point", vec
            if not self.monomial_free:
                return _MONOMIAL
            nf = NormalFormCalculator(twisted, grevlex(n))
            for cap in LP_CAPS:
                elt = all_positive_element_search(nf, n, cap)
                if elt is not None:
                    break
        if elt is None:
            return Verdict.INCONCLUSIVE, None, None
        if elt.coefficient_signs() != {1}:
            elt = -elt  # a negative-definite basis element
        return Verdict.NON_MEMBER, "all_positive_element", elt


# the decision of a pattern when J holds a monomial; certify names the monomial
_MONOMIAL = (Verdict.NON_MEMBER, "monomial_in_initial_ideal", None)


def _vanishes_at(g: dict, point) -> bool:
    """Whether the integer form ``g`` is zero at the positive rational
    ``point``, in integers only.  :func:`_substituted` puts in one
    coordinate at a time, each time giving a positive multiple of the
    substituted form, so ``g`` vanishes iff nothing is left of it."""
    for var, val in enumerate(point):
        if not g:
            break
        g = _substituted(g, var, val)
    return not g


def cone_orbits(ideal: Ideal, weights, group=None) -> list[tuple[tuple, list[tuple[int, tuple[int, ...]]]]]:
    """The orbits of the cones at ``weights`` under the symmetries of
    ``ideal``, as pairs ``(rep, members)`` in the order of each orbit's
    lowest index.

    ``rep`` is the orbit's least weight, ``min(permute_weight(w, g) for g
    in group)`` (:func:`~.ideals.permute_weight`), so it depends on the
    orbit alone, not on which of its cones ``weights`` holds.  ``members``
    lists ``(index, perm)`` in ascending index order, with ``perm`` the
    first permutation of ``group`` that maps ``rep`` onto that cone's
    weight.  ``group`` is :func:`~.ideals.ideal_symmetries` of ``ideal``,
    computed here unless given.  A symmetry maps each cone of a symmetric
    fan onto a cone, rays onto rays, so interior points onto interior
    points.
    """
    group = ideal_symmetries(ideal) if group is None else group
    orbits: dict = {}
    for i, w in enumerate(weights):
        rep = min(permute_weight(w, g) for g in group)
        perm = next(g for g in group if permute_weight(rep, g) == tuple(w))
        orbits.setdefault(rep, []).append((i, perm))
    return list(orbits.items())


def sign_key(tau) -> str:
    """A sign pattern as reports name it, e.g. ``+,+,-``."""
    return ",".join("+" if t > 0 else "-" for t in tau)


def _certify_orbit(ideal: Ideal, rep, stabilizer, perms, taus, max_pairs: int, probe_perms=()):
    """The records of the cones ``permute_weight(rep, perm)`` for ``perm``
    in ``perms``, then of the probes for ``perm`` in ``probe_perms``, all
    certified by the one certifier at ``rep``, whose stabilizer in the
    ideal's symmetry group is ``stabilizer``; a Groebner budget error
    stands in for every one of them.  A cone is certified under every
    pattern of ``taus``, and a probe under none.  Every pattern of every
    cone is decided before ``in_trop`` is read, so that a positive point
    found under any of them spares the saturation run."""
    try:
        certifier = ConeCertifier(ideal, rep, max_pairs, stabilizer)
        for perm in perms:
            for tau in taus:
                certifier.decide(tau, perm)
        in_trop = certifier.monomial_free
        return [
            {"in_trop": in_trop,
             "signed": {sign_key(tau): certifier.certify(tau, perm).to_json() for tau in patterns}}
            for group, patterns in ((perms, taus), (probe_perms, ()))
            for perm in group
        ]
    except GroebnerBudgetError as exc:
        return [exc] * (len(perms) + len(probe_perms))


def certify_weights(ideal: Ideal, weights, taus, max_pairs: int = DEFAULT_MAX_PAIRS,
                    jobs: int = 1, probes=()) -> list:
    """Certify the cones at ``weights`` under every sign pattern of
    ``taus``, and the weights of ``probes`` under none, one symmetry orbit
    at a time (:func:`cone_orbits`): the orbit's least weight runs the
    Groebner bases and the searches, and every record of the orbit is
    pushed forward from it.  The symmetry group is computed once here, and
    each orbit's certifier gets the stabilizer of its least weight, so a
    pattern and its images under that stabilizer are decided once.  A
    record is the same whichever other weights the call holds.

    Returns, per weight of ``weights`` and then of ``probes``,
    ``{"in_trop": bool, "signed": {sign_key(tau): certificate JSON}}``, or
    the :class:`GroebnerBudgetError` that stopped its orbit.  A probe's
    ``signed`` is empty: it answers only whether the weight lies in
    Trop(I), settled by a point found for a cone of its orbit or else by
    the orbit's saturation run; that is how ``certify --probes`` answers
    its random weights.  With ``jobs > 1`` the orbits run in a pool of at
    most ``jobs`` worker processes, never more than there are orbits; the
    records are the same.  The grevlex basis that every orbit starts from
    is made here once, and the pool's initializer hands it to each worker
    once, not to each task; its budget error stands for every weight.
    """
    group = ideal_symmetries(ideal)
    everything = [*weights, *probes]
    orbits = cone_orbits(ideal, everything, group)
    workers = min(jobs, len(orbits))
    cones = len(weights)
    tasks = [
        (ideal, rep, [s for s in group if permute_weight(rep, s) == rep],
         [p for i, p in members if i < cones], taus, max_pairs,
         [p for i, p in members if i >= cones])
        for rep, members in orbits
    ]
    if workers > 1:
        import concurrent.futures  # only a pool needs these
        import multiprocessing

        try:
            shared = _grevlex_basis(ideal.generators, ideal.nvars, max_pairs)
        except GroebnerBudgetError as exc:
            return [exc] * len(everything)
        context = multiprocessing.get_context("spawn")  # workers import afresh
        with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=context, initializer=_remember_grevlex,
            initargs=(ideal.generators, ideal.nvars, max_pairs, shared),
        ) as pool:
            futures = [pool.submit(_certify_orbit, *task) for task in tasks]
            per_orbit = [future.result() for future in futures]
    else:
        per_orbit = [_certify_orbit(*task) for task in tasks]
    records = [None] * len(everything)
    for (_, members), results in zip(orbits, per_orbit):
        # members ascend by index, so the cones come first, as in results
        for (i, _), record in zip(members, results):
            records[i] = record
    return records


# ---------------------------------------------------------------------------
# exhaustive sweep over sign patterns (small n)
# ---------------------------------------------------------------------------


def search_sign_patterns_c(n: int, fan, ideal: Ideal, max_pairs: int = DEFAULT_MAX_PAIRS):
    """Certify every candidate cone under every sign pattern and classify
    the resulting subfans against the per-ordering subcomplexes.

    A pattern's MEMBER faces and an ordering's named subfan, the faces on
    its ``Complex.compatible_vertices``, are both faces of ``fan.complex``.

    Returns a report dict; Inconclusive verdicts are listed, never dropped.
    The cones are certified by :func:`certify_weights`, and the cones of an
    orbit that exhausted the Groebner budget are listed in
    ``skipped_faces``.
    """
    faces = fan.proper_faces()
    weights = [fan.interior_point(f) for f in faces]
    taus = list(itertools.product((1, -1), repeat=ideal.nvars))
    certified, skipped = [], []
    for f, record in zip(faces, certify_weights(ideal, weights, taus, max_pairs)):
        if isinstance(record, GroebnerBudgetError):
            skipped.append(sorted(f))
        else:
            certified.append((f, record))

    named_subfans = {}
    for family, symmetry in (("as", Symmetry.AXIAL), ("cs", Symmetry.CENTRAL)):
        for alpha in enumerate_orderings(n, symmetry):
            keep = fan.complex.compatible_vertices(alpha)
            named_subfans[family, alpha.labels] = frozenset(f for f in faces if f <= keep)

    patterns = []
    nonempty = 0
    for tau in taus:
        verdicts = [record["signed"][sign_key(tau)]["verdict"] for _, record in certified]
        members = frozenset(f for (f, _), v in zip(certified, verdicts) if v == Verdict.MEMBER.value)
        inconclusive = [
            sorted(f) for (f, _), v in zip(certified, verdicts) if v == Verdict.INCONCLUSIVE.value
        ]
        match = next((name for name, subfan in named_subfans.items() if subfan == members), None)
        if members:
            nonempty += 1
        patterns.append(
            {
                "tau": list(tau),
                "member_count": len(members),
                "matches": {"family": match[0], "ordering": list(match[1])} if match else None,
                "inconclusive": inconclusive,
            }
        )
    conjectured = 2 ** (n - 2) * (n + 1) * math.factorial(n - 1)
    return {
        "n": n,
        "patterns": patterns,
        "nonempty_count": nonempty,
        "conjectured_count": conjectured,
        "matches_conjecture": nonempty == conjectured and not skipped,
        "inconclusive_total": sum(len(p["inconclusive"]) for p in patterns),
        "partial": bool(skipped),
        "skipped_faces": skipped,  # budget-exhausted cones, never silent
    }
