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
reduced bases, so per-weight Groebner data is computed once and reused
across all sign patterns.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .. import linalg
from ..errors import GroebnerBudgetError
from .groebner import DEFAULT_MAX_PAIRS, NormalFormCalculator, groebner_basis
from .ideals import Ideal
from .initial import _check_tau, initial_ideal, is_monomial_free, twist_poly
from .poly import Poly, grevlex

SEARCH_SEED = 20240801  # fixed: certification output must be deterministic


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


def _forced_value(g: Poly):
    """If ``g`` pins a single variable as c*u^k + d, return (var, value) of
    the positive solution, or ('dead', None) when no positive solution
    exists, else None."""
    if len(g.terms) != 2:
        return None
    items = sorted(g.terms.items(), key=lambda mc: sum(mc[0]))
    (m0, c0), (m1, c1) = items
    if sum(m0) != 0:
        return None
    support = [i for i, e in enumerate(m1) if e]
    if len(support) != 1:
        return None
    var = support[0]
    val = _kth_root(-c0 / c1, m1[var])
    if val is None or val <= 0:
        return ("dead", None)
    return (var, val)


def positive_point_search(gens, nvars: int, node_budget: int = 4000, rng: random.Random | None = None):
    """Backtracking search for a strictly positive rational common zero.

    Each node canonicalizes the substituted system with a small Groebner
    run (consistency and sign screening), applies forced single-variable
    solutions, then branches one variable over a fixed value menu plus a
    few seeded random rationals.  Returns a full assignment dict or None.
    """
    order = grevlex(nvars)
    rng = rng or random.Random(SEARCH_SEED)
    budget = [node_budget]

    def canonicalize(system):
        try:
            return groebner_basis(system, order, max_pairs=2000)
        except GroebnerBudgetError:
            return [g for g in system if g]

    def hopeless(system) -> bool:
        for g in system:
            if g.is_constant() and g:
                return True
            if len(g.coefficient_signs()) == 1:
                return True  # sign-definite: positive on the open orthant
        return False

    def search(system, assignment):
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        system = canonicalize([g for g in system if g])
        if hopeless(system):
            return None
        # forced single-variable solutions, to fixpoint
        while True:
            forced = None
            for g in system:
                f = _forced_value(g)
                if f is not None:
                    forced = f
                    break
            if forced is None:
                break
            var, val = forced
            if var == "dead":
                return None
            assignment = dict(assignment)
            assignment[var] = val
            system = canonicalize([g.substitute({var: val}) for g in system if g])
            if hopeless(system):
                return None
        if not system:
            full = dict(assignment)
            for i in range(nvars):
                full.setdefault(i, Fraction(1))
            return full
        # branch on the most constrained variable of the shortest generator
        shortest = min(system, key=lambda g: (len(g.terms), g.degree()))
        occur = {}
        for g in system:
            for m in g.terms:
                for i, e in enumerate(m):
                    if e:
                        occur[i] = occur.get(i, 0) + 1
        cands = [i for i in range(nvars) if any(m[i] for m in shortest.terms)]
        var = max(cands, key=lambda i: occur.get(i, 0))
        values = list(_BRANCH_VALUES)
        values += [
            Fraction(rng.randrange(1, 12), rng.randrange(1, 12)) for _ in range(4)
        ]
        tried = set()
        for val in values:
            if val in tried:
                continue
            tried.add(val)
            sub = [g.substitute({var: val}) for g in system]
            hit = search(sub, {**assignment, var: val})
            if hit is not None:
                return hit
        return None

    return search(list(gens), {})


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


def all_positive_element_search(nf: NormalFormCalculator, nvars: int, cap: int):
    """An all-positive-coefficient element of the ideal behind ``nf`` with
    degree <= cap, or None.

    A nonneg combination of monomials lies in the ideal iff its normal form
    vanishes; that is a rational linear feasibility problem over the normal
    forms of all candidate monomials.
    """
    monos = list(_monomials_up_to(nvars, cap))
    images = [nf.reduce(Poly.monomial(m, nvars)) for m in monos]
    support = sorted({m for img in images for m in img.terms})
    if not support:
        return None
    row_of = {m: i for i, m in enumerate(support)}
    mat = [[Fraction(0)] * len(monos) for _ in support]
    for col, img in enumerate(images):
        for m, c in img.terms.items():
            mat[row_of[m]][col] = c
    mat.append([Fraction(1)] * len(monos))
    rhs = [Fraction(0)] * len(support) + [Fraction(1)]
    sol = linalg.solve_nonneg(mat, rhs)
    if sol is None:
        return None
    poly = Poly(nvars, {m: lam for m, lam in zip(monos, sol) if lam})
    if not poly or poly.coefficient_signs() != {1}:
        return None
    if nf.reduce(poly):
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
    """Per-weight certification engine, reusable across sign patterns.

    Runs two Groebner bases per weight, once for all patterns: the weighted
    run inside :func:`initial_ideal`, which already yields the reduced
    grevlex basis of the initial ideal J, and the saturation run of
    :func:`is_monomial_free`, started from that basis.  A sign twist maps
    the reduced basis onto the reduced basis of the twisted initial ideal,
    so per-pattern work is only the positive-point / positive-element
    search.  ``stats`` holds the weighted run's counters.
    """

    def __init__(self, ideal: Ideal, w, max_pairs: int = DEFAULT_MAX_PAIRS, lp_caps=(2, 3)):
        self.ideal = ideal
        self.w = tuple(w)
        self.lp_caps = tuple(lp_caps)
        self.stats: dict = {}
        self.initial = initial_ideal(ideal, w, max_pairs, self.stats)
        self.monomial_free = is_monomial_free(self.initial, max_pairs)
        self._monomial_witness = None
        if not self.monomial_free:
            self._monomial_witness = self._find_monomial()

    def _find_monomial(self):
        nf = NormalFormCalculator(self.initial.generators, grevlex(self.ideal.nvars))
        for k in range(1, 7):
            probe = Poly.monomial((k,) * self.ideal.nvars, self.ideal.nvars)
            if nf.contains(probe):
                return probe
        return None

    def certify(self, tau) -> Certificate:
        n = self.ideal.nvars
        _check_tau(tau, n)
        stats = dict(self.stats)
        if not self.monomial_free:
            witness = {"type": "monomial_in_initial_ideal"}
            if self._monomial_witness is not None:
                witness["element"] = self._monomial_witness.text(list(self.ideal.variables))
            return Certificate(Verdict.NON_MEMBER, witness, stats)
        twisted = [twist_poly(g, tau) for g in self.initial.generators]
        # cheap scan: a sign-definite basis element is (up to sign) an
        # all-positive element of the twisted initial ideal
        for g in twisted:
            if g and len(g.coefficient_signs()) == 1:
                elt = g if g.coefficient_signs() == {1} else -g
                return Certificate(
                    Verdict.NON_MEMBER,
                    {"type": "all_positive_element", "element": elt.text(list(self.ideal.variables))},
                    stats,
                )
        point = positive_point_search(twisted, n)
        if point is not None:
            vec = [point[i] for i in range(n)]
            bad = [g for g in twisted if g.evaluate(vec)]
            if not bad and all(v > 0 for v in vec):
                return Certificate(
                    Verdict.MEMBER,
                    {
                        "type": "positive_point",
                        "point": [[v.numerator, v.denominator] for v in vec],
                    },
                    stats,
                )
        nf = NormalFormCalculator(twisted, grevlex(n))
        for cap in self.lp_caps:
            elt = all_positive_element_search(nf, n, cap)
            if elt is not None:
                return Certificate(
                    Verdict.NON_MEMBER,
                    {"type": "all_positive_element", "element": elt.text(list(self.ideal.variables))},
                    stats,
                )
        return Certificate(Verdict.INCONCLUSIVE, {"type": None}, stats)


def certify_signed(ideal: Ideal, tau, w, max_pairs: int = DEFAULT_MAX_PAIRS, lp_caps=(2, 3)) -> Certificate:
    """One-shot signed certification of weight ``w`` under pattern ``tau``;
    equivalent to twisting first because twisting commutes with initial
    ideals."""
    return ConeCertifier(ideal, w, max_pairs, lp_caps).certify(tuple(tau))


# ---------------------------------------------------------------------------
# exhaustive sweep over sign patterns (small n)
# ---------------------------------------------------------------------------


def search_sign_patterns_c(n: int, fan, ideal: Ideal, max_pairs: int = DEFAULT_MAX_PAIRS, lp_caps=(2, 3)):
    """Certify every candidate cone under every sign pattern and classify
    the resulting subfans against the per-ordering subcomplexes.

    Returns a report dict; Inconclusive verdicts are listed, never dropped.
    """
    from ..fans import interior_point
    from ..symtrees import Symmetry, build_sub, enumerate_orderings

    faces = fan.proper_faces()
    certifiers, skipped = [], []
    for f in faces:
        w = interior_point(fan.cones[f]).vector
        try:
            certifiers.append((f, ConeCertifier(ideal, w, max_pairs, lp_caps)))
        except GroebnerBudgetError:
            skipped.append(sorted(f))
    faces = [f for f, _ in certifiers]
    certifiers = [c for _, c in certifiers]

    def face_key_set(complex_):
        return frozenset(
            complex_.face_tree(f).canonical_key for f in complex_.faces if f
        )

    named_subfans = {}
    for alpha in enumerate_orderings(n, Symmetry.AXIAL):
        named_subfans[("as", alpha.labels)] = face_key_set(build_sub(alpha))
    for alpha in enumerate_orderings(n, Symmetry.CENTRAL):
        named_subfans[("cs", alpha.labels)] = face_key_set(build_sub(alpha))

    tree_keys = [fan.complex.face_tree(f).canonical_key for f in faces]
    patterns = []
    nonempty = 0
    for tau in itertools.product((1, -1), repeat=ideal.nvars):
        certs = [c.certify(tau) for c in certifiers]
        members = frozenset(
            k for k, c in zip(tree_keys, certs) if c.verdict is Verdict.MEMBER
        )
        inconclusive = [
            sorted(f) for f, c in zip(faces, certs) if c.verdict is Verdict.INCONCLUSIVE
        ]
        match = next(
            (name for name, keys in named_subfans.items() if keys == members), None
        )
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
