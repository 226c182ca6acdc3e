"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are exponent tuples of a fixed arity; polynomials are
``{monomial: Fraction}`` maps with no zero coefficients stored.  Every
coefficient of a ``Poly`` is a ``Fraction``, never an ``int``, so ``/``
between coefficients stays exact.  The Groebner kernel works on integer
forms and converts back to ``Poly`` only at its edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import le, mul, neg, sub

from ..errors import InvalidArgumentError


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for m, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                if len(m) != nvars or any(e < 0 for e in m):
                    raise InvalidArgumentError(f"bad exponent vector {m} for {nvars} variables")
                clean[tuple(m)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "Poly":
        """A Poly that owns ``terms`` as given, unchecked: the caller
        guarantees nonzero ``Fraction`` coefficients on exponent tuples of
        length ``nvars`` with no negative entry."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c, nvars: int) -> "Poly":
        return Poly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def var(i: int, nvars: int) -> "Poly":
        m = [0] * nvars
        m[i] = 1
        return Poly(nvars, {tuple(m): Fraction(1)})

    @staticmethod
    def monomial(mono, nvars: int, c=1) -> "Poly":
        return Poly(nvars, {tuple(mono): Fraction(c)})

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def coefficient_signs(self) -> set:
        return {1 if c > 0 else -1 for c in self.terms.values()}

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.nvars, {m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other, self.nvars)
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = res.get(m, 0) + c
            if v:
                res[m] = v
            else:
                res.pop(m, None)
        return Poly(self.nvars, res)

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other, self.nvars)
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly(self.nvars, {m: c * Fraction(other) for m, c in self.terms.items()})
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = res.get(m, 0) + c1 * c2
                if v:
                    res[m] = v
                else:
                    res.pop(m, None)
        return Poly(self.nvars, res)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise InvalidArgumentError("negative power")
        out = Poly.const(1, self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def evaluate(self, values) -> Fraction:
        """Exact evaluation at a full point (sequence of rationals)."""
        if len(values) != self.nvars:
            raise InvalidArgumentError("wrong number of values")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for m, c in self.terms.items():
            t = c
            for e, v in zip(m, vals):
                if e:
                    t *= v**e
            total += t
        return total

    def substitute(self, assignment: dict) -> "Poly":
        """Substitute rationals for a subset of variables (by index)."""
        values = [(i, Fraction(v)) for i, v in assignment.items()]
        res = {}
        for m, c in self.terms.items():
            new_m = list(m)
            for i, val in values:
                if m[i]:
                    c *= val ** m[i]
                    new_m[i] = 0
            new_m = tuple(new_m)
            v = res.get(new_m, 0) + c
            if v:
                res[new_m] = v
            else:
                res.pop(new_m, None)
        return Poly._trusted(self.nvars, res)

    # -- display ---------------------------------------------------------------

    def text(self, names=None) -> str:
        if not self.terms:
            return "0"
        names = names or [f"x{i}" for i in range(self.nvars)]
        parts = []
        for m in sorted(self.terms, key=grevlex(self.nvars).key, reverse=True):
            c = self.terms[m]
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(m)
                if e
            ]
            body = "*".join(factors)
            if not factors:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Poly({self.text()})"


# ---------------------------------------------------------------------------
# term orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermOrder:
    """A degree-first monomial order given as a sort key; larger key =
    larger monomial.

    Monomials compare by total degree, then by the optional ``weight``
    (any signs: degree dominates, so the order is always a genuine term
    order), then by grevlex.
    """

    nvars: int
    weight: tuple | None = None

    def __post_init__(self):
        if self.weight is not None and len(self.weight) != self.nvars:
            raise InvalidArgumentError("weight length != number of variables")

    def key(self, m):
        weight = 0 if self.weight is None else sum(map(mul, self.weight, m))
        return (sum(m), weight, tuple(map(neg, reversed(m))))

    def leading_monomial(self, poly: Poly):
        if not poly:
            return None
        return max(poly.terms, key=self.key)


def grevlex(nvars: int) -> TermOrder:
    return TermOrder(nvars)


def weighted_order(weight, nvars: int) -> TermOrder:
    return TermOrder(nvars, tuple(weight))


def monomial_divides(m1, m2) -> bool:
    return all(map(le, m1, m2))


def monomial_div(m1, m2):
    return tuple(map(sub, m1, m2))


def monomial_lcm(m1, m2):
    return tuple(map(max, m1, m2))
