"""u-equation ideals: one generator per vertex of a flag complex with
compatibility degrees, plus the two polygon families (moduli of points on a
line, and its symplectic analogue on doubled labels)."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from ..errors import InvalidArgumentError
from ..fans import IndexSetD, index_set, standard_labels, vertex_position
from ..symtrees import Diagonal, _naming_missing_fields
from .poly import Poly


def pair_var_name(pair) -> str:
    """CAS-safe variable name for a coordinate pair, '-' spelled as 'm'."""
    i, j = pair
    fmt = lambda x: f"m{-x}" if x < 0 else f"{x}"
    return f"u{fmt(i)}x{fmt(j)}"


@dataclass(frozen=True)
class Ideal:
    """A generator list over named variables (exact rational coefficients)."""

    variables: tuple[str, ...]
    generators: tuple[Poly, ...]
    index_set: IndexSetD | None = None

    def __post_init__(self):
        for g in self.generators:
            if g.nvars != len(self.variables):
                raise InvalidArgumentError("generator arity != number of variables")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def text(self) -> list[str]:
        return [g.text(list(self.variables)) for g in self.generators]

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "ideal",
            "variables": list(self.variables),
            "index_set": self.index_set.to_json() if self.index_set else None,
            "generators": [
                [[list(m), c.numerator, c.denominator] for m, c in sorted(g.terms.items())]
                for g in self.generators
            ],
        }

    @staticmethod
    @_naming_missing_fields
    def from_json(obj) -> "Ideal":
        """Read an ideal back.  A missing field, a generator that lists a
        monomial twice, a zero denominator, and an index set whose length is
        not the number of variables are rejected."""
        nvars = len(obj["variables"])
        gens = []
        for g in obj["generators"]:
            terms = {}
            for m, num, den in g:
                if den == 0:
                    raise InvalidArgumentError(f"monomial {m} has denominator 0")
                if tuple(m) in terms:
                    raise InvalidArgumentError(f"a generator lists monomial {m} twice")
                terms[tuple(m)] = Fraction(num, den)
            gens.append(Poly(nvars, terms))
        D = IndexSetD.from_json(obj["index_set"]) if obj.get("index_set") else None
        if D is not None and len(D) != nvars:
            raise InvalidArgumentError(f"an index set of {len(D)} pairs for {nvars} variables")
        return Ideal(tuple(obj["variables"]), tuple(gens), D)


@dataclass(frozen=True)
class CompatibilitySpec:
    """A flag complex on ordered vertices with positive compatibility
    degrees on the non-edges.

    Degrees are indexed by ordered pairs: ``degree(i, j)`` is the exponent
    of ``u_j`` in the generator of vertex ``i``.  (They need not be
    symmetric; the doubled polygon family has degree 2 against a longest
    diagonal's orbit but 1 in the reverse direction.)
    """

    vertices: tuple
    edges: frozenset  # frozenset of 2-frozensets
    degrees: dict  # ordered non-edge pair (i, j) -> positive int

    @staticmethod
    def make(vertices, edges, degrees) -> "CompatibilitySpec":
        verts = tuple(vertices)
        vset = set(verts)
        es = frozenset(frozenset(e) for e in edges)
        for e in es:
            if len(e) != 2 or not e <= vset:
                raise InvalidArgumentError(f"bad edge {set(e)}")
        degs = {}
        for k, v in degrees.items():
            a, b = tuple(k)
            if frozenset((a, b)) in es or a == b:
                raise InvalidArgumentError(f"degree given on the edge/loop ({a},{b})")
            degs[(a, b)] = int(v)
            degs.setdefault((b, a), int(v))
        non_edges = {
            p
            for pair in itertools.combinations(verts, 2)
            if frozenset(pair) not in es
            for p in (pair, pair[::-1])
        }
        if set(degs) != non_edges:
            raise InvalidArgumentError("degrees must cover exactly the non-edges")
        if any(v <= 0 for v in degs.values()):
            raise InvalidArgumentError("compatibility degrees must be positive")
        return CompatibilitySpec(verts, es, degs)

    def degree(self, a, b) -> int:
        return self.degrees[(a, b)]


def binary_ideal(spec: CompatibilitySpec) -> Ideal:
    """One generator per vertex i:  u_i + prod over non-neighbors j of
    u_j^degree(i,j)  - 1.  Duplicate polynomials are kept so generators stay
    indexed by vertices."""
    n = len(spec.vertices)
    pos = {v: k for k, v in enumerate(spec.vertices)}
    gens = []
    for v in spec.vertices:
        mono = [0] * n
        for w in spec.vertices:
            if w != v and frozenset((v, w)) not in spec.edges:
                mono[pos[w]] = spec.degree(v, w)
        g = Poly.var(pos[v], n) + Poly.monomial(tuple(mono), n) - Poly.const(1, n)
        gens.append(g)
    names = tuple(
        pair_var_name(v) if isinstance(v, tuple) and len(v) == 2 else f"u{v}"
        for v in spec.vertices
    )
    return Ideal(names, tuple(gens))


# ---------------------------------------------------------------------------
# the polygon families
# ---------------------------------------------------------------------------


def _pair_diagonals(pair, kind: str, n: int) -> list[Diagonal]:
    """The diagonal(s) represented by a coordinate pair: one for type 'a',
    the central-symmetry orbit (one or two) for type 'c'."""
    i, j = pair
    m = n if kind == "a" else 2 * n
    d1 = Diagonal.make(vertex_position(i, kind, n), vertex_position(j, kind, n), m)
    if kind == "a":
        return [d1]
    d2 = Diagonal.make(vertex_position(-i, kind, n), vertex_position(-j, kind, n), m)
    return [d1] if d2 == d1 else [d1, d2]


def compatibility_spec(kind: str, n: int) -> CompatibilitySpec:
    """The polygon compatibility data: vertices are coordinate pairs,
    adjacency is non-crossing of the full orbits, and the degree of (p, q)
    counts the diagonals of q's orbit crossing p's base diagonal."""
    kind = kind.lower()
    D = index_set(kind, n)
    diag = {p: _pair_diagonals(p, kind, n) for p in D.pairs}
    edges, degrees = set(), {}
    for p, q in itertools.combinations(D.pairs, 2):
        crossings = sum(1 for d in diag[p] for e in diag[q] if d.crosses(e))
        if crossings == 0:
            edges.add(frozenset((p, q)))
        else:
            degrees[(p, q)] = sum(1 for e in diag[q] if diag[p][0].crosses(e))
            degrees[(q, p)] = sum(1 for d in diag[p] if diag[q][0].crosses(d))
    return CompatibilitySpec.make(D.pairs, edges, degrees)


def ideal_a(n: int) -> Ideal:
    """u-equations of the plain polygon family (all degrees 1)."""
    if n < 4:
        raise InvalidArgumentError("need n >= 4 (nonempty coordinate set)")
    ideal = binary_ideal(compatibility_spec("a", n))
    return Ideal(ideal.variables, ideal.generators, index_set("a", n))


def ideal_c(n: int) -> Ideal:
    """u-equations of the doubled (centrally symmetric) polygon family;
    degrees are the orbit crossing counts (1 or 2)."""
    if n < 3:
        raise InvalidArgumentError("need n >= 3")
    ideal = binary_ideal(compatibility_spec("c", n))
    return Ideal(ideal.variables, ideal.generators, index_set("c", n))


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------


def permute_poly(p: Poly, perm) -> Poly:
    """``p`` with variable ``i`` renamed to variable ``perm[i]``."""
    out = {}
    for m, c in p.terms.items():
        image = [0] * p.nvars
        for i, e in enumerate(m):
            image[perm[i]] = e
        out[tuple(image)] = c
    return Poly(p.nvars, out)


def permute_weight(w, perm) -> tuple:
    """The weight ``g.w`` with ``(g.w)[perm[i]] == w[i]``: a monomial and
    its image under :func:`permute_poly` have the same weight."""
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[perm[i]] = x
    return tuple(out)


def ideal_symmetries(ideal: Ideal) -> list[tuple[int, ...]]:
    """The variable permutations of the polygon's dihedral group that map
    the generators onto themselves, coefficients included, identity first.

    ``perm[i]`` is the image of variable ``i``.  A polygon symmetry moves
    the diagonal of each pair of ``ideal.index_set`` to another diagonal;
    for kind ``c`` a pair stands for the central-symmetry orbit of its
    diagonal, so either ``(a, b)`` or ``(-a, -b)`` names the image, and the
    rotation by half a turn acts trivially (the group of the 2n-gon modulo
    its centre).  A candidate is kept only if it permutes the generator
    multiset exactly; an ideal with no index set gets the identity only.
    The candidates come in a fixed order: the rotations ``p -> p + r`` of
    the vertex positions for r = 0..m-1 (identity first), then the
    reflections ``p -> r - p``.
    """
    D = ideal.index_set
    if D is None:
        return [tuple(range(ideal.nvars))]
    labels = standard_labels(D.kind, D.n)
    position = {lab: vertex_position(lab, D.kind, D.n) for lab in labels}
    label_at = {p: lab for lab, p in position.items()}
    slot = {}
    for k, (a, b) in enumerate(D.pairs):
        slot[frozenset((a, b))] = k
        if D.kind == "c":
            slot[frozenset((-a, -b))] = k
    m = len(labels)
    gens = Counter(ideal.generators)
    out, seen = [], set()
    for sign, shift in itertools.product((1, -1), range(m)):
        perm = tuple(
            slot[frozenset(label_at[(sign * position[x] + shift) % m] for x in pair)]
            for pair in D.pairs
        )
        if perm in seen:
            continue
        seen.add(perm)
        if Counter(permute_poly(p, perm) for p in ideal.generators) == gens:
            out.append(perm)
    return out
