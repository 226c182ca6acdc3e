"""Coordinate index sets, tree-metric cones, and the candidate fans.

The type A family lives on the ``n``-gon with the identity edge labeling;
the type C family lives on the ``2n``-gon labeled ``(1..n, -1..-n)``.
Cone coordinates are second differences of leaf-to-leaf path lengths: one
ray per internal edge (type A) or per involution orbit of internal edges
(type C), evaluated at unit edge length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import InvalidArgumentError, InternalConsistencyError, NotAxiallySymmetricError
from .symtrees import (
    Complex,
    PhyloTree,
    Split,
    negate_split,
    split_orbits,
)

SCHEMA_VERSION = 1


def successor(i: int, n: int) -> int:
    """Cyclic successor of a signed label in the standard central ordering:
    sgn(i)(|i|+1) for |i| < n, and (+-n) -> (-+1)."""
    if abs(i) < n:
        return (1 if i > 0 else -1) * (abs(i) + 1)
    return -1 if i > 0 else 1


@dataclass(frozen=True)
class IndexSetD:
    """Ordered coordinate set D for a fan/ideal family."""

    kind: str  # 'a' | 'c'
    n: int
    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def index(self, pair) -> int:
        return self.pairs.index(tuple(pair))

    def to_json(self) -> dict:
        return {"kind": self.kind, "n": self.n, "pairs": [list(p) for p in self.pairs]}

    @staticmethod
    def from_json(obj) -> "IndexSetD":
        got = index_set(obj["kind"], obj["n"])
        if [list(p) for p in got.pairs] != obj["pairs"]:
            raise InvalidArgumentError("pair order does not match the fixed convention")
        return got


def index_set(kind: str, n: int) -> IndexSetD:
    kind = kind.lower()
    if kind == "a":
        if n < 3:
            raise InvalidArgumentError("need n >= 3")
        pairs = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if (j - i) % n not in (1, n - 1)
        ]
        return IndexSetD("a", n, tuple(pairs))
    if kind == "c":
        if n < 2:
            raise InvalidArgumentError("need n >= 2")
        longest = [(i, -i) for i in range(1, n + 1)]
        others = []
        labels = list(range(1, n + 1)) + list(range(-1, -n - 1, -1))
        for i in range(1, n + 1):
            js = [
                j
                for j in labels
                if j != i and i < abs(j) and successor(i, n) != j and successor(j, n) != i
            ]
            others.extend((i, j) for j in sorted(js, reverse=True))
        return IndexSetD("c", n, tuple(longest + others))
    raise InvalidArgumentError(f"unknown kind {kind!r}")


def standard_labels(kind: str, n: int) -> tuple[int, ...]:
    if kind == "a":
        return tuple(range(1, n + 1))
    return tuple(range(1, n + 1)) + tuple(range(-1, -n - 1, -1))


def vertex_position(label: int, kind: str, n: int) -> int:
    """0-based polygon vertex position of the vertex named by ``label``
    (the vertex between the edges carrying ``label`` and its successor)."""
    if kind == "a":
        return label - 1
    return label - 1 if label > 0 else n + abs(label) - 1


# ---------------------------------------------------------------------------
# tree metrics and cone coordinates
# ---------------------------------------------------------------------------


def _separates(s: Split, i: int, j: int) -> bool:
    a, b = tuple(s)
    return (i in a) != (j in a)


def tree_metric(tree: PhyloTree, lengths: dict) -> dict:
    """Leaf-to-leaf distance table of a realization with the given internal
    edge lengths (leaf edges have length zero).

    ``lengths`` maps every split of the tree to a nonnegative rational; for
    negation-closed trees the lengths must be constant on orbits.
    """
    if set(lengths) != set(tree.splits):
        raise InvalidArgumentError("lengths must be given for exactly the internal edges")
    for s, v in lengths.items():
        if v < 0:
            raise InvalidArgumentError("edge lengths must be nonnegative")
    if tree.is_negation_closed():
        for s, v in lengths.items():
            if lengths[negate_split(s)] != v:
                raise InvalidArgumentError("lengths must be constant on involution orbits")
    table = {}
    labs = sorted(tree.labels)
    for i, j in itertools.combinations(labs, 2):
        table[frozenset((i, j))] = sum(
            (v for s, v in lengths.items() if _separates(s, i, j)), Fraction(0)
        )
    return table


def edge_image_matrix(tree: PhyloTree, kind: str):
    """Raw cone generator matrix: one row per internal edge (type A) or per
    involution orbit (type C), the second-difference image of the unit
    length on that edge/orbit.  Returns ``(units, rows, index_set)`` where
    each unit is the frozenset of splits sharing the length coordinate."""
    kind = kind.lower()
    if kind == "a":
        n = len(tree.labels)
        if tree.labels != frozenset(range(1, n + 1)):
            raise InvalidArgumentError("type 'a' trees must be labeled 1..n")
        D = index_set("a", n)
        units = [frozenset([s]) for s in tree.sorted_splits()]
        suc = {i: i % n + 1 for i in range(1, n + 1)}
    elif kind == "c":
        if len(tree.labels) % 2:
            raise InvalidArgumentError("type 'c' trees need an even label set")
        n = len(tree.labels) // 2
        if tree.labels != frozenset(standard_labels("c", n)):
            raise InvalidArgumentError("type 'c' trees must be labeled -n..-1,1..n")
        if not tree.is_negation_closed():
            raise NotAxiallySymmetricError("type 'c' cones need a negation-closed tree")
        D = index_set("c", n)
        units = split_orbits(tree)
        suc = {i: successor(i, n) for i in standard_labels("c", n)}
    else:
        raise InvalidArgumentError(f"unknown kind {kind!r}")

    # The entry of pair (i, j) counts, over the unit's splits, those that
    # separate i from j and suc i from suc j, minus those that separate i
    # from suc j and suc i from j.  With a(x) = 1 on one side of a split and
    # 0 on the other, a split contributes -2 * c(i) * c(j), where
    # c(x) = a(x) - a(suc x) is nonzero iff it cuts between x and suc x.
    rows = []
    for unit in units:
        row = [0] * len(D)
        for s in unit:
            side = next(iter(s))
            cut = {x: (x in side) - (y in side) for x, y in suc.items()}
            for t, (i, j) in enumerate(D.pairs):
                row[t] -= 2 * cut[i] * cut[j]
        rows.append(tuple(row))
    return units, rows, D


def _primitive(row):
    g = 0
    for x in row:
        g = gcd(g, abs(x))
    if g == 0:
        raise InternalConsistencyError("zero ray generator")
    return tuple(x // g for x in row)


@dataclass(frozen=True)
class ConeZ:
    """A simplicial rational cone via primitive integer ray generators."""

    index_set: IndexSetD
    rays: tuple[tuple[int, ...], ...]
    tree_key: bytes

    @property
    def dim(self) -> int:
        return len(self.rays)

    def to_json(self) -> dict:
        return {"tree_key": self.tree_key.decode(), "rays": [list(r) for r in self.rays]}


def cone_rays(tree: PhyloTree, kind: str) -> ConeZ:
    """The tree's cone: primitive ray generators (content removed, direction
    kept), one per edge/orbit, checked linearly independent."""
    units, rows, D = edge_image_matrix(tree, kind)
    rays = tuple(_primitive(r) for r in rows)
    if rays and linalg.rank(rays) != len(rays):
        raise InternalConsistencyError("cone generators are linearly dependent")
    return ConeZ(D, rays, tree.canonical_key)


def quotient_map_q(w, n: int):
    """Second-difference projection from pair space to D (type A).

    ``w`` is indexed by all pairs 1 <= i < j <= n in lexicographic order.
    """
    if n < 4:
        raise InvalidArgumentError("need n >= 4 for a nonempty target")
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if len(w) != len(pairs):
        raise InvalidArgumentError("weight vector has wrong length")
    lookup = {p: Fraction(x) for p, x in zip(pairs, w)}

    def at(a, b):
        if a == b:
            return Fraction(0)
        return lookup[(min(a, b), max(a, b))]

    out = []
    for i, j in index_set("a", n).pairs:
        i1, j1 = i % n + 1, j % n + 1
        out.append(at(i, j1) + at(i1, j) - at(i, j) - at(i1, j1))
    return tuple(out)


@dataclass(frozen=True)
class InteriorPoint:
    vector: tuple[int, ...]
    is_zero: bool


def interior_point(cone: ConeZ) -> InteriorPoint:
    """Sum of the ray generators; relative-interior point of a simplicial
    cone.  The zero-dimensional cone yields the zero vector, flagged."""
    k = len(cone.index_set)
    if not cone.rays:
        return InteriorPoint(tuple([0] * k), True)
    vec = tuple(sum(r[t] for r in cone.rays) for t in range(k))
    return InteriorPoint(vec, False)


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fan:
    """Cones of every face of a tree complex, with the facet relation."""

    kind: str
    index_set: IndexSetD
    complex: Complex = field(compare=False, repr=False)
    cones: dict = field(compare=False, repr=False)  # face -> ConeZ
    facet_relation: tuple = ()

    def sorted_faces(self):
        return self.complex.sorted_faces()

    def rays(self):
        """Primitive generators of the 1-dimensional cones, in vertex order."""
        out = []
        for i in range(len(self.complex.vertices)):
            out.append(self.cones[frozenset([i])].rays[0])
        return out

    def proper_faces(self):
        return [f for f in self.sorted_faces() if f]

    def to_json(self) -> dict:
        """The fan as JSON-able data.  The payload shares sublists between
        its entries (one list per face and per ray, made once per call), so
        it is meant for serialization: copy a part before changing it."""
        cx = self.complex
        face_lists = cx._face_lists()
        ray_lists = {r: list(r) for cone in self.cones.values() for r in cone.rays}
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "fan",
            "family": self.kind,
            "index_set": self.index_set.to_json(),
            "complex": cx._json(face_lists),
            "cones": [
                {
                    "face": face_lists[f],
                    "rays": [ray_lists[r] for r in self.cones[f].rays],
                    "tree_key": self.cones[f].tree_key.decode(),
                }
                for f in cx._sorted_faces
            ],
            "facet_relation": [
                [face_lists[child], face_lists[parent]] for child, parent in self.facet_relation
            ],
        }

    @staticmethod
    def from_json(obj) -> "Fan":
        cx = Complex.from_json(obj["complex"])
        D = IndexSetD.from_json(obj["index_set"])
        cones = {}
        for rec in obj["cones"]:
            face = frozenset(rec["face"])
            cones[face] = ConeZ(D, tuple(tuple(r) for r in rec["rays"]), rec["tree_key"].encode())
        if len(cones) != len(obj["cones"]) or set(cones) != cx.faces:
            raise InvalidArgumentError("the cones' faces are not the complex's faces")
        rel = tuple((frozenset(c), frozenset(p)) for c, p in obj["facet_relation"])
        if rel != cx.facet_relation:
            raise InvalidArgumentError("the facet relation is not the complex's")
        return Fan(obj["family"], D, cx, cones, cx.facet_relation)

    def ray_matrix_text(self) -> str:
        """Plain matrix of all rays, one per line, for external polyhedral
        tools."""
        return "\n".join(" ".join(str(x) for x in r) for r in self.rays()) + "\n"


def assemble_fan(complex: Complex, kind: str, check_intersections: bool = True) -> Fan:
    """Build every face's cone from its vertices' rays and validate the fan:
    one ray per vertex, independent rays on maximal faces (so on all),
    facets = a face minus one vertex, and (when requested) that pairwise
    cone intersections are common faces.  A face's tree has one split orbit
    per vertex, and a ray depends only on its orbit; ordering the rays by
    each vertex's least split key is ``edge_image_matrix``'s unit order."""
    kind = kind.lower()
    vertex_cones = [cone_rays(v, kind) for v in complex.vertices]
    if any(c.dim != 1 for c in vertex_cones):
        raise InternalConsistencyError("a vertex's cone is not a ray")
    least_key = [v.keyed_splits[0][0] for v in complex.vertices]
    D = cone_rays(complex.face_tree(frozenset()), kind).index_set
    cones = {}
    for face in complex.faces:
        rays = tuple(vertex_cones[v].rays[0] for v in sorted(face, key=least_key.__getitem__))
        cones[face] = ConeZ(D, rays, complex.face_tree(face).canonical_key)
    for face in complex.maximal_faces():  # raises if a facet is missing
        if face and linalg.rank(cones[face].rays) != len(face):
            raise InternalConsistencyError("cone generators are linearly dependent")

    fan = Fan(kind, D, complex, cones, complex.facet_relation)
    if check_intersections:
        _check_pairwise_intersections(fan)
    return fan


def _check_pairwise_intersections(fan: Fan):
    """Exact check that any two cones meet in their common face, the cone
    of their shared rays.

    Only pairs of maximal faces need an LP.  Let ``F <= F'`` and ``G <= G'``
    with ``F'``, ``G'`` maximal.  A face's cone is spanned by its vertices'
    rays, so ``rays(F) <= rays(F')`` and ``rays(G) <= rays(G')``.  Take
    ``x`` in both cones of ``F`` and ``G``.  Its coefficients on the
    linearly independent rays of ``F'`` are unique, so they are supported
    on ``rays(F)``; if ``F'`` and ``G'`` meet in their common face they are
    also supported on the shared rays ``S`` of ``F'`` and ``G'``.  The same
    holds in ``G'``, and both are the one representation of ``x`` over the
    independent set ``S``; so it is supported on ``rays(F) & rays(G)``, and
    ``x`` lies in the common face of ``F`` and ``G``.  (``F'`` equal to
    ``G'`` needs no LP: uniqueness in ``F'`` alone gives the same
    conclusion.)

    For one pair with ray matrices ``A`` and ``B`` the LP is ``lam, mu >=
    0``, ``A^T lam = B^T mu``, with the sum of ``lam`` and ``mu`` over the
    non-shared rays equal to 1.  The system is homogeneous apart from that
    sum, so it is feasible iff some point of the intersection puts positive
    weight on a non-shared ray, i.e. iff the cones overlap beyond their
    common face.
    """
    k = len(fan.index_set)
    for fa, fb in itertools.combinations(fan.complex.maximal_faces(), 2):
        ra, rb = fan.cones[fa].rays, fan.cones[fb].rays
        shared = set(ra) & set(rb)
        cols = [(r, 1) for r in ra] + [(r, -1) for r in rb]
        mat = [[sign * r[t] for r, sign in cols] for t in range(k)]
        mat.append([int(r not in shared) for r, _ in cols])
        if linalg.solve_nonneg(mat, [0] * k + [1]) is not None:
            raise InternalConsistencyError(
                f"cones of {sorted(fa)} and {sorted(fb)} overlap beyond their common face"
            )


# ---------------------------------------------------------------------------
# the doubling projection (type C rays through type A on 2n labels)
# ---------------------------------------------------------------------------


def double_label(k: int, n: int) -> int:
    """Bijection from 1..2n to the signed labels: k for k <= n, n-k after."""
    return k if k <= n else n - k


def normalize_c_pair(a: int, b: int, n: int):
    """The D-representative of the central-symmetry orbit of the diagonal
    with vertex labels ``a``, ``b``."""
    D = index_set("c", n)
    cands = {(a, b), (b, a), (-a, -b), (-b, -a)}
    hits = [p for p in cands if p in set(D.pairs)]
    if len(hits) != 1:
        raise InternalConsistencyError(f"orbit of ({a},{b}) has {len(hits)} representatives")
    return hits[0]


def orbit_projection(n: int) -> dict:
    """Map from type-A pairs on 2n labels to their type-C orbit pairs."""
    out = {}
    for (i, j) in index_set("a", 2 * n).pairs:
        out[(i, j)] = normalize_c_pair(double_label(i, n), double_label(j, n), n)
    return out
