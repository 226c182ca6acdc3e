"""Coordinate index sets, tree-metric cones, and the candidate fans.

The type A family lives on the ``n``-gon with the identity edge labeling;
the type C family lives on the ``2n``-gon labeled ``(1..n, -1..-n)``.
Cone coordinates are second differences of leaf-to-leaf path lengths: one
ray per internal edge (type A) or per involution orbit of internal edges
(type C), evaluated at unit edge length.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd

from . import linalg
from .errors import InvalidArgumentError, InternalConsistencyError, NotAxiallySymmetricError
from .symtrees import (
    Complex,
    PhyloTree,
    Split,
    _canonical_json,
    _naming_missing_fields,
    negate_split,
    split_orbits,
    tree_key,
)

SCHEMA_VERSION = 1


def successor(i: int, n: int) -> int:
    """Cyclic successor of a signed label in the standard central ordering:
    sgn(i)(|i|+1) for |i| < n, and (+-n) -> (-+1)."""
    return _successors("c", n)[i]


@dataclass(frozen=True)
class IndexSetD:
    """Ordered coordinate set D for a fan/ideal family."""

    kind: str  # 'a' | 'c'
    n: int
    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json(self) -> dict:
        return {"kind": self.kind, "n": self.n, "pairs": [list(p) for p in self.pairs]}

    @staticmethod
    @_naming_missing_fields
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
        labels, suc = standard_labels("c", n), _successors("c", n)
        for i in range(1, n + 1):
            js = [j for j in labels if j != i and i < abs(j) and suc[i] != j and suc[j] != i]
            others.extend((i, j) for j in sorted(js, reverse=True))
        return IndexSetD("c", n, tuple(longest + others))
    raise InvalidArgumentError(f"unknown kind {kind!r}")


def standard_labels(kind: str, n: int) -> tuple[int, ...]:
    """The standard polygon's edge labels in order: ``1..n`` for type A,
    ``1..n, -1..-n`` for type C."""
    if kind == "a":
        return tuple(range(1, n + 1))
    return tuple(range(1, n + 1)) + tuple(range(-1, -n - 1, -1))


def _successors(kind: str, n: int) -> dict[int, int]:
    """Each label's cyclic successor in ``standard_labels(kind, n)``."""
    labels = standard_labels(kind, n)
    return dict(zip(labels, labels[1:] + labels[:1]))


def vertex_position(label: int, kind: str, n: int) -> int:
    """0-based polygon vertex position of the vertex named by ``label``
    (the vertex between the edges carrying ``label`` and its successor):
    the position of ``label`` in ``standard_labels``."""
    return standard_labels(kind, n).index(label)


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
        units = [frozenset([s]) for s in tree.sorted_splits()]
    elif kind == "c":
        if len(tree.labels) % 2:
            raise InvalidArgumentError("type 'c' trees need an even label set")
        n = len(tree.labels) // 2
        if tree.labels != frozenset(standard_labels("c", n)):
            raise InvalidArgumentError("type 'c' trees must be labeled -n..-1,1..n")
        if not tree.is_negation_closed():
            raise NotAxiallySymmetricError("type 'c' cones need a negation-closed tree")
        units = split_orbits(tree)
    else:
        raise InvalidArgumentError(f"unknown kind {kind!r}")
    D = index_set(kind, n)
    suc = _successors(kind, n)

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


def cone_rays(tree: PhyloTree, kind: str) -> tuple[tuple[int, ...], ...]:
    """The tree's cone: primitive ray generators (content removed, direction
    kept), one per edge/orbit, checked linearly independent."""
    rays = tuple(_primitive(r) for r in edge_image_matrix(tree, kind)[1])
    if rays and linalg.rank(rays) != len(rays):
        raise InternalConsistencyError("cone generators are linearly dependent")
    return rays


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


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fan:
    """The cone of every face of a tree complex: the face's primitive rays,
    one per vertex.  Everything else a fan writes (tree keys, the facet
    relation) is derived from the complex."""

    kind: str
    index_set: IndexSetD
    complex: Complex = field(compare=False, repr=False)
    cones: dict = field(compare=False, repr=False)  # face -> its rays

    def sorted_faces(self):
        return self.complex.sorted_faces()

    def rays(self):
        """Primitive generators of the 1-dimensional cones, in vertex order."""
        return [self.cones[frozenset([i])][0] for i in range(len(self.complex.vertices))]

    def proper_faces(self):
        return [f for f in self.sorted_faces() if f]

    def interior_point(self, face) -> tuple[int, ...]:
        """The sum of the face's rays, a point of the relative interior of
        its simplicial cone, with one integer per coordinate of the index
        set; the empty face gives the zero vector."""
        rays = self.cones[face]
        return tuple(sum(r[t] for r in rays) for t in range(len(self.index_set)))

    def json_text(self) -> str:
        """The fan as ``_canonical_json`` text, joined from pieces encoded
        once: the complex's text and face lists, each distinct ray, and each
        split key's ``repr`` by rank, which a cone's tree key joins at its
        face's ranks, which the complex's text shares.  Every object's keys
        are written in sorted order."""
        cx, faces = self.complex, self.complex._face_texts
        rays = {r: _canonical_json(r) for r in {r for c in self.cones.values() for r in c}}
        keys = [repr(key) for key in cx._ranked_splits[0]]
        labels = repr(tuple(sorted(cx.labels)))
        face_ranks = [cx._face_ranks(f) for f in cx._sorted_faces]
        cones = [
            f'{{"face":{faces[f]},"rays":[{",".join([rays[r] for r in self.cones[f]])}],"tree_key":'
            f'{encode_basestring_ascii(tree_key(labels, [keys[r] for r in ranks]))}}}'
            for f, ranks in zip(cx._sorted_faces, face_ranks)
        ]
        relation = [f"[{faces[child]},{faces[parent]}]" for child, parent in cx.facet_relation]
        return (
            f'{{"complex":{cx._json_text(face_ranks)},"cones":[{",".join(cones)}],'
            f'"facet_relation":[{",".join(relation)}],"family":{_canonical_json(self.kind)},'
            f'"index_set":{_canonical_json(self.index_set.to_json())},"kind":"fan",'
            f'"schema_version":{_canonical_json(SCHEMA_VERSION)}}}'
        )

    def to_json(self) -> dict:
        """The fan as JSON-able data, parsed from ``json_text``."""
        return json.loads(self.json_text())

    @staticmethod
    @_naming_missing_fields
    def from_json(obj) -> "Fan":
        """Rebuild the fan from its complex and family, and require every
        other section of ``obj`` to be the rebuilt fan's."""
        cx = Complex.from_json(obj["complex"])
        fan = assemble_fan(cx, obj["family"], check_intersections=False)
        got, want = _sections(obj), _sections(fan.to_json())
        for message in want:
            if got[message] != want[message]:
                raise InvalidArgumentError(message)
        return fan

    def ray_matrix_text(self) -> str:
        """Plain matrix of all rays, one per line, for external polyhedral
        tools."""
        return "\n".join(" ".join(str(x) for x in r) for r in self.rays()) + "\n"


def _sections(doc) -> dict:
    """The derived sections of a fan's JSON, keyed by the message that
    names a mismatch."""
    cones = doc["cones"]
    return {
        "the index set is not the family's": doc["index_set"],
        "the cones' faces are not the complex's faces": [c["face"] for c in cones],
        "a cone's tree key is not its face's": [c["tree_key"] for c in cones],
        "a cone's rays are not its vertices' rays": [c["rays"] for c in cones],
        "the facet relation is not the complex's": doc["facet_relation"],
    }


def assemble_fan(complex: Complex, kind: str, check_intersections: bool = True) -> Fan:
    """Build every face's cone from its vertices' rays and validate the fan:
    one ray per vertex, independent rays on maximal faces (so on all),
    facets = a face minus one vertex, and (when requested) that pairwise
    cone intersections are common faces.  A face's tree has one split orbit
    per vertex, and a ray depends only on its orbit; ordering the rays by
    each vertex's least split rank is ``edge_image_matrix``'s unit order."""
    kind = kind.lower()
    vertex_cones = [cone_rays(v, kind) for v in complex.vertices]
    if any(len(rays) != 1 for rays in vertex_cones):
        raise InternalConsistencyError("a vertex's cone is not a ray")
    least_rank = [ranks[0] for ranks in complex._ranked_splits[1]]
    D = edge_image_matrix(PhyloTree(complex.labels, frozenset()), kind)[2]  # the star's
    cones = {
        face: tuple(vertex_cones[v][0] for v in sorted(face, key=least_rank.__getitem__))
        for face in complex.faces
    }
    # a face's echelon form is that of its sorted vertices but the last (a
    # face, as the complex is downward closed) plus one ray, so faces that
    # share that prefix share its elimination
    echelons = {(): ()}
    for face in complex.maximal_faces():  # raises if a facet is missing
        prefix = ()
        for v in sorted(face):
            vertices = (*prefix, v)
            if vertices not in echelons:
                extended = linalg.extend_echelon(echelons[prefix], vertex_cones[v][0])
                if extended is None:
                    raise InternalConsistencyError("cone generators are linearly dependent")
                echelons[vertices] = extended
            prefix = vertices

    fan = Fan(kind, D, complex, cones)
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

    Most pairs need no LP either.  If the rays of ``F'`` together with the
    rays of ``G'`` that ``F'`` lacks are linearly independent, then a point
    ``sum lam_a a = sum mu_b b`` of both cones gives ``sum lam_a a - sum
    mu_b b = 0``, a relation among independent rays with coefficient
    ``lam_a`` on each ray only ``F'`` has and ``-mu_b`` on each ray only
    ``G'`` has; so all those weights are zero, and the point lies in the
    cone of the shared rays.  The check extends an echelon form of ``F'``'s
    rays by ``G'``'s other rays, one integer elimination per ray.

    A pair that this does not settle gets an LP.  For ray matrices ``A`` and
    ``B`` it is ``lam, mu >= 0``, ``A^T lam = B^T mu``, with the sum of
    ``lam`` and ``mu`` over the non-shared rays equal to 1.  The system is
    homogeneous apart from that sum, so it is feasible iff some point of the
    intersection puts positive weight on a non-shared ray, i.e. iff the
    cones overlap beyond their common face.
    """
    k = len(fan.index_set)
    maximal = fan.complex.maximal_faces()
    echelons = {f: _extended((), fan.cones[f]) for f in maximal}
    for fa, fb in itertools.combinations(maximal, 2):
        ra, rb = fan.cones[fa], fan.cones[fb]
        shared = set(ra) & set(rb)
        if _extended(echelons[fa], [r for r in rb if r not in shared]) is not None:
            continue
        cols = [(r, 1) for r in ra] + [(r, -1) for r in rb]
        mat = [[sign * r[t] for r, sign in cols] for t in range(k)]
        mat.append([int(r not in shared) for r, _ in cols])
        if linalg.solve_nonneg(mat, [0] * k + [1]) is not None:
            raise InternalConsistencyError(
                f"cones of {sorted(fa)} and {sorted(fb)} overlap beyond their common face"
            )


def _extended(echelon, rays):
    """``echelon`` extended by each of ``rays`` in turn, or None once a ray
    lies in the span of those before it (or ``echelon`` is None)."""
    for ray in rays:
        if echelon is None:
            break
        echelon = linalg.extend_echelon(echelon, ray)
    return echelon


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
