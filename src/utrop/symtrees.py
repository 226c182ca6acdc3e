"""Dihedral orderings, polygon subdivisions, phylogenetic trees, and the
complexes built from them.

Conventions used throughout (all indices 0-based):

* a polygon with ``m`` edges has edge positions ``0..m-1`` and vertex
  positions ``0..m-1``, where vertex ``k`` sits between edge ``k`` and
  edge ``k+1 (mod m)``;
* a diagonal is an unordered pair of non-adjacent vertex positions
  ``(a, b)`` with ``a < b``; the edges strictly between ``a`` and ``b``
  (going upward) are positions ``a+1 .. b``;
* labels are nonzero signed integers; the plain families use ``1..n``,
  the symmetric families use ``-n..-1, 1..n`` and both the axial and the
  central symmetry act on labels as negation.

Trees are stored as split systems: a phylogenetic tree on a label set is
determined by the set of bipartitions induced by its internal edges, so
split-set equality is exactly leaf-label-preserving isomorphism.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from functools import cache, cached_property, wraps
from json.encoder import encode_basestring_ascii

from .errors import InvalidArgumentError, InternalConsistencyError, NotAxiallySymmetricError

SCHEMA_VERSION = 1

# the one dump setting of every artifact: compact, with sorted keys
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _naming_missing_fields(read):
    """The document reader ``read``, raising InvalidArgumentError that names
    the missing field where ``read`` meets a KeyError: a reader looks up by
    key only the document's fields and keys it built itself."""

    @wraps(read)
    def reader(obj):
        try:
            return read(obj)
        except KeyError as exc:
            raise InvalidArgumentError(f"missing field {exc.args[0]!r}") from None

    return reader


class Symmetry(enum.Enum):
    NONE = "none"
    AXIAL = "axial"
    CENTRAL = "central"


# ---------------------------------------------------------------------------
# dihedral orderings
# ---------------------------------------------------------------------------


def canonical_cycle(labels) -> tuple[int, ...]:
    """Lexicographically least representative of a label cycle under the
    dihedral action (signed integers compare naturally: -n < .. < -1 < 1 < ..)."""
    return canonical_cycle_with_transform(labels)[0]


def canonical_cycle_with_transform(labels):
    """:func:`canonical_cycle` of ``labels``, with the ``(flip, shift)`` such
    that ``new_edge[p] = old_edge[(shift - p) % m]`` when ``flip`` else
    ``old_edge[(p + shift) % m]``."""
    seq = tuple(labels)
    m = len(seq)
    best = None
    for shift in range(m):
        cand = seq[shift:] + seq[:shift]
        if best is None or cand < best[0]:
            best = (cand, False, shift)
    rev = tuple(reversed(seq))  # rev[p] = seq[m-1-p]
    for r in range(m):
        cand = rev[r:] + rev[:r]
        if cand < best[0]:
            # cand[p] = rev[(p+r) % m] = seq[(m-1-r-p) % m]
            best = (cand, True, (m - 1 - r) % m)
    return best


@dataclass(frozen=True)
class DihedralOrdering:
    """A labeling of a polygon's edges up to the dihedral group.

    ``labels`` is the canonical (lex-least) representative; ``symmetry``
    records which symmetric family the ordering belongs to.
    """

    labels: tuple[int, ...]
    symmetry: Symmetry = Symmetry.NONE

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def half(self) -> int:
        """For symmetric orderings on 2n labels, the parameter n."""
        return len(self.labels) // 2

    @staticmethod
    def make(labels, symmetry: Symmetry = Symmetry.NONE) -> "DihedralOrdering":
        seq = tuple(int(x) for x in labels)
        if len(seq) < 3:
            raise InvalidArgumentError("a polygon needs at least 3 edges")
        if len(set(seq)) != len(seq) or 0 in seq:
            raise InvalidArgumentError("labels must be distinct nonzero integers")
        alpha = DihedralOrdering(canonical_cycle(seq), symmetry)
        _vertex_map(alpha)  # raises if the labels admit no such symmetry
        return alpha

    def symmetry_map(self):
        """The images of the vertex positions under the ordering's symmetry,
        or None if the labels admit none: the identity for NONE, the
        half-turn ``k -> (k + m/2) % m`` for CENTRAL, and for AXIAL the
        reflection ``k -> (c - 1 - k) % m`` that sends edge 0 to edge ``c``,
        the edge labeled ``-labels[0]``.  A symmetry negates labels: edge
        ``p``, between vertices ``p - 1`` and ``p``, goes to the edge
        between their images, which must carry ``-labels[p]``.  So no edge
        is fixed, and a reflection that passes fixes two vertices."""
        m, lab = self.size, self.labels
        if self.symmetry is Symmetry.NONE:
            return tuple(range(m))
        if self.symmetry is Symmetry.CENTRAL:
            g = tuple((k + m // 2) % m for k in range(m))
        elif -lab[0] in lab:
            c = lab.index(-lab[0])
            g = tuple((c - 1 - k) % m for k in range(m))
        else:
            return None
        image = (g[p] if g[p] == (g[p - 1] + 1) % m else g[p - 1] for p in range(m))
        return g if all(lab[e] == -x for e, x in zip(image, lab)) else None

    def vertex_after_label(self, label: int) -> int:
        """Vertex position following the edge carrying ``label`` in the
        stored representative (vertex ``p`` sits between edges ``p`` and
        ``p+1``)."""
        if label not in self.labels:
            raise InvalidArgumentError(f"label {label} not in this ordering")
        return self.labels.index(label)

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "symmetry": self.symmetry.value}

    @staticmethod
    @_naming_missing_fields
    def from_json(obj) -> "DihedralOrdering":
        try:
            symmetry = Symmetry(obj["symmetry"])
        except ValueError:
            raise InvalidArgumentError(f"unknown symmetry {obj['symmetry']!r}") from None
        return DihedralOrdering.make(obj["labels"], symmetry)


def enumerate_orderings(n: int, symmetry: Symmetry = Symmetry.NONE) -> list[DihedralOrdering]:
    """All dihedral orderings of the requested family, canonical, sorted.

    Plain: label set ``1..n``.  Axial/central: label set ``+-1..+-n``
    (2n polygon edges), enumerated from their defining half-sequences and
    deduplicated as dihedral classes.
    """
    if n < 3:
        raise InvalidArgumentError(f"need n >= 3, got {n}")
    found: set[tuple[int, ...]] = set()
    if symmetry is Symmetry.NONE:
        rest = list(range(2, n + 1))
        for perm in itertools.permutations(rest):
            found.add(canonical_cycle((1,) + perm))
    else:
        for perm in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                half = tuple(s * v for s, v in zip(signs, perm))
                if symmetry is Symmetry.AXIAL:
                    seq = half + tuple(-x for x in reversed(half))
                else:
                    seq = half + tuple(-x for x in half)
                found.add(canonical_cycle(seq))
    return [DihedralOrdering(lab, symmetry) for lab in sorted(found)]


# ---------------------------------------------------------------------------
# diagonals and subdivisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Diagonal:
    """An unordered pair of non-adjacent polygon-vertex positions."""

    a: int
    b: int

    @staticmethod
    def make(a: int, b: int, m: int) -> "Diagonal":
        a, b = (a % m, b % m)
        if a > b:
            a, b = b, a
        if a == b or (b - a) % m in (1, m - 1):
            raise InvalidArgumentError(f"({a},{b}) is not a diagonal of an {m}-gon")
        return Diagonal(a, b)

    def crosses(self, other: "Diagonal") -> bool:
        """Distinct diagonals sharing interior points, i.e. strictly
        interleaved endpoints (a shared endpoint is not a crossing)."""
        a, b = self.a, self.b
        c, d = other.a, other.b
        if {a, b} & {c, d}:
            return False
        return (a < c < b) != (a < d < b)

    def side_edges(self, m: int) -> tuple[int, ...]:
        """Edge positions strictly between the endpoints, going upward."""
        return tuple(p % m for p in range(self.a + 1, self.b + 1))

    def endpoint_labels(self, ordering: DihedralOrdering) -> tuple[int, int]:
        """Endpoints under the convention that vertex ``p`` is named by the
        label of edge ``p`` (the edge it follows)."""
        return (ordering.labels[self.a], ordering.labels[self.b])


def all_diagonals(m: int) -> list[Diagonal]:
    return [
        Diagonal(a, b)
        for a in range(m)
        for b in range(a + 2, m)
        if not (a == 0 and b == m - 1)
    ]


def _image(d: Diagonal, vmap) -> Diagonal:
    """Image of ``d`` under the vertex map ``vmap`` (a tuple of images)."""
    return Diagonal.make(vmap[d.a], vmap[d.b], len(vmap))


def _vertex_map(alpha: DihedralOrdering) -> tuple[int, ...]:
    """``alpha.symmetry_map()``; raises if the labels admit none."""
    g = alpha.symmetry_map()
    if g is None:
        raise InvalidArgumentError(f"{alpha.labels} is not {alpha.symmetry.value}ly symmetric")
    return g


@dataclass(frozen=True)
class Subdivision:
    """A set of pairwise non-crossing diagonals of a labeled polygon."""

    ordering: DihedralOrdering
    diagonals: frozenset[Diagonal]

    @staticmethod
    def make(ordering: DihedralOrdering, diagonals) -> "Subdivision":
        """Check ``diagonals`` and wrap them; raises InvalidArgumentError.

        The set must be non-crossing and closed under the ordering's vertex
        map ``g`` (``symmetry_map``, the identity for a plain ordering), and
        the ordering must have that map.  So no diagonal ``d`` crosses its
        own image: for an axial ordering that rules out a diagonal crossing
        the axis without being the axis or perpendicular to it, whose
        endpoints lie strictly on opposite sides of the axis and are not
        swapped, so that ``d`` and ``g(d)`` meet on the axis.
        """
        ds = frozenset(diagonals)
        m = ordering.size
        for d in ds:
            if not (0 <= d.a < d.b < m) or (d.b - d.a) in (1, m - 1):
                raise InvalidArgumentError(f"{d} is not a diagonal of an {m}-gon")
        for d, e in itertools.combinations(sorted(ds), 2):
            if d.crosses(e):
                raise InvalidArgumentError(f"diagonals {d} and {e} cross")
        g = _vertex_map(ordering)
        if frozenset(_image(d, g) for d in ds) != ds:
            raise InvalidArgumentError("diagonal set not closed under the ordering's symmetry")
        return Subdivision(ordering, ds)

    @property
    def is_trivial(self) -> bool:
        return not self.diagonals


def _units(alpha: DihedralOrdering) -> tuple[frozenset[Diagonal], ...]:
    """Minimal nonempty symmetry-closed non-crossing diagonal sets
    (``_map_units`` of ``alpha``'s vertex map)."""
    return _map_units(_vertex_map(alpha))


@cache  # one entry per vertex map; the tuples are shared, so immutable
def _map_units(g: tuple[int, ...]) -> tuple[frozenset[Diagonal], ...]:
    """The orbits ``{d, g(d)}`` of the involution ``g`` whose members do not
    cross, in ``all_diagonals`` order of their first member: ``{d}`` when
    ``g`` fixes ``d``.  For the identity that is every diagonal; for an
    axial reflection the axis, the perpendiculars and the mirror pairs; for
    the half-turn the pairs and the long diagonals."""
    orbits = dict.fromkeys(frozenset({d, _image(d, g)}) for d in all_diagonals(len(g)))
    return tuple(u for u in orbits if not min(u).crosses(max(u)))


def enumerate_coarsest(alpha: DihedralOrdering) -> list[Subdivision]:
    """The coarsest nontrivial subdivisions: one diagonal in the plain case,
    one symmetry unit otherwise."""
    return [Subdivision.make(alpha, u) for u in _units(alpha)]


@cache
def _unit_cliques(g: tuple[int, ...]):
    """A vertex map's units and the cliques of the graph joining units that
    cross nowhere, as sets of unit indices in ``_cliques`` order.  A set of
    units is a subdivision iff its units pairwise cross nowhere, so the
    cliques are the subdivisions, each exactly once.  Both depend only on
    the map, so each map computes them once."""
    units = _map_units(g)
    apart = {
        i: {j for j, v in enumerate(units) if all(not d.crosses(e) for d in u for e in v)} - {i}
        for i, u in enumerate(units)
    }
    return units, tuple(_cliques(apart))


def enumerate_subdivisions(alpha: DihedralOrdering) -> list[Subdivision]:
    """Every subdivision of ``alpha``, the trivial one included."""
    units, cliques = _unit_cliques(_vertex_map(alpha))
    return [
        Subdivision(alpha, frozenset().union(*(units[i] for i in clique)))
        for clique in cliques
    ]


# ---------------------------------------------------------------------------
# phylogenetic trees as split systems
# ---------------------------------------------------------------------------

Split = frozenset  # frozenset({frozenset(sideA), frozenset(sideB)})


def make_split(side_a, side_b) -> Split:
    a, b = frozenset(side_a), frozenset(side_b)
    if not a or not b or a & b:
        raise InvalidArgumentError("split sides must be nonempty and disjoint")
    return frozenset({a, b})


def split_key(s: Split):
    """Deterministic sort key: the side containing the least label first."""
    a, b = sorted((tuple(sorted(x)) for x in s))
    return (min(len(a), len(b)), a, b)


def negate_split(s: Split) -> Split:
    return frozenset(frozenset(-x for x in side) for side in s)


def splits_compatible(s: Split, t: Split) -> bool:
    """Two splits of one label set can coexist in a tree iff some pair of
    sides is disjoint."""
    (a1, b1), (a2, b2) = tuple(s), tuple(t)
    return not (a1 & a2) or not (a1 & b2) or not (b1 & a2) or not (b1 & b2)


def tree_key(labels_text: str, key_texts: list) -> str:
    """``repr((labels, keys))`` from the reprs of the sorted labels and of each key."""
    return f"({labels_text}, ({', '.join(key_texts)}{',' * (len(key_texts) == 1)}))"


@dataclass(frozen=True)
class PhyloTree:
    """A leaf-labeled tree without degree-2 vertices, identified by its
    label set and internal-edge split system."""

    labels: frozenset[int]
    splits: frozenset[Split]

    @staticmethod
    def make(labels, splits) -> "PhyloTree":
        labs = frozenset(int(x) for x in labels)
        if len(labs) < 3:
            raise InvalidArgumentError("need at least 3 leaves")
        sps = frozenset(splits)
        for s in sps:
            sides = tuple(s)
            if len(sides) != 2 or sides[0] | sides[1] != labs:
                raise InvalidArgumentError(f"split {s} does not partition the label set")
            if min(len(sides[0]), len(sides[1])) < 2:
                raise InvalidArgumentError("split sides must have >= 2 labels (no degree-2 vertices)")
        for s, t in itertools.combinations(sps, 2):
            if not splits_compatible(s, t):
                raise InvalidArgumentError(f"incompatible splits {s} and {t}")
        return PhyloTree(labs, sps)

    @staticmethod
    def star(labels) -> "PhyloTree":
        return PhyloTree.make(labels, ())

    @cached_property
    def keyed_splits(self) -> tuple:
        """``(split_key(s), s)`` for every split, sorted by key: the tree's
        one sort of its splits, shared by its canonical key, its JSON form
        and its reconstruction."""
        return tuple(sorted((split_key(s), s) for s in self.splits))  # keys are distinct

    @cached_property
    def canonical_key(self) -> bytes:
        keys = [repr(key) for key, _ in self.keyed_splits]
        return tree_key(repr(tuple(sorted(self.labels))), keys).encode()

    def sorted_splits(self) -> list[Split]:
        return [s for _, s in self.keyed_splits]

    @cached_property
    def adjacency(self):
        """Deterministic explicit form: (internal_count, edges, leaf_map).

        The tree is rooted at its least label, and each split's *cluster*
        is its side without that label.  Internal vertex 0 holds the least
        label, and vertex ``j`` lies below the ``j``-th split of
        ``keyed_splits``.  A vertex's parent is the least cluster that
        strictly contains its own, and a leaf hangs at the least cluster
        that holds it.  ``leaf_map`` sends each label to its internal
        vertex, and ``edges`` lists the internal edges in sorted order, each
        as a ``(smaller, larger)`` vertex pair.  The complex JSON's vertex
        ``edges`` and ``symmetry_involution`` use this numbering.
        """
        clusters, parent, leaf_map = _rooted(self)
        edges = sorted((min(j, p), max(j, p)) for j, p in enumerate(parent) if j)
        return (len(clusters), tuple(edges), leaf_map)

    def internal_vertex_count(self) -> int:
        return len(self.splits) + 1

    def is_negation_closed(self) -> bool:
        return all(negate_split(s) in self.splits for s in self.splits)

    def to_json(self) -> dict:
        return {
            "labels": sorted(self.labels),
            "splits": [[list(a), list(b)] for (_, a, b), _ in self.keyed_splits],
        }

    @staticmethod
    def from_json(obj) -> "PhyloTree":
        return PhyloTree.make(
            obj["labels"], [make_split(a, b) for a, b in obj["splits"]]
        )


def _rooted(tree: PhyloTree):
    """The tree rooted at its least label, read off its split clusters (see
    ``PhyloTree.adjacency``): ``(clusters, parent, leaf_map)``, where
    ``clusters[j]`` is the leaf set below vertex ``j`` (all labels for vertex
    0) and ``parent[0]`` is None.  By Buneman's theorem the splits form a
    tree iff their clusters are pairwise nested or disjoint; a crossing
    pair raises."""
    clusters = [tree.labels, *(frozenset(b) for (_, _, b), _ in tree.keyed_splits)]
    for c, d in itertools.combinations(clusters[1:], 2):
        if c & d and not (c <= d or d <= c):
            raise InternalConsistencyError(f"crossing clusters {sorted(c)} and {sorted(d)}")

    def least(holds):
        return min((i for i, c in enumerate(clusters) if holds(c)), key=lambda i: len(clusters[i]))

    parent = [None] + [least(lambda d: c < d) for c in clusters[1:]]
    leaf_map = {x: least(lambda c: x in c) for x in sorted(tree.labels)}
    return clusters, parent, leaf_map


# ---------------------------------------------------------------------------
# subdivisions <-> trees, compatibility
# ---------------------------------------------------------------------------


def tree_from_subdivision(sub: Subdivision) -> PhyloTree:
    """The leaf-labeled tree of a subdivision: cells become internal
    vertices, polygon edges become labeled leaves.  Each diagonal's induced
    bipartition of the edge labels is exactly one internal-edge split, so
    the tree is assembled directly from those splits."""
    alpha = sub.ordering
    m = alpha.size
    splits = []
    for d in sub.diagonals:
        side = frozenset(alpha.labels[p] for p in d.side_edges(m))
        splits.append(make_split(side, frozenset(alpha.labels) - side))
    return PhyloTree.make(alpha.labels, splits)


def _arc_diagonal(side, alpha: DihedralOrdering):
    """Diagonal cutting off exactly the edges labeled by ``side``, or None
    if those edge positions are not cyclically contiguous."""
    m = alpha.size
    pos = {alpha.labels.index(x) for x in side}
    starts = [p for p in pos if (p - 1) % m not in pos]  # none if empty or full
    if len(starts) != 1:
        return None
    first = starts[0]
    return Diagonal.make((first - 1) % m, (first + len(pos) - 1) % m, m)


def subdivision_from_tree(tree: PhyloTree, alpha: DihedralOrdering):
    """The unique subdivision of the ``alpha``-labeled polygon inducing
    ``tree``, or None if the tree is not compatible with ``alpha``.
    When ``alpha`` is symmetric the subdivision must be symmetric too."""
    if frozenset(alpha.labels) != tree.labels:
        raise InvalidArgumentError("label sets differ")
    if alpha.symmetry is not Symmetry.NONE and not tree.is_negation_closed():
        return None
    diagonals = []
    for (_, side, _), _ in tree.keyed_splits:
        d = _arc_diagonal(side, alpha)
        if d is None:
            return None
        diagonals.append(d)
    return Subdivision.make(alpha, diagonals)


def is_compatible(tree: PhyloTree, alpha: DihedralOrdering) -> bool:
    """Does the tree arise from a (symmetric, when ``alpha`` is symmetric)
    subdivision of the ``alpha``-labeled polygon?"""
    return subdivision_from_tree(tree, alpha) is not None


# ---------------------------------------------------------------------------
# the leaf-negating involution and symmetric contraction
# ---------------------------------------------------------------------------


def orbit_count(tree: PhyloTree) -> int:
    """Number of negation-orbits of internal edges: |E| - |{e : e moved}|/2."""
    if not tree.is_negation_closed():
        raise NotAxiallySymmetricError("tree admits no leaf-negating involution")
    moved = sum(1 for s in tree.splits if negate_split(s) != s)
    return len(tree.splits) - moved // 2


def symmetry_involution(tree: PhyloTree) -> tuple[int, ...]:
    """The automorphism swapping the leaves ``i`` and ``-i``, as a map of the
    internal vertices of ``tree.adjacency``; it sends a split to its negation.

    Internal vertices are matched through their branch decompositions: the
    image of ``v`` is the unique vertex whose around-vertex leaf partition
    is the negation of that of ``v``.
    """
    if frozenset(-x for x in tree.labels) != tree.labels:
        raise NotAxiallySymmetricError("label set is not negation-closed")
    if not tree.is_negation_closed():
        raise NotAxiallySymmetricError("tree admits no leaf-negating involution")
    sig = [frozenset(parts) for parts in _branch_partitions(tree)]
    index = {parts: v for v, parts in enumerate(sig)}
    try:
        vm = tuple(index[frozenset(frozenset(-x for x in part) for part in parts)] for parts in sig)
    except KeyError:
        raise InternalConsistencyError("a vertex has no involution image") from None
    if any(vm[w] != v for v, w in enumerate(vm)):
        raise InternalConsistencyError("computed map is not an involution")
    return vm


def _branch_partitions(tree: PhyloTree) -> list[list[frozenset]]:
    """The leaf partition around each internal vertex: its children's
    clusters, its own leaves, and the complement of its own cluster."""
    clusters, parent, leaf_map = _rooted(tree)
    parts = [[tree.labels - c] if j else [] for j, c in enumerate(clusters)]
    for j, p in enumerate(parent[1:], 1):
        parts[p].append(clusters[j])
    for x, v in leaf_map.items():
        parts[v].append(frozenset([x]))
    return parts


def symmetric_contract(tree: PhyloTree, s: Split) -> PhyloTree:
    """Contract the internal-edge orbit {e, iota(e)} of the edge with split
    ``s`` (just ``e`` when self-symmetric)."""
    if not tree.is_negation_closed():
        raise NotAxiallySymmetricError("tree admits no leaf-negating involution")
    if s not in tree.splits:
        raise InvalidArgumentError("not an internal edge of this tree")
    return PhyloTree(tree.labels, tree.splits - {s, negate_split(s)})


def split_orbits(tree: PhyloTree) -> list[frozenset[Split]]:
    """Negation-orbits of the internal edges, deterministically ordered."""
    seen, orbits = set(), []
    for s in tree.sorted_splits():
        if s in seen:
            continue
        orb = frozenset({s, negate_split(s)})
        seen |= orb
        orbits.append(orb)
    return orbits


def symmetric_contractions(tree: PhyloTree) -> list[PhyloTree]:
    return [PhyloTree(tree.labels, tree.splits - orb) for orb in split_orbits(tree)]


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Complex:
    """A simplicial complex whose vertices are canonical minimal trees, no
    two sharing a split, and whose faces are sets of vertex indices.  A
    face's tree, of its vertices' splits, is derived and never stored.  The
    empty face is materialized."""

    family: str  # 'a' | 'as' | 'cs'
    n: int
    vertices: tuple[PhyloTree, ...]
    faces: frozenset[frozenset[int]]
    labels: frozenset[int]  # every tree's leaf labels

    # -- basic queries -------------------------------------------------------

    def face_tree(self, face: frozenset[int]) -> PhyloTree:
        if face not in self.faces:
            raise InvalidArgumentError(f"{sorted(face)} is not a face")
        return PhyloTree(self.labels, frozenset().union(*(self.vertices[v].splits for v in face)))

    @cached_property
    def _ranked_splits(self) -> tuple[list, list[list[int]]]:
        """Every vertex split's key, sorted once, and each vertex's ranks
        (indices) in that list, ascending.  Raises if two vertices share a
        split, as a face's splits would then not be its ranks' splits."""
        keys = sorted(key for tree in self.vertices for key, _ in tree.keyed_splits)
        rank = {key: r for r, key in enumerate(keys)}
        if len(rank) < len(keys):
            raise InternalConsistencyError("two vertices share a split")
        return keys, [[rank[key] for key, _ in tree.keyed_splits] for tree in self.vertices]

    def _face_ranks(self, face) -> list[int]:
        """The ranks of the face tree's splits, ascending: in key order."""
        return sorted([r for v in face for r in self._ranked_splits[1][v]])

    def compatible_vertices(self, alpha: DihedralOrdering) -> frozenset[int]:
        """The vertices whose trees are compatible with ``alpha``.  A face's
        tree is compatible iff its vertices' trees are, so ``alpha``'s named
        subcomplex is the subcomplex these vertices induce.

        Proof.  A tree is compatible iff each split cuts off an arc of
        ``alpha``'s polygon (a diagonal), the splits are negation-closed if
        ``alpha`` is symmetric, and the diagonals form a (symmetric)
        subdivision (``subdivision_from_tree``).  A face's splits are the
        union of its vertices' splits, each vertex one negation orbit, so
        the first two conditions hold for a face iff for each vertex.  A
        compatible vertex's diagonals then form one of ``alpha``'s units,
        and units make a subdivision iff they cross nowhere.  A face's
        splits are pairwise compatible, and the arcs of two compatible
        splits are nested, disjoint or cover the polygon together: their
        diagonals do not cross.
        """
        return frozenset(v for v, tree in enumerate(self.vertices) if is_compatible(tree, alpha))

    @cached_property
    def _faces_by_vertices(self) -> dict[tuple[int, ...], frozenset[int]]:
        """Each face by its vertices in increasing order, in lexicographic
        order of those tuples; sorted once per complex."""
        return dict(sorted((tuple(sorted(f)), f) for f in self.faces))

    @cached_property
    def _sorted_faces(self) -> tuple[frozenset[int], ...]:
        return tuple(sorted(self._faces_by_vertices.values(), key=len))

    def sorted_faces(self) -> list[frozenset[int]]:
        """Faces by size, then by their sorted vertices; sorted once per
        complex."""
        return list(self._sorted_faces)

    def edges(self) -> list[tuple[int, int]]:
        return [t for t in self._faces_by_vertices if len(t) == 2]

    @property
    def dimension(self) -> int:
        return max(len(f) for f in self.faces) - 1

    @cached_property
    def facet_relation(self) -> tuple[tuple[frozenset[int], frozenset[int]], ...]:
        """Every ``(facet, face)`` pair, a facet being the face minus one
        vertex, from one pass over the faces.  The pairs come sorted by the
        face's sorted vertices, then the facet's: faces in lexicographic
        order of their sorted vertices, and each face's facets by dropping
        its largest vertex first (dropping a later vertex leaves the
        smaller tuple).  Raises if a facet is not a face."""
        by_vertices = self._faces_by_vertices
        relation = []
        for t, face in by_vertices.items():
            for i in reversed(range(len(t))):
                facet = by_vertices.get(t[:i] + t[i + 1:])
                if facet is None:
                    raise InternalConsistencyError("a facet of a face is missing from the complex")
                relation.append((facet, face))
        return tuple(relation)

    def maximal_faces(self) -> list[frozenset[int]]:
        """Inclusion-maximal faces, in ``sorted_faces`` order."""
        return list(self._maximal_faces)

    @cached_property
    def _maximal_faces(self) -> tuple[frozenset[int], ...]:
        """The faces that are no face's facet.  The face set is downward
        closed, so a face lies in a larger face iff it lies in one with a
        single extra vertex, of which it is a facet."""
        facets = {facet for facet, _ in self.facet_relation}
        return tuple(f for f in self._sorted_faces if f not in facets)

    def is_pure(self) -> bool:
        top = self.dimension + 1
        return all(len(f) == top for f in self.maximal_faces())

    def is_downward_closed(self) -> bool:
        """Every subset of a face is a face.  It is enough that every face's
        facets are faces (``facet_relation``).

        Proof, by induction on face size: the subsets of a face of size 0
        are faces.  A proper subset of a face ``F`` of size ``k > 0`` misses
        some vertex ``v`` of ``F``, so it is a subset of the facet
        ``F - {v}``, a face of size ``k - 1``, whose subsets are faces.
        """
        try:
            self.facet_relation
        except InternalConsistencyError:
            return False
        return True

    def _neighbours(self) -> dict[int, set[int]]:
        """Each vertex's neighbours in the 1-skeleton, in vertex order."""
        adj = {v: set() for v in range(len(self.vertices))}
        for a, b in self.edges():
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def is_flag(self) -> bool:
        """Every set of pairwise-adjacent vertices is a face."""
        return all(clique in self.faces for clique in _cliques(self._neighbours()))

    def degree_sequence(self) -> list[int]:
        return [len(neighbours) for neighbours in self._neighbours().values()]

    def girth(self) -> int:
        """Length of a shortest cycle of the 1-skeleton (0 if forest)."""
        adj = self._neighbours()
        best = 0
        for src in adj:
            dist = {src: 0}
            parent = {src: -1}
            queue = [src]
            while queue:
                nxt = []
                for u in queue:
                    for w in adj[u]:
                        if w not in dist:
                            dist[w] = dist[u] + 1
                            parent[w] = u
                            nxt.append(w)
                        elif parent[u] != w:
                            cyc = dist[u] + dist[w] + 1
                            if best == 0 or cyc < best:
                                best = cyc
                queue = nxt
        return best

    def vertex_index(self, tree: PhyloTree) -> int:
        key = tree.canonical_key
        for i, v in enumerate(self.vertices):
            if v.canonical_key == key:
                return i
        raise InvalidArgumentError("tree is not a vertex of this complex")

    def contains_complex(self, other: "Complex") -> bool:
        """Face-by-face containment via canonical tree identification."""
        try:
            mapping = {i: self.vertex_index(v) for i, v in enumerate(other.vertices)}
        except InvalidArgumentError:
            return False
        return all(
            frozenset(mapping[i] for i in f) in self.faces for f in other.faces
        )

    # -- exports ---------------------------------------------------------------

    def json_text(self) -> str:
        """The complex as ``_canonical_json`` text, joined from pieces
        encoded once: each face's vertex list, each split's ``[side,side]``
        text by rank (``_ranked_splits``), the label list and each vertex
        entry.  A face tree is the texts at its ``_face_ranks``.  Every
        object's keys are written in sorted order."""
        return self._json_text(map(self._face_ranks, self._sorted_faces))

    def _json_text(self, face_ranks) -> str:
        """:meth:`json_text`, given ``_face_ranks`` of each face of
        ``_sorted_faces`` in that order, so that a fan's text can share
        them; ``face_ranks`` is read once."""
        keys, vertex_ranks = self._ranked_splits
        pairs = [_canonical_json(key[1:]) for key in keys]  # a key ends with its two sides
        labels = _canonical_json(sorted(self.labels))  # every tree's labels

        def tree_text(ranks):
            return f'{{"labels":{labels},"splits":[{",".join([pairs[r] for r in ranks])}]}}'

        vertices = [
            f'{{"edges":{_canonical_json(v.adjacency[1])},'
            f'"key":{encode_basestring_ascii(v.canonical_key.decode())},'
            f'"tree":{tree_text(ranks)}}}'
            for v, ranks in zip(self.vertices, vertex_ranks)
        ]
        faces = self._sorted_faces
        return (
            f'{{"face_trees":[{",".join([tree_text(ranks) for ranks in face_ranks])}],'
            f'"faces":[{",".join([self._face_texts[f] for f in faces])}],'
            f'"family":{_canonical_json(self.family)},"kind":"complex",'
            f'"n":{_canonical_json(self.n)},"schema_version":{_canonical_json(SCHEMA_VERSION)},'
            f'"vertices":[{",".join(vertices)}]}}'
        )

    def to_json(self) -> dict:
        """The complex as JSON-able data, parsed from ``json_text``."""
        return json.loads(self.json_text())

    @cached_property
    def _face_texts(self) -> dict[frozenset[int], str]:
        """Each face's sorted vertex list as JSON text."""
        return {f: "[" + ",".join(map(str, t)) + "]" for t, f in self._faces_by_vertices.items()}

    @staticmethod
    @_naming_missing_fields
    def from_json(obj) -> "Complex":
        """Read a complex back, deriving each face's tree from its vertices,
        which may share no split; the stored face trees and each vertex's
        key and edges must match."""
        vertices = tuple(PhyloTree.from_json(v["tree"]) for v in obj["vertices"])
        splits = [s for v in vertices for s in v.splits]
        if len(set(splits)) != len(splits):
            raise InvalidArgumentError("two vertex trees share a split")
        for i, (v, tree) in enumerate(zip(obj["vertices"], vertices)):
            edges = list(map(list, tree.adjacency[1]))  # JSON has lists, not tuples
            if v["key"] != tree.canonical_key.decode() or v["edges"] != edges:
                raise InvalidArgumentError(f"vertex {i} stores a key or edges not of its tree")
        faces = [frozenset(f) for f in obj["faces"]]
        stored = [PhyloTree.from_json(t) for t in obj["face_trees"]]
        if len(stored) != len(faces):
            raise InvalidArgumentError(f"{len(faces)} faces but {len(stored)} face trees")
        if len(set(faces)) != len(faces):
            raise InvalidArgumentError("a face is listed twice")
        if any(not 0 <= v < len(vertices) for f in faces for v in f):
            raise InvalidArgumentError(f"a face has a vertex outside 0..{len(vertices) - 1}")
        if frozenset() not in faces:
            raise InvalidArgumentError("the empty face is missing")
        labels = stored[faces.index(frozenset())].labels
        cx = Complex(obj["family"], obj["n"], vertices, frozenset(faces), labels)
        if not cx.is_downward_closed():
            raise InvalidArgumentError("the face set is not downward closed")
        for f, tree in zip(faces, stored):
            if tree != cx.face_tree(f):
                raise InvalidArgumentError(f"face {sorted(f)} stores a tree not of its vertices")
        return cx

    def to_dot(self, name: str = "skeleton", highlight_as=None, highlight_cs=None) -> str:
        """Graphviz text of the 1-skeleton.  ``highlight_as``/``highlight_cs``
        are orderings whose subcomplex edges get colored red/blue: the edges
        whose two ends are both compatible with the ordering
        (``compatible_vertices``)."""
        hi = {}
        for alpha, color in ((highlight_as, "red"), (highlight_cs, "blue")):
            if alpha is not None:
                keep = self.compatible_vertices(alpha)
                hi.update({e: color for e in self.edges() if keep.issuperset(e)})
        lines = [f"graph {name} {{", "  node [shape=circle];"]
        for i, v in enumerate(self.vertices):
            lines.append(f'  v{i} [label="{i}"];')
        for a, b in self.edges():
            attr = f" [color={hi[a, b]}]" if (a, b) in hi else ""
            lines.append(f"  v{a} -- v{b}{attr};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_complex(family: str, n: int) -> Complex:
    """The complex of a family (``a``, ``as`` or ``cs``): a face is a set of
    vertex indices and carries the tree of its vertices' splits.  Every
    family is one clique complex of compatible split orbits
    (``_build_family``)."""
    family = family.lower()
    if family not in ("a", "as", "cs"):
        raise InvalidArgumentError(f"unknown family {family!r}")
    return _build_family(family, n)


def build_sub(alpha: DihedralOrdering) -> Complex:
    """The complex of one ordering: its family's complex induced on the
    vertices compatible with ``alpha`` (``Complex.compatible_vertices``),
    renumbered in order, so vertices stay sorted by canonical key."""
    family = {Symmetry.NONE: "a", Symmetry.AXIAL: "as", Symmetry.CENTRAL: "cs"}[alpha.symmetry]
    cx = build_complex(family, alpha.size if family == "a" else alpha.half)
    keep = cx.compatible_vertices(alpha)
    index = {v: i for i, v in enumerate(sorted(keep))}
    faces = frozenset(frozenset(map(index.__getitem__, f)) for f in cx.faces if f <= keep)
    return Complex(family, cx.n, tuple(cx.vertices[v] for v in index), faces, cx.labels)


def _cliques(adj, admits=lambda clique, v: True):
    """Every clique of the graph ``adj`` (vertex -> set of neighbours, of
    which only the larger ones are read), the empty clique first, by DFS
    over vertex-increasing extensions.  A clique
    is extended by ``v`` only if ``admits(clique, v)``; a condition closed
    under taking subsets thus prunes whole subtrees of the search."""

    def extend(clique, ext):
        yield clique
        for v in sorted(ext):
            if admits(clique, v):
                yield from extend(clique | {v}, {w for w in ext if w > v and w in adj[v]})

    return extend(frozenset(), set(adj))


def _is_fixed(s: Split) -> bool:
    """Both sides are negation-closed: leaf negation fixes the edge
    pointwise."""
    return all(frozenset(-x for x in side) == side for side in s)


def _compatible(splits, others) -> bool:
    """Every split of ``splits`` is compatible with every one of ``others``."""
    return all(splits_compatible(s, t) for s in splits for t in others)


def _three_apart(s: Split, t: Split, u: Split) -> bool:
    """One side of each split, pairwise disjoint: in a tree holding all
    three, no path runs through all three edges."""
    return any(not (a & b or a & c or b & c) for a in s for b in t for c in u)


def _build_family(family: str, n: int) -> Complex:
    """The complex of a family as one clique complex of split orbits; it
    equals the union of the complexes of the family's orderings.

    Vertices are the trees of the orbits of splits with both sides of size
    >= 2, sorted by canonical key.  For ``a`` an orbit is one split of
    ``1..n``.  For ``as`` and ``cs`` it is ``{s, -s}`` on ``+-1..+-n`` with
    ``s`` compatible with ``-s``; ``cs`` drops the orbits of *fixed*
    splits, whose sides are both negation-closed.  Faces are the cliques
    of the graph joining two orbits whose splits are pairwise compatible;
    for ``as`` only those whose fixed splits lie on one path of the tree,
    i.e. no three of them have pairwise disjoint sides.  That condition is
    closed under taking subsets, so the clique search prunes on it.

    Proof.  A set of splits is the split system of a tree iff its splits
    are pairwise compatible (Buneman's splits-equivalence theorem, 1971).
    A face of an ordering's complex is a subdivision, whose tree has the
    union of its units' splits, and a unit's splits form one orbit.  So
    faces are sets of orbits, and it remains to say which trees of
    pairwise compatible splits some ordering's subdivision induces.

    * ``a``: every tree.  Draw it in the plane and read its leaves around
      the boundary; each internal edge's split cuts that cycle into two
      arcs, i.e. it is a diagonal of the polygon, and the edges give
      pairwise non-crossing diagonals.
    * ``as`` and ``cs``: a subdivision is symmetric iff its tree is
      negation-closed, and then leaf negation is an involution of the
      tree, the polygon's symmetry restricted to the dual tree.  Its fixed
      set is a subtree (the unique path between two fixed points is
      fixed), whose edges are the fixed splits; an edge reversed by the
      involution has a split ``A | -A``.  A reflection of the plane fixes
      a line, which crosses the cells and diagonals on the axis in a row,
      so for an axial ordering the fixed subtree is a path: three of its
      edges lie on no common path iff, seen from where their paths meet,
      their far sides are pairwise disjoint.  A rotation by pi fixes one
      point, so for a central ordering the fixed subtree is one point: a
      cell, or the midpoint of the one diagonal through the centre (two
      distinct splits ``A | -A`` are never compatible), and no split is
      fixed.  Conversely, lay a fixed path along the axis (a fixed point at
      the centre), put one branch of each swapped pair at a fixed vertex
      on one side and its mirror image (its rotation by pi) on the other.
      Reading the leaves around the boundary gives an axial (central)
      ordering, and the edges give a symmetric set of non-crossing
      diagonals, i.e. a symmetric subdivision with this tree.
    """
    if n < 3:
        raise InvalidArgumentError(f"need n >= 3, got {n}")
    symmetric = family != "a"
    labels = frozenset(x for i in range(1, n + 1) for x in ((i, -i) if symmetric else (i,)))
    splits = [
        make_split(side, labels - set(side))
        for k in range(2, len(labels) - 1)
        for side in itertools.combinations(sorted(labels - {n}), k)  # the side without n
    ]
    orbits = {frozenset({s, negate_split(s)} if symmetric else {s}) for s in splits}
    orbits = {o for o in orbits if _compatible(o, o) and not (family == "cs" and any(map(_is_fixed, o)))}
    vertices = tuple(sorted((PhyloTree(labels, o) for o in orbits), key=lambda t: t.canonical_key))
    adj = {  # the clique search only asks for larger neighbours
        v: {w for w in range(v + 1, len(vertices)) if _compatible(t.splits, vertices[w].splits)}
        for v, t in enumerate(vertices)
    }
    fixed = {v: s for v, t in enumerate(vertices) for s in t.splits if family == "as" and _is_fixed(s)}

    def on_one_path(clique, v):
        return v not in fixed or not any(
            _three_apart(fixed[x], fixed[y], fixed[v])
            for x, y in itertools.combinations(sorted(clique & fixed.keys()), 2)
        )

    return Complex(family, n, vertices, frozenset(_cliques(adj, on_one_path)), labels)


# ---------------------------------------------------------------------------
# the dual-associahedron identification for axial complexes
# ---------------------------------------------------------------------------


def delta_as_iso(alpha: DihedralOrdering):
    """Order isomorphism between the axial complex of ``alpha`` (a 2n-gon)
    and the plain complex of an (n+2)-gon.

    Returns ``(axial_complex, plain_complex, face_map)`` where ``face_map``
    sends each face of the axial complex to its image face.  The underlying
    subdivision transfer keeps the half of the polygon on one side of the
    axis and trades each axis-perpendicular diagonal for a diagonal through
    a fresh apex vertex.
    """
    if alpha.symmetry is not Symmetry.AXIAL:
        raise InvalidArgumentError("ordering must be axially symmetric")
    m = alpha.size
    n = m // 2
    g = _vertex_map(alpha)
    axis = Diagonal(*(v for v in range(m) if g[v] == v))  # through the two fixed vertices
    k = axis.a  # axis endpoints: vertices k and k+n

    # the chosen half keeps edges k+1 .. k+n, relabeled 1..n in Q;
    # P-vertex -> Q-vertex: vertices k..k+n (mod m) map to n+2, 1, 2, .., n
    pv_to_qv = {k: n + 2} | {(k + j) % m: j for j in range(1, n + 1)}
    apex = n + 1

    q_ordering = DihedralOrdering.make(range(1, n + 3))
    # Q positions: label j sits at edge position j-1, so Q-vertex named j is
    # position j-1 under the code convention
    def q_diag(va: int, vb: int) -> Diagonal:
        return Diagonal.make((va - 1) % (n + 2), (vb - 1) % (n + 2), n + 2)

    fixed = {d for d in all_diagonals(m) if _image(d, g) == d}  # the axis and its perpendiculars

    def transfer(sub: Subdivision) -> frozenset[Diagonal]:
        out = set()
        for d in sub.diagonals:
            if d == axis:
                out.add(q_diag(n, n + 2))
            elif d in fixed:
                end = d.a if d.a in pv_to_qv and pv_to_qv[d.a] <= n else d.b
                if not (end in pv_to_qv and pv_to_qv[end] <= n):
                    raise InternalConsistencyError("perpendicular diagonal misses the kept half")
                out.add(q_diag(pv_to_qv[end], apex))
            elif d.a in pv_to_qv and d.b in pv_to_qv:
                out.add(q_diag(pv_to_qv[d.a], pv_to_qv[d.b]))
            # else: mirror copy of a kept diagonal; dropped
        return frozenset(out)

    axial = build_sub(alpha)
    plain = build_sub(q_ordering)
    plain_by_diagonals = {
        subdivision_from_tree(plain.face_tree(f), q_ordering).diagonals: f for f in plain.faces
    }
    face_map = {}
    for f in axial.faces:
        image = transfer(subdivision_from_tree(axial.face_tree(f), alpha))
        if image not in plain_by_diagonals:
            raise InternalConsistencyError("transferred subdivision is not a face")
        face_map[f] = plain_by_diagonals[image]
    if len(set(face_map.values())) != len(plain.faces):
        raise InternalConsistencyError("subdivision transfer is not bijective")
    return axial, plain, face_map


# ---------------------------------------------------------------------------
# every centrally symmetric tree is axially symmetric (the flip)
# ---------------------------------------------------------------------------


def csp_to_asp(tree: PhyloTree):
    """Witness that a centrally symmetric tree is axially symmetric.

    Finds a central ordering ``alpha`` the tree is compatible with, picks a
    longest diagonal ``l`` of that polygon crossing none of the tree's
    diagonals, and reverses one side (labels and diagonals) across the
    perpendicular bisector of ``l``.  Returns the resulting axial ordering
    and symmetric subdivision, which maps back to the same tree.
    """
    witness = None
    n = len(tree.labels) // 2
    for alpha in enumerate_orderings(n, Symmetry.CENTRAL):
        sub = subdivision_from_tree(tree, alpha)
        if sub is not None:
            witness = (alpha, sub)
            break
    if witness is None:
        raise InvalidArgumentError("tree is not compatible with any central ordering")
    alpha, sub = witness
    m = alpha.size
    lcand = None
    for q in range(n):
        l = Diagonal.make(q, q + n, m)
        if all(not l.crosses(d) for d in sub.diagonals):
            lcand = l
            break
    if lcand is None:
        raise InternalConsistencyError("no longest diagonal avoids the subdivision")
    q = lcand.a
    # flip side: edges q+1 .. q+n (all on one side of l); reflection in the
    # perpendicular bisector of l: edges p -> c0 - p, vertices v -> c0-1-v
    c0 = (2 * q + n + 1) % m
    mirror = tuple((c0 - 1 - v) % m for v in range(m))
    side_edges = {(q + j) % m for j in range(1, n + 1)}
    side_vertices = {(q + j) % m for j in range(0, n + 1)}
    beta_raw = list(alpha.labels)
    for p in side_edges:
        beta_raw[p] = alpha.labels[(c0 - p) % m]
    canon, flip, shift = canonical_cycle_with_transform(beta_raw)
    beta = DihedralOrdering.make(canon, Symmetry.AXIAL)
    # new edge p carries old edge (shift - p) % m if flip else (p + shift) % m;
    # vertex v (between edges v, v+1) maps accordingly
    to_canonical = tuple((shift - 1 - v if flip else v - shift) % m for v in range(m))
    new_diagonals = set()
    for d in sub.diagonals:
        if d.a in side_vertices and d.b in side_vertices:
            d = _image(d, mirror)
        new_diagonals.add(_image(d, to_canonical))
    result = Subdivision.make(beta, new_diagonals)
    if tree_from_subdivision(result).canonical_key != tree.canonical_key:
        raise InternalConsistencyError("flip changed the tree")
    return beta, result
