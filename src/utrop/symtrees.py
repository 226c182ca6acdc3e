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
from dataclasses import dataclass, field
from functools import cache, cached_property

from .errors import InvalidArgumentError, InternalConsistencyError, NotAxiallySymmetricError

SCHEMA_VERSION = 1


class Symmetry(enum.Enum):
    NONE = "none"
    AXIAL = "axial"
    CENTRAL = "central"


# ---------------------------------------------------------------------------
# dihedral orderings
# ---------------------------------------------------------------------------


def _rotations_and_reversals(seq):
    n = len(seq)
    rev = tuple(reversed(seq))
    for i in range(n):
        yield seq[i:] + seq[:i]
        yield rev[i:] + rev[:i]


def canonical_cycle(labels) -> tuple[int, ...]:
    """Lexicographically least representative of a label cycle under the
    dihedral action (signed integers compare naturally: -n < .. < -1 < 1 < ..)."""
    seq = tuple(labels)
    return min(_rotations_and_reversals(seq))


def canonical_cycle_with_transform(labels):
    """Like :func:`canonical_cycle` but also returns ``(flip, shift)`` such
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
        if symmetry is Symmetry.AXIAL and alpha.axis_reflection() is None:
            raise InvalidArgumentError(f"{seq} is not axially symmetric")
        if symmetry is Symmetry.CENTRAL and not alpha._is_central():
            raise InvalidArgumentError(f"{seq} is not centrally symmetric")
        return alpha

    # -- symmetry recovery --------------------------------------------------

    def axis_reflection(self):
        """Constant ``c`` of the reflection ``edge p -> edge (c - p) % m``
        that negates every label, or None.  The axis runs through the two
        vertices fixed by the reflection; ``c`` is even-offset so that
        ``c - 1`` is even exactly when fixed vertices exist."""
        m = self.size
        lab = self.labels
        if m % 2:
            return None
        for c in range(m):
            if all(lab[(c - p) % m] == -lab[p] for p in range(m)):
                # label-negating reflections through edges cannot exist
                # (a fixed edge would need label == -label)
                if (c - 1) % 2 == 0:
                    return c
        return None

    def _is_central(self) -> bool:
        m = self.size
        if m % 2:
            return False
        n = m // 2
        lab = self.labels
        return all(lab[(p + n) % m] == -lab[p] for p in range(m))

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
    def from_json(obj) -> "DihedralOrdering":
        return DihedralOrdering.make(obj["labels"], Symmetry(obj["symmetry"]))


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


def _reflect_diagonal(d: Diagonal, c: int, m: int) -> Diagonal:
    """Image of ``d`` under the reflection with edge map p -> (c-p) % m
    (vertex map k -> (c-1-k) % m)."""
    return Diagonal.make((c - 1 - d.a) % m, (c - 1 - d.b) % m, m)


def _rotate_diagonal(d: Diagonal, k: int, m: int) -> Diagonal:
    return Diagonal.make((d.a + k) % m, (d.b + k) % m, m)


@dataclass(frozen=True)
class Subdivision:
    """A set of pairwise non-crossing diagonals of a labeled polygon."""

    ordering: DihedralOrdering
    diagonals: frozenset[Diagonal]
    symmetric: bool = False

    @staticmethod
    def make(ordering: DihedralOrdering, diagonals, symmetric: bool = False) -> "Subdivision":
        ds = frozenset(diagonals)
        m = ordering.size
        for d in ds:
            if not (0 <= d.a < d.b < m) or (d.b - d.a) in (1, m - 1):
                raise InvalidArgumentError(f"{d} is not a diagonal of an {m}-gon")
        for d, e in itertools.combinations(sorted(ds), 2):
            if d.crosses(e):
                raise InvalidArgumentError(f"diagonals {d} and {e} cross")
        if symmetric:
            if ordering.symmetry is Symmetry.AXIAL:
                c = ordering.axis_reflection()
                if c is None:
                    raise InvalidArgumentError("ordering is not axially symmetric")
                if frozenset(_reflect_diagonal(d, c, m) for d in ds) != ds:
                    raise InvalidArgumentError("diagonal set not closed under the axis reflection")
                axis = _axis_diagonal(c, m)
                perps = set(_perpendicular_diagonals(c, m))
                for d in ds:
                    if d != axis and d not in perps and d.crosses(axis):
                        raise InvalidArgumentError(
                            f"{d} crosses the axis without being perpendicular to it"
                        )
            elif ordering.symmetry is Symmetry.CENTRAL:
                n = m // 2
                if frozenset(_rotate_diagonal(d, n, m) for d in ds) != ds:
                    raise InvalidArgumentError("diagonal set not closed under the central symmetry")
            else:
                raise InvalidArgumentError("symmetric subdivision over a plain ordering")
        return Subdivision(ordering, ds, symmetric)

    @property
    def is_trivial(self) -> bool:
        return not self.diagonals


def _axis_diagonal(c: int, m: int) -> Diagonal:
    k = ((c - 1) // 2) % m
    return Diagonal.make(k, k + m // 2, m)


def _perpendicular_diagonals(c: int, m: int) -> list[Diagonal]:
    """Diagonals joining pairs of vertices swapped by the axis reflection."""
    k = ((c - 1) // 2) % m
    out = []
    for j in range(1, m // 2):
        a, b = (k + j) % m, (k - j) % m
        if (b - a) % m not in (0, 1, m - 1):
            out.append(Diagonal.make(a, b, m))
    return out


def _shape(alpha: DihedralOrdering, symmetric: bool):
    """What ``alpha``'s units depend on: the polygon's size, its symmetry
    (none for plain subdivisions) and, if axial, the axis constant."""
    if not symmetric:
        return alpha.size, Symmetry.NONE, None
    if alpha.symmetry is Symmetry.AXIAL:
        return alpha.size, Symmetry.AXIAL, alpha.axis_reflection()
    if alpha.symmetry is Symmetry.CENTRAL:
        return alpha.size, Symmetry.CENTRAL, None
    raise InvalidArgumentError("ordering carries no symmetry flag")


def _units(alpha: DihedralOrdering, symmetric: bool) -> tuple[frozenset[Diagonal], ...]:
    """Minimal nonempty (symmetry-closed) non-crossing diagonal sets: single
    diagonals, or symmetry orbits of diagonals."""
    return _shape_units(*_shape(alpha, symmetric))


@cache  # one entry per polygon shape; the tuples are shared, so immutable
def _shape_units(m: int, symmetry: Symmetry, c) -> tuple[frozenset[Diagonal], ...]:
    if symmetry is Symmetry.NONE:
        return tuple(frozenset([d]) for d in all_diagonals(m))
    if symmetry is Symmetry.AXIAL:
        units = [frozenset([_axis_diagonal(c, m)])]
        units += [frozenset([d]) for d in _perpendicular_diagonals(c, m)]
        seen = set()
        for d in all_diagonals(m):
            e = _reflect_diagonal(d, c, m)
            if e != d and not d.crosses(e):
                unit = frozenset([d, e])
                if unit not in seen:
                    seen.add(unit)
                    units.append(unit)
        return tuple(units)
    n = m // 2
    units, seen = [], set()
    for d in all_diagonals(m):
        e = _rotate_diagonal(d, n, m)
        unit = frozenset([d, e])
        if unit not in seen:
            seen.add(unit)
            if all(not x.crosses(y) for x, y in itertools.combinations(unit, 2)):
                units.append(unit)
    return tuple(units)


def enumerate_coarsest(alpha: DihedralOrdering, symmetric: bool = False) -> list[Subdivision]:
    """The coarsest nontrivial (symmetric) subdivisions: one diagonal in the
    plain case, one symmetry unit otherwise."""
    return [Subdivision.make(alpha, u, symmetric) for u in _units(alpha, symmetric)]


@cache
def _shape_unit_cliques(m: int, symmetry: Symmetry, c):
    """A shape's units and the cliques of the graph joining units that
    cross nowhere, as sets of unit indices in ``_cliques`` order.  A set of
    units is a subdivision iff its units pairwise cross nowhere, so the
    cliques are the subdivisions, each exactly once.  Both depend only on
    the polygon's shape (``_shape``), so each shape computes them once."""
    units = _shape_units(m, symmetry, c)
    apart = {
        i: {j for j, v in enumerate(units) if all(not d.crosses(e) for d in u for e in v)} - {i}
        for i, u in enumerate(units)
    }
    return units, tuple(_cliques(apart))


def enumerate_subdivisions(alpha: DihedralOrdering, symmetric: bool = False) -> list[Subdivision]:
    """Every (symmetric) subdivision, the trivial one included."""
    units, cliques = _shape_unit_cliques(*_shape(alpha, symmetric))
    return [
        Subdivision(alpha, frozenset().union(*(units[i] for i in clique)), symmetric)
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

    @staticmethod
    def union(labels, parts) -> "PhyloTree":
        """The tree on ``labels`` of the union of ``parts``' splits.  When the
        parts' split systems are disjoint, its ``keyed_splits`` are merged
        from theirs, so each split's key is computed once and shared."""
        tree = PhyloTree(labels, frozenset().union(*(t.splits for t in parts)))
        keyed = sorted(itertools.chain.from_iterable(t.keyed_splits for t in parts))
        if len(keyed) == len(tree.splits):
            tree.__dict__["keyed_splits"] = tuple(keyed)  # what the cached_property stores
        return tree

    @cached_property
    def keyed_splits(self) -> tuple:
        """``(split_key(s), s)`` for every split, sorted by key: the tree's
        one sort of its splits, shared by its canonical key, its JSON form
        and its reconstruction."""
        return tuple(sorted((split_key(s), s) for s in self.splits))  # keys are distinct

    @cached_property
    def canonical_key(self) -> bytes:
        labs = tuple(sorted(self.labels))
        return repr((labs, tuple(k for k, _ in self.keyed_splits))).encode()

    def sorted_splits(self) -> list[Split]:
        return [s for _, s in self.keyed_splits]

    @cached_property
    def adjacency(self):
        """Deterministic explicit form: (internal_count, edges, leaf_map).

        Internal vertices are numbered ``0..k``; leaves are represented by
        their labels in ``leaf_map: label -> internal vertex``; ``edges``
        lists internal edges as pairs together with their splits.
        """
        return _reconstruct(self)

    def internal_vertex_count(self) -> int:
        return self.adjacency[0]

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


def _reconstruct(tree: PhyloTree):
    """Rebuild an adjacency structure from the split system.

    Standard sequential split insertion: start from the star tree and
    refine one vertex per split; afterwards the induced splits are checked
    against the input, which certifies the reconstruction.
    """
    labels = sorted(tree.labels)
    # branches[v] = list of (other_end, leafset); leaves are ('leaf', label)
    branches: dict[int, list] = {0: [(("leaf", x), frozenset([x])) for x in labels]}
    nxt = 1
    for (_, a, b), s in tree.keyed_splits:
        side_a, side_b = frozenset(a), frozenset(b)
        home = None
        for v in sorted(branches):
            if all(ls <= side_a or ls <= side_b for _, ls in branches[v]):
                home = v
                break
        if home is None:
            raise InternalConsistencyError(f"no insertion point for split {s}")
        keep = [(e, ls) for e, ls in branches[home] if ls <= side_a]
        move = [(e, ls) for e, ls in branches[home] if not (ls <= side_a)]
        new = nxt
        nxt += 1
        branches[home] = keep + [(("node", new), frozenset())]
        branches[new] = move + [(("node", home), frozenset())]
        for e, _ in move:
            if e[0] == "node":  # repoint the far endpoint at the new vertex
                branches[e[1]] = [
                    (("node", new) if other == ("node", home) else other, ls)
                    for other, ls in branches[e[1]]
                ]
        _refresh_leafsets(branches, tree.labels)
    # derive edges from the final structure and verify the induced splits
    edge_list = sorted(
        (min(v, e[1]), max(v, e[1]))
        for v, bs in branches.items()
        for e, _ in bs
        if e[0] == "node" and v < e[1]
    )
    induced = set()
    for u, v in edge_list:
        side = _component_leaves(branches, u, v)
        induced.add(make_split(side, tree.labels - side))
    if induced != set(tree.splits):
        raise InternalConsistencyError("split reconstruction mismatch")
    leaf_map = {}
    for v, bs in branches.items():
        for e, _ in bs:
            if e[0] == "leaf":
                leaf_map[e[1]] = v
    return (nxt, tuple(edge_list), leaf_map)


def _refresh_leafsets(branches, all_labels):
    for v in branches:
        fixed = []
        for e, ls in branches[v]:
            if e[0] == "leaf":
                fixed.append((e, ls))
            else:
                fixed.append((e, _component_leaves(branches, e[1], v)))
        branches[v] = fixed


def _component_leaves(branches, start, banned) -> frozenset:
    """Leaves reachable from internal vertex ``start`` without passing the
    internal vertex ``banned``."""
    seen, stack, leaves = {start}, [start], set()
    while stack:
        v = stack.pop()
        for e, _ in branches[v]:
            if e[0] == "leaf":
                leaves.add(e[1])
            else:
                w = e[1]
                if w != banned and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return frozenset(leaves)


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
    pos = sorted(alpha.labels.index(x) for x in side)
    k = len(pos)
    if k == m or k == 0:
        return None
    start = None
    for i, p in enumerate(pos):
        prev = (p - 1) % m
        if prev not in set(pos):
            if start is not None:
                return None  # more than one run
            start = i
    run = [pos[(start + j) % k] for j in range(k)]
    for j in range(1, k):
        if run[j] != (run[0] + j) % m:
            return None
    first, last = run[0], (run[0] + k - 1) % m
    return Diagonal.make((first - 1) % m, last, m)


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
    return Subdivision.make(alpha, diagonals, alpha.symmetry is not Symmetry.NONE)


def is_compatible(tree: PhyloTree, alpha: DihedralOrdering) -> bool:
    """Does the tree arise from a (symmetric, when ``alpha`` is symmetric)
    subdivision of the ``alpha``-labeled polygon?"""
    return subdivision_from_tree(tree, alpha) is not None


# ---------------------------------------------------------------------------
# the leaf-negating involution and symmetric contraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryInvolution:
    """The unique tree automorphism swapping the leaves labeled ``i`` and
    ``-i``, given on internal vertices of the reconstructed adjacency."""

    tree: PhyloTree
    vertex_map: tuple[int, ...]

    def edge_image(self, s: Split) -> Split:
        return negate_split(s)

    @property
    def k(self) -> int:
        """Number of involution orbits of internal edges."""
        return orbit_count(self.tree)


def orbit_count(tree: PhyloTree) -> int:
    """Number of negation-orbits of internal edges: |E| - |{e : e moved}|/2."""
    if not tree.is_negation_closed():
        raise NotAxiallySymmetricError("tree admits no leaf-negating involution")
    moved = sum(1 for s in tree.splits if negate_split(s) != s)
    return len(tree.splits) - moved // 2


def symmetry_involution(tree: PhyloTree) -> SymmetryInvolution:
    """Compute the involution explicitly on the reconstructed adjacency.

    Internal vertices are matched through their branch decompositions: the
    image of ``v`` is the unique vertex whose around-vertex leaf partition
    is the negation of that of ``v``.
    """
    if frozenset(-x for x in tree.labels) != tree.labels:
        raise NotAxiallySymmetricError("label set is not negation-closed")
    if not tree.is_negation_closed():
        raise NotAxiallySymmetricError("tree admits no leaf-negating involution")
    count, edges, leaf_map = tree.adjacency
    branches = _branch_partitions(tree)
    sig = {v: frozenset(branches[v]) for v in range(count)}
    neg_sig = {
        v: frozenset(frozenset(-x for x in part) for part in sig[v]) for v in range(count)
    }
    mapping = []
    for v in range(count):
        cands = [w for w in range(count) if sig[w] == neg_sig[v]]
        if len(cands) != 1:
            raise InternalConsistencyError("involution image not unique")
        mapping.append(cands[0])
    vm = tuple(mapping)
    for v in range(count):
        if vm[vm[v]] != v:
            raise InternalConsistencyError("computed map is not an involution")
    return SymmetryInvolution(tree, vm)


def _branch_partitions(tree: PhyloTree):
    count, edges, leaf_map = tree.adjacency
    adj = {v: [] for v in range(count)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parts = {v: [] for v in range(count)}
    for v in range(count):
        for lab, home in leaf_map.items():
            if home == v:
                parts[v].append(frozenset([lab]))
        # temporary branch structure for component search
    branch_struct = {
        v: [(("node", w), None) for w in adj[v]]
        + [(("leaf", lab), frozenset([lab])) for lab, h in leaf_map.items() if h == v]
        for v in range(count)
    }
    _refresh_leafsets(branch_struct, tree.labels)
    return {
        v: [ls for _, ls in branch_struct[v]]
        for v in range(count)
    }


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
    """A simplicial complex whose vertices are canonical minimal trees and
    whose faces are sets of vertex indices.  A face carries the tree of its
    vertices' splits, made on first use.  The empty face is materialized."""

    family: str  # 'a' | 'as' | 'cs'
    n: int
    vertices: tuple[PhyloTree, ...]
    faces: frozenset[frozenset[int]]
    labels: frozenset[int]  # every tree's leaf labels
    _face_tree: dict = field(default_factory=dict, compare=False, hash=False, repr=False)

    # -- basic queries -------------------------------------------------------

    def face_tree(self, face: frozenset[int]) -> PhyloTree:
        if face not in self._face_tree:
            if face not in self.faces:
                raise InvalidArgumentError(f"{sorted(face)} is not a face")
            self._face_tree[face] = PhyloTree.union(self.labels, [self.vertices[v] for v in face])
        return self._face_tree[face]

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
    def _face_vertices(self) -> dict[frozenset[int], tuple[int, ...]]:
        """Each face's vertices in increasing order."""
        return {f: tuple(sorted(f)) for f in self.faces}

    @cached_property
    def _sorted_faces(self) -> tuple[frozenset[int], ...]:
        by_size = sorted(self._face_vertices.items(), key=lambda ft: (len(ft[1]), ft[1]))
        return tuple(f for f, _ in by_size)

    def sorted_faces(self) -> list[frozenset[int]]:
        """Faces by size, then by their sorted vertices; sorted once per
        complex."""
        return list(self._sorted_faces)

    def edges(self) -> list[tuple[int, int]]:
        return sorted(tuple(sorted(f)) for f in self.faces if len(f) == 2)

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
        by_vertices = {t: f for f, t in self._face_vertices.items()}
        relation = []
        for t in sorted(by_vertices):
            face = by_vertices[t]
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

    def is_flag(self) -> bool:
        """Every set of pairwise-adjacent vertices is a face."""
        adj = {v: set() for v in range(len(self.vertices))}
        for f in self.faces:
            if len(f) == 2:
                a, b = sorted(f)
                adj[a].add(b)
                adj[b].add(a)
        return all(clique in self.faces for clique in _cliques(adj))

    def degree_sequence(self) -> list[int]:
        deg = [0] * len(self.vertices)
        for a, b in self.edges():
            deg[a] += 1
            deg[b] += 1
        return deg

    def girth(self) -> int:
        """Length of a shortest cycle of the 1-skeleton (0 if forest)."""
        adj = {v: set() for v in range(len(self.vertices))}
        for a, b in self.edges():
            adj[a].add(b)
            adj[b].add(a)
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

    def to_json(self) -> dict:
        """The complex as JSON-able data.  The payload shares sublists
        between its entries (one list per face, per split and for the
        labels), so it is meant for serialization: copy a part before
        changing it."""
        return self._json(self._face_lists())

    def _face_lists(self) -> dict[frozenset[int], list[int]]:
        """One new sorted vertex list per face, for one payload."""
        return {f: list(t) for f, t in self._face_vertices.items()}

    def _json(self, face_lists: dict) -> dict:
        """``to_json`` with the given face lists.  A face's tree has its
        vertices' splits, so each split's ``[side, side]`` pair is made once
        and the face trees list those pairs, with one shared label list."""
        pairs = {s: [list(a), list(b)] for v in self.vertices for (_, a, b), s in v.keyed_splits}
        face_labels = sorted(self.labels)  # every face tree's labels

        def tree_json(tree, labels):
            return {"labels": labels, "splits": [pairs[s] for _, s in tree.keyed_splits]}

        faces = self._sorted_faces
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "complex",
            "family": self.family,
            "n": self.n,
            "vertices": [
                {
                    "key": v.canonical_key.decode(),
                    "tree": tree_json(v, sorted(v.labels)),
                    "edges": list(v.adjacency[1]),
                }
                for v in self.vertices
            ],
            "faces": [face_lists[f] for f in faces],
            "face_trees": [tree_json(self.face_tree(f), face_labels) for f in faces],
        }

    @staticmethod
    def from_json(obj) -> "Complex":
        """Read a complex back, deriving each face's tree from its vertices;
        the stored face trees must equal the derived ones."""
        vertices = tuple(PhyloTree.from_json(v["tree"]) for v in obj["vertices"])
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
    c = alpha.axis_reflection()
    k = ((c - 1) // 2) % m  # axis endpoints: vertices k and k+n
    axis = _axis_diagonal(c, m)

    # the chosen half keeps edges k+1 .. k+n, relabeled 1..n in Q;
    # P-vertex -> Q-vertex: vertices k..k+n (mod m) map to n+2, 1, 2, .., n
    pv_to_qv = {}
    pv_to_qv[k % m] = n + 2
    for j in range(1, n + 1):
        pv_to_qv[(k + j) % m] = j
    apex = n + 1

    q_ordering = DihedralOrdering.make(range(1, n + 3))
    # Q positions: label j sits at edge position j-1, so Q-vertex named j is
    # position j-1 under the code convention
    def q_diag(va: int, vb: int) -> Diagonal:
        return Diagonal.make((va - 1) % (n + 2), (vb - 1) % (n + 2), n + 2)

    perps = set(_perpendicular_diagonals(c, m))

    def transfer(sub: Subdivision) -> frozenset[Diagonal]:
        out = set()
        for d in sub.diagonals:
            if d == axis:
                out.add(q_diag(n, n + 2))
            elif d in perps:
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

    def flip_vertex(v: int) -> int:
        return (c0 - 1 - v) % m

    side_edges = {(q + j) % m for j in range(1, n + 1)}
    side_vertices = {(q + j) % m for j in range(0, n + 1)}
    beta_raw = list(alpha.labels)
    for p in side_edges:
        beta_raw[p] = alpha.labels[(c0 - p) % m]
    canon, flip, shift = canonical_cycle_with_transform(beta_raw)
    beta = DihedralOrdering.make(canon, Symmetry.AXIAL)

    def to_canonical_vertex(v: int) -> int:
        # new edge p carries old edge (shift - p) % m if flip else (p + shift) % m;
        # vertex v (between edges v, v+1) maps accordingly
        if flip:
            return (shift - 1 - v) % m
        return (v - shift) % m

    new_diagonals = set()
    for d in sub.diagonals:
        if d.a in side_vertices and d.b in side_vertices:
            d = Diagonal.make(flip_vertex(d.a), flip_vertex(d.b), m)
        new_diagonals.add(Diagonal.make(to_canonical_vertex(d.a), to_canonical_vertex(d.b), m))
    result = Subdivision.make(beta, new_diagonals, symmetric=True)
    if tree_from_subdivision(result).canonical_key != tree.canonical_key:
        raise InternalConsistencyError("flip changed the tree")
    return beta, result
