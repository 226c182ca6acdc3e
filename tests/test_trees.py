"""Trees from subdivisions, canonical identification, and a brute-force
isomorphism oracle for the canonical key.

The oracle works purely on adjacency structures: a label-respecting
isomorphism is searched by backtracking over internal-vertex images, with
no reference to the split representation that the implementation uses.
"""

import hashlib
import itertools

import pytest

from utrop.errors import InternalConsistencyError, InvalidArgumentError
from utrop.fans import assemble_fan
from utrop.symtrees import (
    Diagonal,
    DihedralOrdering,
    PhyloTree,
    Subdivision,
    Symmetry,
    build_complex,
    enumerate_orderings,
    enumerate_subdivisions,
    is_compatible,
    make_split,
    tree_from_subdivision,
    tree_key,
)


def adjacency_graph(tree):
    """Vertices ('node', k) and ('leaf', label); edge set of frozensets."""
    count, edges, leaf_map = tree.adjacency
    es = {frozenset({("node", u), ("node", v)}) for u, v in edges}
    for lab, home in leaf_map.items():
        es.add(frozenset({("leaf", lab), ("node", home)}))
    verts = {("node", k) for k in range(count)} | {("leaf", l) for l in leaf_map}
    return verts, es


def iso_bruteforce(t1, t2):
    """Label-respecting graph isomorphism by backtracking."""
    if t1.labels != t2.labels:
        return False
    v1, e1 = adjacency_graph(t1)
    v2, e2 = adjacency_graph(t2)
    if len(v1) != len(v2) or len(e1) != len(e2):
        return False
    adj1 = {v: set() for v in v1}
    adj2 = {v: set() for v in v2}
    for e in e1:
        a, b = tuple(e)
        adj1[a].add(b)
        adj1[b].add(a)
    for e in e2:
        a, b = tuple(e)
        adj2[a].add(b)
        adj2[b].add(a)
    nodes1 = sorted(v for v in v1 if v[0] == "node")
    nodes2 = [v for v in v2 if v[0] == "node"]
    mapping = {("leaf", l): ("leaf", l) for l in t1.labels}

    def assign(i):
        if i == len(nodes1):
            return all(
                frozenset({mapping[a], mapping[b]}) in e2 for e in e1 for a, b in [tuple(e)]
            )
        v = nodes1[i]
        used = set(mapping.values())
        for w in nodes2:
            if w in used or len(adj1[v]) != len(adj2[w]):
                continue
            ok = True
            for u in adj1[v]:
                if u in mapping and mapping[u] not in adj2[w]:
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            if assign(i + 1):
                return True
            del mapping[v]
        return False

    return assign(0)


def test_star_tree_from_trivial_subdivision():
    alpha = DihedralOrdering.make(range(1, 6))
    t = tree_from_subdivision(Subdivision.make(alpha, []))
    assert t.internal_vertex_count() == 1
    assert not t.splits


def test_single_diagonal_split():
    alpha = DihedralOrdering.make(range(1, 6))
    # diagonal cutting off the edges labeled 1 and 2
    sub = Subdivision.make(alpha, [Diagonal.make(4, 1, 5)])
    t = tree_from_subdivision(sub)
    assert t.internal_vertex_count() == 2
    assert t.splits == frozenset({make_split({1, 2}, {3, 4, 5})})


def test_eight_gon_axial_subdivision():
    # an axially symmetric 8-gon subdivision with five diagonals: one
    # perpendicular to the axis plus two mirror pairs, arranged so that one
    # cell is bounded by diagonals only.  Its tree has six internal
    # vertices, exactly one of which carries no leaf.
    alpha = DihedralOrdering.make([1, 2, 3, 4, -4, -3, -2, -1], Symmetry.AXIAL)
    assert alpha.labels == (-4, -3, -2, -1, 1, 2, 3, 4)
    diags = [
        Diagonal.make(0, 6, 8),  # perpendicular to the axis through vertices 3, 7
        Diagonal.make(0, 3, 8),
        Diagonal.make(3, 6, 8),  # mirror of the previous
        Diagonal.make(4, 6, 8),
        Diagonal.make(0, 2, 8),  # mirror of the previous
    ]
    sub = Subdivision.make(alpha, diags)
    t = tree_from_subdivision(sub)
    assert len(t.splits) == 5
    assert t.internal_vertex_count() == 6
    count, edges, leaf_map = t.adjacency
    homes = set(leaf_map.values())
    assert len([v for v in range(count) if v not in homes]) == 1


def test_canonical_key_equals_bruteforce_iso():
    # across orderings: same tree from different subdivisions
    trees = []
    for alpha in enumerate_orderings(5):
        for sub in enumerate_subdivisions(alpha):
            trees.append(tree_from_subdivision(sub))
    sample = trees[::7][:20]
    for t1, t2 in itertools.combinations(sample, 2):
        assert (t1.canonical_key == t2.canonical_key) == iso_bruteforce(t1, t2)


def test_canonical_key_vs_bruteforce_on_twelve_leaves():
    # random non-crossing diagonal sets of a 12-gon by greedy insertion
    import random

    from utrop.symtrees import all_diagonals

    rng = random.Random(9)
    alphas = [
        DihedralOrdering.make(range(1, 13)),
        DihedralOrdering.make([1, 3, 2, 4, 6, 5, 7, 9, 8, 10, 12, 11]),
    ]
    trees = []
    for alpha in alphas:
        for _ in range(6):
            pool = all_diagonals(12)
            rng.shuffle(pool)
            chosen = []
            for d in pool[: rng.randrange(4, 14)]:
                if all(not d.crosses(e) for e in chosen):
                    chosen.append(d)
            trees.append(tree_from_subdivision(Subdivision.make(alpha, chosen)))
    for t1, t2 in itertools.combinations(trees, 2):
        assert (t1.canonical_key == t2.canonical_key) == iso_bruteforce(t1, t2)


def test_canonical_key_equates_across_orderings():
    # the caterpillar on (1,2|3,4,5) appears in several orderings
    target = PhyloTree.make(range(1, 6), [make_split({1, 2}, {3, 4, 5})])
    hits = 0
    for alpha in enumerate_orderings(5):
        for sub in enumerate_subdivisions(alpha):
            t = tree_from_subdivision(sub)
            if t.canonical_key == target.canonical_key:
                hits += 1
                assert iso_bruteforce(t, target)
    assert hits > 1  # identified across distinct orderings


def test_compatibility_examples():
    alpha = DihedralOrdering.make(range(1, 6))
    star = PhyloTree.star(range(1, 6))
    assert is_compatible(star, alpha)
    crossing = PhyloTree.make(range(1, 6), [make_split({1, 3}, {2, 4, 5})])
    assert not is_compatible(crossing, alpha)
    # brute-force cross-check: no pentagon subdivision yields that tree
    assert all(
        tree_from_subdivision(s).canonical_key != crossing.canonical_key
        for s in enumerate_subdivisions(alpha)
    )


def test_compatibility_label_mismatch():
    alpha = DihedralOrdering.make(range(1, 6))
    t = PhyloTree.star(range(1, 7))
    with pytest.raises(InvalidArgumentError):
        is_compatible(t, alpha)


def test_tree_13_compatible_with_blue_ordering():
    blue = DihedralOrdering.make([1, -2, 3, -1, 2, -3], Symmetry.CENTRAL)
    t13 = PhyloTree.make([1, 2, 3, -1, -2, -3], [make_split({1, -2, 3}, {-1, 2, -3})])
    assert is_compatible(t13, blue)
    # but not with the standard central ordering, where its side is not an arc
    alpha0 = DihedralOrdering.make([1, 2, 3, -1, -2, -3], Symmetry.CENTRAL)
    assert not is_compatible(t13, alpha0)


def test_invalid_trees_rejected():
    with pytest.raises(InvalidArgumentError):
        PhyloTree.make([1, 2, 3, 4], [make_split({1}, {2, 3, 4})])  # degree-2 vertex
    with pytest.raises(InvalidArgumentError):
        PhyloTree.make([1, 2, 3, 4], [make_split({1, 2}, {3})])  # not a partition
    with pytest.raises(InvalidArgumentError):
        PhyloTree.make(
            [1, 2, 3, 4, 5, 6],
            [make_split({1, 2, 3}, {4, 5, 6}), make_split({2, 4}, {1, 3, 5, 6})],
        )  # incompatible splits


def test_json_round_trip():
    t = PhyloTree.make(
        [1, 2, 3, -1, -2, -3],
        [make_split({1, -2}, {2, 3, -1, -3}), make_split({-1, 2}, {1, 3, -2, -3})],
    )
    assert PhyloTree.from_json(t.to_json()).canonical_key == t.canonical_key


@pytest.mark.parametrize("family,n", [("a", 5), ("as", 4), ("cs", 4)])
def test_face_data_equals_the_tree_of_its_splits(family, n):
    # a face's splits by rank, its JSON tree, its face tree and, where the
    # complex is a fan's (`fan a 5`, `fan c 4`), its cone's tree key are
    # each those of the tree built and checked from the face's splits
    cx = build_complex(family, n)
    data = cx.to_json()
    kind = {"a": "a", "as": "c"}.get(family)
    cones = assemble_fan(cx, kind, check_intersections=False).to_json()["cones"] if kind else []
    assert len(cones) == (len(data["faces"]) if kind else 0)
    for k, (vertices, stored) in enumerate(zip(data["faces"], data["face_trees"])):
        face = frozenset(vertices)
        direct = PhyloTree.make(cx.labels, set().union(*(cx.vertices[v].splits for v in face)))
        assert [cx._ranked_splits[0][r] for r in cx._face_ranks(face)] == [
            key for key, _ in direct.keyed_splits
        ]
        assert stored == direct.to_json()
        assert cx.face_tree(face) == direct
        assert cx.face_tree(face).canonical_key == direct.canonical_key
        if kind:
            assert cones[k]["face"] == vertices
            assert cones[k]["tree_key"] == direct.canonical_key.decode()


@pytest.mark.parametrize(
    "labels,keys",
    [
        ((1, 2, 3), ()),
        ((1, 2, 3, 4), ((2, (1, 2), (3, 4)),)),
        ((1, 2, 3, 4, 5), ((2, (1, 2), (3, 4, 5)), (2, (1, 2, 3), (4, 5)))),
        ((-2, -1, 1, 2), ((2, (-2, -1), (1, 2)),)),
        ((-3, -2, -1, 1, 2, 3), ((2, (-3, -2, -1, 1), (2, 3)), (3, (-3, -2, 1), (-1, 2, 3)))),
    ],
)
def test_tree_key_is_the_repr_of_labels_and_keys(labels, keys):
    # one split gives the tuple's trailing-comma form, ((..), (key,))
    assert tree_key(repr(labels), [repr(k) for k in keys]) == repr((labels, keys))


# sha256 over every face tree of build_complex(family, n), in sorted-face
# order, of repr((count, edges, sorted leaf map items)) of its adjacency,
# recorded from the split-insertion reconstruction; it pins the numbering
# of internal vertices that the complex JSON and the involution rely on
ADJACENCY_DIGESTS = {
    ("a", 6): "ef55fa9f42b46afda8957318bf53860cc984dccb4cd8cc77ae2043dc7f2fc2e8",
    ("as", 4): "475fae94f89c3f5b78ba7934a561a94b9d8738eae685c69511191a0548a4bc1d",
    ("cs", 4): "0adfe9d8e11c632a892022bba44b6ad9581e244bd08f2c34a6e52bb31f472e9d",
}


@pytest.mark.parametrize("family,n", sorted(ADJACENCY_DIGESTS))
def test_face_tree_adjacency_golden_digest(family, n):
    cx = build_complex(family, n)
    h = hashlib.sha256()
    for f in cx.sorted_faces():
        count, edges, leaf_map = cx.face_tree(f).adjacency
        h.update(repr((count, edges, sorted(leaf_map.items()))).encode())
    assert h.hexdigest() == ADJACENCY_DIGESTS[family, n]


def test_adjacency_rejects_crossing_splits():
    # the bare constructor does not check compatibility, so the adjacency
    # must refuse a split system that no tree has
    labels = frozenset(range(1, 7))
    crossing = PhyloTree(
        labels,
        frozenset({make_split({1, 2, 3}, {4, 5, 6}), make_split({2, 4}, {1, 3, 5, 6})}),
    )
    with pytest.raises(InternalConsistencyError):
        crossing.adjacency
