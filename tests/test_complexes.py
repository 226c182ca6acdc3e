"""The three complex families: counts, structure, and the exact vertex/edge
content of the doubled-label complex at n=3.

The 13 vertex trees and the 21-edge adjacency below were derived by hand
from the minimal symmetric subdivisions of the hexagon (split trees over
single self-negating splits, over {i,-i} splits, and over mirror pairs of
two-element ears); they pin the complex down completely, not just its
f-vector.
"""

import dataclasses
import hashlib
import itertools
import json

import pytest

from utrop.errors import InternalConsistencyError, InvalidArgumentError
from utrop.fans import assemble_fan
from utrop.symtrees import (
    Complex,
    DihedralOrdering,
    PhyloTree,
    Subdivision,
    Symmetry,
    build_complex,
    build_sub,
    enumerate_coarsest,
    enumerate_orderings,
    enumerate_subdivisions,
    is_compatible,
    make_split,
    orbit_count,
    subdivision_from_tree,
    symmetric_contractions,
    tree_from_subdivision,
)

N3 = [1, 2, 3, -1, -2, -3]


def t3(*sides):
    return PhyloTree.make(N3, [make_split(side, set(N3) - set(side)) for side in sides])


# numbered as in the hand derivation; numbers only matter within this module
VERTEX_TREES = {
    1: t3({1, -2, -3}),
    2: t3({1, 2, -3}),
    3: t3({1, 2, 3}),
    4: t3({2, 3}, {-2, -3}),
    5: t3({1, -3}, {-1, 3}),
    6: t3({1, 2}, {-1, -2}),
    7: t3({1, -1}),
    8: t3({2, -2}),
    9: t3({3, -3}),
    10: t3({1, -2}, {-1, 2}),
    11: t3({2, -3}, {-2, 3}),
    12: t3({1, 3}, {-1, -3}),
    13: t3({1, -2, 3}),
}

EDGES = {
    (3, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6),  # outer hexagon
    (7, 8), (8, 9), (7, 9),                          # inner triangle
    (1, 10), (9, 10), (2, 11), (7, 11), (3, 12), (8, 12),
    (10, 13), (11, 13), (12, 13),                    # spokes to the center
    (4, 7), (5, 8), (6, 9),                          # hexagon-triangle ties
}


def test_theta5_is_petersen(theta5):
    assert len(theta5.vertices) == 10
    assert len(theta5.edges()) == 15
    assert set(theta5.degree_sequence()) == {3}
    assert theta5.girth() == 5


def test_theta5_twelve_five_cycles(theta5):
    from utrop.symtrees import enumerate_orderings

    edge_sets = set()
    for alpha in enumerate_orderings(5):
        sub = build_sub(alpha)
        assert len(sub.vertices) == 5
        assert len(sub.edges()) == 5
        assert set(sub.degree_sequence()) == {2}  # a 5-cycle
        assert theta5.contains_complex(sub)
        edge_sets.add(
            frozenset(
                frozenset((sub.vertices[a].canonical_key, sub.vertices[b].canonical_key))
                for a, b in sub.edges()
            )
        )
    assert len(edge_sets) == 12


def test_theta_as3_exact_content(theta_as3):
    assert len(theta_as3.vertices) == 13
    assert len(theta_as3.edges()) == 21
    key_to_num = {tree.canonical_key: k for k, tree in VERTEX_TREES.items()}
    assert len(key_to_num) == 13
    got_keys = {v.canonical_key for v in theta_as3.vertices}
    assert got_keys == set(key_to_num)
    index_to_num = {i: key_to_num[v.canonical_key] for i, v in enumerate(theta_as3.vertices)}
    got_edges = {
        tuple(sorted((index_to_num[a], index_to_num[b]))) for a, b in theta_as3.edges()
    }
    assert got_edges == {tuple(sorted(e)) for e in EDGES}


def test_theta_cs3_exact_content(theta_cs3, theta_as3):
    assert len(theta_cs3.vertices) == 10
    assert len(theta_cs3.edges()) == 12
    assert theta_as3.contains_complex(theta_cs3)
    key_to_num = {tree.canonical_key: k for k, tree in VERTEX_TREES.items()}
    nums = {key_to_num[v.canonical_key] for v in theta_cs3.vertices}
    assert nums == {1, 2, 3, 4, 5, 6, 10, 11, 12, 13}


def test_empty_face_and_downward_closure(theta_as3, theta_cs3, theta5):
    for cx in (theta5, theta_as3, theta_cs3):
        assert frozenset() in cx.faces
        assert cx.is_downward_closed()
        assert not cx.face_tree(frozenset()).splits  # the star tree
        assert cx.face_tree(frozenset()).labels == cx.vertices[0].labels
    # face trees are made on first use, and only for faces
    with pytest.raises(InvalidArgumentError, match="is not a face"):
        theta_as3.face_tree(frozenset(range(len(theta_as3.vertices))))


def test_purity_and_dimensions(theta5, theta_as3, theta_cs3):
    assert theta5.dimension == 1 and theta5.is_pure()  # n - 4 = 1
    assert theta_as3.dimension == 1 and theta_as3.is_pure()  # n - 2 = 1
    assert theta_cs3.dimension == 1 and theta_cs3.is_pure()


def test_flagness():
    # the per-ordering complexes and the plain and central complexes
    # (clique complexes of split orbits) are flag; the axial complex is NOT:
    # leaf negation fixes the edges of the {i,-i} splits pointwise, and its
    # fixed set in an axial tree is a path, on which the three edges of the
    # star {1,-1} | {2,-2} | {3,-3} do not lie.  They are pairwise joinable
    # but not jointly, which the triangle of the 1-skeleton exhibits
    theta5 = build_complex("a", 5)
    assert theta5.is_flag()
    theta_as3 = build_complex("as", 3)
    assert not theta_as3.is_flag()
    tri = {
        theta_as3.vertex_index(VERTEX_TREES[7]),
        theta_as3.vertex_index(VERTEX_TREES[8]),
        theta_as3.vertex_index(VERTEX_TREES[9]),
    }
    assert all(
        frozenset(p) in theta_as3.faces for p in itertools.combinations(sorted(tri), 2)
    )
    assert frozenset(tri) not in theta_as3.faces
    assert build_complex("cs", 3).is_flag()


@pytest.mark.parametrize("family,n,dim", [("a", 5, 1), ("a", 6, 2), ("as", 3, 1), ("as", 4, 2), ("cs", 3, 1)])
def test_per_ordering_complexes_flag_and_pure(family, n, dim):
    from utrop.symtrees import enumerate_orderings

    sym = {"a": Symmetry.NONE, "as": Symmetry.AXIAL, "cs": Symmetry.CENTRAL}[family]
    for alpha in enumerate_orderings(n, sym)[:3]:
        sub = build_sub(alpha)
        assert sub.is_flag()
        assert sub.is_pure()
        assert sub.dimension == dim


def test_face_containment_is_symmetric_contraction(theta_as3):
    # exhaustively at n=3: F1 <= F2 iff tree(F1) is an iterated symmetric
    # contraction of tree(F2)
    def contraction_closure(tree):
        seen = {tree.canonical_key}
        frontier = [tree]
        while frontier:
            t = frontier.pop()
            for c in symmetric_contractions(t):
                if c.canonical_key not in seen:
                    seen.add(c.canonical_key)
                    frontier.append(c)
        return seen

    faces = theta_as3.sorted_faces()
    closures = {f: contraction_closure(theta_as3.face_tree(f)) for f in faces}
    for f1 in faces:
        k1 = theta_as3.face_tree(f1).canonical_key
        for f2 in faces:
            assert (f1 <= f2) == (k1 in closures[f2])


def test_face_dimension_is_orbit_count_minus_one(theta_as3):
    for f in theta_as3.faces:
        if f:
            assert len(f) - 1 == orbit_count(theta_as3.face_tree(f)) - 1


@pytest.mark.parametrize("n", [4])
def test_axial_n4_face_dimension_and_cs_containment(n):
    theta_as = build_complex("as", n)
    theta_cs = build_complex("cs", n)
    assert theta_as.dimension == n - 2 and theta_as.is_pure()
    assert theta_cs.dimension == n - 2 and theta_cs.is_pure()
    assert theta_as.contains_complex(theta_cs)
    for f in theta_as.faces:
        if f:
            assert len(f) == orbit_count(theta_as.face_tree(f))


def test_sampled_contraction_poset_n4():
    theta_as = build_complex("as", 4)
    faces = theta_as.sorted_faces()
    sample = faces[:: max(1, len(faces) // 40)]
    for f1 in sample:
        for f2 in sample:
            t1 = theta_as.face_tree(f1)
            t2 = theta_as.face_tree(f2)
            reachable = {t2.canonical_key}
            frontier = [t2]
            while frontier:
                t = frontier.pop()
                for c in symmetric_contractions(t):
                    if c.canonical_key not in reachable:
                        reachable.add(c.canonical_key)
                        frontier.append(c)
            assert (f1 <= f2) == (t1.canonical_key in reachable)


def test_complex_json_round_trip(theta_as3):
    back = Complex.from_json(theta_as3.to_json())
    assert back.vertices == theta_as3.vertices
    assert back.faces == theta_as3.faces
    assert all(
        back.face_tree(f).canonical_key == theta_as3.face_tree(f).canonical_key
        for f in back.faces
    )


def test_dot_export(theta_as3):
    red = DihedralOrdering.make([1, 2, 3, -3, -2, -1], Symmetry.AXIAL)
    blue = DihedralOrdering.make([1, -2, 3, -1, 2, -3], Symmetry.CENTRAL)
    dot = theta_as3.to_dot("g", highlight_as=red, highlight_cs=blue)
    assert dot.count("color=red") == 5
    assert dot.count("color=blue") == 6
    assert dot.count(" -- ") == 21
    assert dot.strip().startswith("graph g {") and dot.strip().endswith("}")


def ordering_union(family, n):
    """Reference build from polygon subdivisions alone, with neither
    ``build_complex`` nor ``build_sub``: the union over every ordering of
    the family of its complex.  An ordering's vertices are the trees of its
    units (coarsest subdivisions), a face is the set of its subdivision's
    units, each diagonal lying in exactly one unit.  Vertices are identified
    by canonical key and sorted by it.  Returns the complex and each face's
    subdivision tree."""
    symmetry = {"a": Symmetry.NONE, "as": Symmetry.AXIAL, "cs": Symmetry.CENTRAL}[family]
    orderings = enumerate_orderings(n, symmetry)
    by_key, face_tree = {}, {}
    for alpha in orderings:
        unit_key = {}
        for unit in enumerate_coarsest(alpha):
            tree = tree_from_subdivision(unit)
            by_key.setdefault(tree.canonical_key, tree)
            unit_key.update(dict.fromkeys(unit.diagonals, tree.canonical_key))
        for sub in enumerate_subdivisions(alpha):
            face = frozenset(map(unit_key.__getitem__, sub.diagonals))
            if face not in face_tree:
                face_tree[face] = tree_from_subdivision(sub)
    index = {k: i for i, k in enumerate(sorted(by_key))}
    face_tree = {frozenset(map(index.__getitem__, f)): tree for f, tree in face_tree.items()}
    vertices = tuple(by_key[k] for k in index)
    labels = frozenset(orderings[0].labels)  # the a-complex of n = 3 has no vertex
    return Complex(family, n, vertices, frozenset(face_tree), labels), face_tree


def assert_same_complex(built, reference):
    union, face_tree = reference
    assert built.vertices == union.vertices  # same trees in the same order
    assert built.faces == union.faces
    # the face trees derived from the vertices are the subdivisions' trees
    assert all(built.face_tree(f) == tree for f, tree in face_tree.items())
    data = built.to_json()
    stored = {frozenset(f): t for f, t in zip(data["faces"], data["face_trees"])}
    assert all(stored[f] == tree.to_json() for f, tree in face_tree.items())
    assert data == union.to_json()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_plain_clique_build_equals_ordering_union(n):
    assert_same_complex(build_complex("a", n), ordering_union("a", n))


@pytest.mark.parametrize("family,n", [(f, n) for f in ("as", "cs") for n in (3, 4, 5)])
def test_symmetric_clique_build_equals_ordering_union(family, n):
    # one clique complex of split orbits (with the fixed-path condition for
    # as, without fixed splits for cs) is the union over the orderings
    assert_same_complex(build_complex(family, n), ordering_union(family, n))


def test_plain_complex_n7():
    theta7 = build_complex("a", 7)
    assert len(theta7.vertices) == 2 ** 6 - 7 - 1
    assert len(theta7.faces) == 2752
    assert theta7.dimension == 3 and theta7.is_pure()
    assert len(theta7.maximal_faces()) == 945  # binary trees: (2*7 - 5)!!


def test_plain_complex_needs_three_labels():
    with pytest.raises(InvalidArgumentError):
        build_complex("a", 2)


def test_maximal_faces(theta_as3, theta5):
    for cx in (theta5, theta_as3):
        by_scan = [f for f in cx.sorted_faces() if not any(f < g for g in cx.faces)]
        assert cx.maximal_faces() == by_scan
    assert build_complex("a", 3).maximal_faces() == [frozenset()]


@pytest.mark.parametrize("family,n", [("a", 5), ("a", 6), ("as", 3), ("as", 4), ("cs", 4)])
def test_facet_pass_matches_sort_and_scan(family, n):
    cx = build_complex(family, n)
    by_sort = sorted(
        ((f - {v}, f) for f in cx.faces for v in f),
        key=lambda cp: (sorted(cp[1]), sorted(cp[0])),
    )
    assert cx.facet_relation == tuple(by_sort)
    by_scan = [f for f in cx.sorted_faces() if not any(f < g for g in cx.faces)]
    assert cx.maximal_faces() == by_scan


def test_downward_closure_from_facets(theta5):
    def by_subsets(faces):
        return all(
            frozenset(sub) in faces
            for f in faces
            for k in range(len(f))
            for sub in itertools.combinations(f, k)
        )

    top = theta5.maximal_faces()[0]
    v = min(top)
    for drop, closed in ((frozenset(), False), (frozenset([v]), False), (top - {v}, False), (top, True)):
        cx = dataclasses.replace(theta5, faces=theta5.faces - {drop})
        assert cx.is_downward_closed() is closed
        assert by_subsets(cx.faces) is closed


# sha256 of build_complex(family, n).json_text(), the canonical JSON that
# `utrop complex` writes, recorded from the builder that made one tree per
# subdivision of every ordering
COMPLEX_DIGESTS = {
    ("as", 3): "91bd4cd0ac73a1edb68f17cf9c76088bf54d1a83fa1b51478b94b5a076702f55",
    ("as", 4): "2b082204c21a61279881d363ea6d736e22e669b7685a72610da5b4d0649cc3ca",
    ("as", 5): "eaba3a1ee598709de03011c0e11817096c07e21fc9e22280ae883b78f9c501f9",
    ("cs", 3): "86e8bff09d5d43e2b70eb87a49610de731949453f3cf36a77ed935b926cfd336",
    ("cs", 4): "dbc614e19089b046857f26f3b52b57409e6b3193b7eb2e9f76406f71932a08c0",
    ("cs", 5): "d871e129ccd9b0c53431cf99656c0c80c429b9d709d2a58530365132b25d192c",
}


@pytest.mark.parametrize("family,n", sorted(COMPLEX_DIGESTS))
def test_symmetric_complex_golden_digest(family, n):
    text = build_complex(family, n).json_text()
    assert hashlib.sha256(text.encode()).hexdigest() == COMPLEX_DIGESTS[family, n]


@pytest.mark.parametrize("family,n", [
    ("a", 4), ("a", 5), ("a", 6), ("as", 3), ("as", 4), ("cs", 3), ("cs", 4),
])
def test_complex_json_text_is_canonical(family, n):
    # the writer joins pre-encoded pieces; the result must be what a
    # canonical dump of the same data gives
    text = build_complex(family, n).json_text()
    same = text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    assert same  # compared outside the assert: pytest's diff of long texts takes minutes


@pytest.mark.parametrize("family,n", [("as", 3), ("cs", 3), ("as", 4), ("a", 6)])
def test_face_trees_are_subdivision_trees(family, n):
    # a face's tree is derived from its vertices; it must be the tree of
    # the subdivision made of the face's units, both among the ordering's
    # faces (the faces on its compatible vertices, which is what build_sub
    # renumbers) and as the face of those units' vertices
    symmetry = {"a": Symmetry.NONE, "as": Symmetry.AXIAL, "cs": Symmetry.CENTRAL}[family]
    union = build_complex(family, n)
    index = {v.canonical_key: i for i, v in enumerate(union.vertices)}
    for alpha in enumerate_orderings(n, symmetry):
        keep = union.compatible_vertices(alpha)
        faces = [f for f in union.faces if f <= keep]
        by_diagonals = {
            subdivision_from_tree(union.face_tree(f), alpha).diagonals: f for f in faces
        }
        units = [u.diagonals for u in enumerate_coarsest(alpha)]
        subs = enumerate_subdivisions(alpha)
        assert len(by_diagonals) == len(faces) == len(subs)
        for sub in subs:
            tree = tree_from_subdivision(sub)
            assert union.face_tree(by_diagonals[sub.diagonals]) == tree
            face = frozenset(
                index[tree_from_subdivision(Subdivision(alpha, u)).canonical_key]
                for u in units
                if u <= sub.diagonals
            )
            assert face in union.faces
            assert union.face_tree(face) == tree


@pytest.mark.parametrize("family,n", [("a", 5), ("a", 6), ("as", 3), ("as", 4), ("cs", 3), ("cs", 4)])
def test_compatible_faces_are_the_faces_on_compatible_vertices(family, n):
    # an ordering's named subcomplex by definition (the faces whose tree is
    # compatible with it) against the vertex filter, for every ordering that
    # uses the complex's labels: the symmetric complexes take both axial and
    # central orderings
    cx = build_complex(family, n)
    symmetries = [Symmetry.NONE] if family == "a" else [Symmetry.AXIAL, Symmetry.CENTRAL]
    for alpha in (a for sym in symmetries for a in enumerate_orderings(n, sym)):
        keep = cx.compatible_vertices(alpha)
        by_definition = {f for f in cx.faces if is_compatible(cx.face_tree(f), alpha)}
        assert by_definition == {f for f in cx.faces if f <= keep}


def test_complex_from_json_rejects_malformed_input(theta_as3):
    good = theta_as3.to_json()
    assert Complex.from_json(good).to_json() == good
    edge = next(f for f in good["faces"] if len(f) == 2)
    swapped = json.loads(json.dumps(good))
    i, j = (good["faces"].index([v]) for v in edge)
    swapped["face_trees"][i], swapped["face_trees"][j] = good["face_trees"][j], good["face_trees"][i]
    dropped = json.loads(json.dumps(good))
    k = good["faces"].index([edge[0]])
    del dropped["faces"][k], dropped["face_trees"][k]
    bad_key = json.loads(json.dumps(good["vertices"]))
    bad_key[0]["key"] = "nonsense"
    bad_edges = json.loads(json.dumps(good["vertices"]))
    bad_edges[0]["edges"] = []
    cases = [
        ({"faces": good["faces"] + [[0, 99]], "face_trees": good["face_trees"] + [good["face_trees"][0]]},
         "outside 0..12"),
        ({"face_trees": good["face_trees"][:-1]}, "faces but"),
        ({"faces": swapped["faces"], "face_trees": swapped["face_trees"]}, "stores a tree not of its vertices"),
        ({"faces": dropped["faces"], "face_trees": dropped["face_trees"]}, "not downward closed"),
        ({"faces": good["faces"] + [edge], "face_trees": good["face_trees"] + [good["face_trees"][0]]},
         "listed twice"),
        ({"faces": good["faces"][1:], "face_trees": good["face_trees"][1:]}, "empty face"),
        ({"vertices": bad_key}, "vertex 0 stores a key or edges not of its tree"),
        ({"vertices": bad_edges}, "vertex 0 stores a key or edges not of its tree"),
    ]
    for change, message in cases:
        with pytest.raises(InvalidArgumentError, match=message):
            Complex.from_json({**good, **change})


def test_complex_from_json_names_a_missing_field(theta_as3):
    good = theta_as3.to_json()
    docs = [({k: v for k, v in good.items() if k != field}, field)
            for field in ("face_trees", "faces", "family", "n", "vertices")]
    for field in ("key", "edges", "tree"):
        doc = json.loads(json.dumps(good))
        del doc["vertices"][0][field]
        docs.append((doc, field))
    for field in ("labels", "splits"):
        doc = json.loads(json.dumps(good))
        del doc["vertices"][0]["tree"][field], doc["face_trees"][0][field]
        docs.append((doc, field))
    for doc, field in docs:
        with pytest.raises(InvalidArgumentError, match=f"missing field '{field}'"):
            Complex.from_json(doc)


def test_replaced_complex_derives_face_trees_from_its_own_vertices():
    # dataclasses.replace builds a new complex; its face trees come from its
    # own vertices, and the original's stay those of its vertices
    a = build_complex("a", 5)
    b = dataclasses.replace(a, vertices=tuple(reversed(a.vertices)))
    assert b.vertices[0] != a.vertices[0]
    assert b.face_tree(frozenset([0])) == b.vertices[0]
    assert a.face_tree(frozenset([0])) == a.vertices[0]


def test_complex_from_json_rejects_vertices_that_share_a_split(theta_as3):
    # a face's sorted splits are its vertices' splits in rank order, which
    # is exact only if no two vertices share a split; here one vertex takes
    # on the split {3, -3} of another, and the face trees are written to
    # match (by hand, as the writer refuses such a complex)
    i = theta_as3.vertex_index(VERTEX_TREES[7])
    vertices = list(theta_as3.vertices)
    vertices[i] = t3({1, -1}, {3, -3})
    bad = dataclasses.replace(theta_as3, vertices=tuple(vertices))
    doc = theta_as3.to_json()
    doc["vertices"] = [{"tree": v.to_json()} for v in bad.vertices]
    doc["face_trees"] = [bad.face_tree(frozenset(f)).to_json() for f in doc["faces"]]
    with pytest.raises(InvalidArgumentError, match="share a split"):
        Complex.from_json(doc)


def test_split_table_rejects_vertices_that_share_a_split(theta_as3):
    # a complex built by hand meets no reader's check; writing it or
    # building its fan must raise, not order its face trees wrongly; here
    # vertex 0 is replaced by a copy of vertex 1, so both are still rays
    vertices = theta_as3.vertices
    bad = dataclasses.replace(theta_as3, vertices=(vertices[1], *vertices[1:]))
    with pytest.raises(InternalConsistencyError, match="share a split"):
        bad.json_text()
    with pytest.raises(InternalConsistencyError, match="share a split"):
        assemble_fan(bad, "c", check_intersections=False)
