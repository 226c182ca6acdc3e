"""Cone coordinates and fan assembly.

The distance-table oracle here is path-based: it rebuilds the adjacency
structure, finds the unique leaf-to-leaf path by search, and sums lengths
along it, independently of the split-counting used by the implementation.
"""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from utrop import fans, linalg
from utrop.errors import InternalConsistencyError, InvalidArgumentError, NotAxiallySymmetricError
from utrop.fans import (
    Fan,
    _check_pairwise_intersections,
    assemble_fan,
    cone_rays,
    double_label,
    edge_image_matrix,
    index_set,
    interior_point,
    orbit_projection,
    quotient_map_q,
    successor,
    tree_metric,
)
from utrop.symtrees import PhyloTree, build_complex, make_split, split_orbits

N3 = [1, 2, 3, -1, -2, -3]


def t3(*sides):
    return PhyloTree.make(N3, [make_split(side, set(N3) - set(side)) for side in sides])


def ta(n, *sides):
    labs = range(1, n + 1)
    return PhyloTree.make(labs, [make_split(side, set(labs) - set(side)) for side in sides])


TABLE_RAYS = [
    (t3({1, -2, -3}), (1, 0, 0, 0, 0, 0)),
    (t3({1, 2, -3}), (0, 1, 0, 0, 0, 0)),
    (t3({1, 2, 3}), (0, 0, 1, 0, 0, 0)),
    (t3({2, 3}, {-2, -3}), (0, 0, 0, 1, 0, 0)),
    (t3({1, -3}, {-1, 3}), (0, 0, 0, 0, 1, 0)),
    (t3({1, 2}, {-1, -2}), (0, 0, 0, 0, 0, 1)),
    (t3({1, -1}), (-1, 0, -1, 1, 0, 0)),
    (t3({2, -2}), (-1, -1, 0, 0, 1, 0)),
    (t3({3, -3}), (0, -1, -1, 0, 0, 1)),
    (t3({1, -2}, {-1, 2}), (2, 0, 0, -1, -1, 0)),
    (t3({2, -3}, {-2, 3}), (0, 2, 0, 0, -1, -1)),
    (t3({1, 3}, {-1, -3}), (0, 0, 2, -1, 0, -1)),
    (t3({1, -2, 3}), (1, 1, 1, -1, -1, -1)),
]


def test_successor():
    assert [successor(i, 3) for i in (1, 2, 3, -1, -2, -3)] == [2, 3, -1, -2, -3, 1]


def test_index_set_sizes_and_order():
    d3 = index_set("c", 3)
    assert d3.pairs == ((1, -1), (2, -2), (3, -3), (1, 3), (1, -2), (2, -3))
    for n in (2, 3, 4, 5):
        assert len(index_set("c", n)) == n * (n - 1)
    for n in (4, 5, 6, 7):
        assert len(index_set("a", n)) == n * (n - 3) // 2
    assert index_set("a", 4).pairs == ((1, 3), (2, 4))


def test_thirteen_ray_generators_exact():
    for tree, expected in TABLE_RAYS:
        cone = cone_rays(tree, "c")
        assert cone.rays == (expected,)


def test_type_a_rays_raw_and_primitive():
    cases = [
        ({1, 2}, (0, 2), (0, 1)),
        ({2, 3}, (2, 0), (1, 0)),
        ({1, 3}, (-2, -2), (-1, -1)),
    ]
    for side, raw, prim in cases:
        tree = ta(4, side)
        units, rows, D = edge_image_matrix(tree, "a")
        assert rows == [raw]
        assert cone_rays(tree, "a").rays == (prim,)


def test_type_a_balancing_n4():
    rays = [cone_rays(ta(4, s), "a").rays[0] for s in ({1, 2}, {2, 3}, {1, 3})]
    assert [sum(r[i] for r in rays) for i in range(2)] == [0, 0]


def edge_image_matrix_reference(tree, kind):
    """The per-entry formula: for each pair (i, j) of D, count the splits
    of the unit that separate i from j and suc i from suc j, minus those
    that separate i from suc j and suc i from j."""
    if kind == "a":
        n = len(tree.labels)
        units = [frozenset([s]) for s in tree.sorted_splits()]
        suc = {i: i % n + 1 for i in range(1, n + 1)}
    else:
        n = len(tree.labels) // 2
        units = split_orbits(tree)
        suc = {i: successor(i, n) for i in tree.labels}
    D = index_set(kind, n)

    def separates(s, i, j):
        a, _ = tuple(s)
        return (i in a) != (j in a)

    rows = []
    for unit in units:
        row = []
        for (i, j) in D.pairs:
            val = 0
            for s in unit:
                val += int(separates(s, i, j))
                val += int(separates(s, suc[i], suc[j]))
                val -= int(separates(s, i, suc[j]))
                val -= int(separates(s, suc[i], j))
            row.append(val)
        rows.append(tuple(row))
    return units, rows, D


@pytest.mark.parametrize("family,n", [("a", 6), ("as", 3), ("as", 4), ("cs", 3)])
def test_edge_image_matrix_matches_separation_count(family, n):
    kind = "a" if family == "a" else "c"
    cx = build_complex(family, n)
    assert len(cx.sorted_faces()) > 20
    for face in cx.sorted_faces():
        tree = cx.face_tree(face)
        assert edge_image_matrix(tree, kind) == edge_image_matrix_reference(tree, kind)


# -- distance tables ---------------------------------------------------------


def path_metric_oracle(tree, lengths):
    """Path-based distances over the reconstructed adjacency."""
    count, edges, leaf_map = tree.adjacency
    adj = {v: [] for v in range(count)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def split_of_edge(u, v):
        stack, seen, leaves = [u], {u, v}, set()
        while stack:
            x = stack.pop()
            for lab, home in leaf_map.items():
                if home == x:
                    leaves.add(lab)
            for w in adj[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        side = frozenset(leaves)
        return make_split(side, tree.labels - side)

    def path(u, v):
        prev = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                break
            for w in adj[x]:
                if w not in prev:
                    prev[w] = x
                    stack.append(w)
        out = []
        x = v
        while prev[x] is not None:
            out.append((prev[x], x))
            x = prev[x]
        return out

    table = {}
    for i, j in itertools.combinations(sorted(tree.labels), 2):
        total = Fraction(0)
        for u, v in path(leaf_map[i], leaf_map[j]):
            total += lengths[split_of_edge(u, v)]
        table[frozenset((i, j))] = total
    return table


@pytest.mark.parametrize("seed", [0, 1])
def test_tree_metric_matches_path_oracle(seed):
    rng = random.Random(seed)
    tree = t3({1, -2, -3}, {1, -3}, {-1, 3})
    orbit_lengths = {}
    for orb in split_orbits(tree):
        val = Fraction(rng.randrange(0, 9), rng.randrange(1, 5))
        for s in orb:
            orbit_lengths[s] = val
    table = tree_metric(tree, orbit_lengths)
    assert table == path_metric_oracle(tree, orbit_lengths)
    # doubled-label symmetry of the table
    for i, j in itertools.combinations(sorted(tree.labels), 2):
        assert table[frozenset((i, j))] == table[frozenset((-i, -j))]


def test_tree_metric_simple_values():
    tree = ta(4, {1, 2})
    s = next(iter(tree.splits))
    table = tree_metric(tree, {s: Fraction(1)})
    assert table[frozenset((1, 3))] == 1
    assert table[frozenset((1, 2))] == 0
    assert all(v == 0 for v in tree_metric(tree, {s: Fraction(0)}).values())


def test_tree_metric_validation():
    tree = t3({1, -1})
    s = next(iter(tree.splits))
    with pytest.raises(InvalidArgumentError):
        tree_metric(tree, {s: Fraction(-1)})
    asym = t3({2, 3}, {-2, -3})
    s1 = make_split({2, 3}, {1, -1, -2, -3})
    s2 = make_split({-2, -3}, {1, -1, 2, 3})
    with pytest.raises(InvalidArgumentError):
        tree_metric(asym, {s1: Fraction(1), s2: Fraction(2)})


def test_cone_rays_rejects_mismatches():
    with pytest.raises(NotAxiallySymmetricError):
        cone_rays(
            PhyloTree.make(N3, [make_split({1, 2}, {3, -1, -2, -3})]), "c"
        )
    with pytest.raises(InvalidArgumentError):
        cone_rays(PhyloTree.star([1, 2, 3, 5]), "a")


# -- quotient map -------------------------------------------------------------


def test_quotient_map_zero_and_lineality():
    n = 5
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    assert all(x == 0 for x in quotient_map_q([0] * len(pairs), n))
    t = [Fraction(k * k, 3) for k in range(1, n + 1)]
    w = [t[i - 1] + t[j - 1] for i, j in pairs]
    assert all(x == 0 for x in quotient_map_q(w, n))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_quotient_of_distance_table_negates_cone_coordinates(n):
    # for every tree on n labels (faces of the plain complex) and random
    # rational lengths, the projection of the distance table is minus the
    # second-difference image
    rng = random.Random(n)
    labs = list(range(1, n + 1))
    theta = build_complex("a", n)
    for f in theta.sorted_faces():
        tree = theta.face_tree(f)
        lengths = {s: Fraction(rng.randrange(1, 7), rng.randrange(1, 4)) for s in tree.splits}
        table = tree_metric(tree, lengths)
        pairs = list(itertools.combinations(labs, 2))
        w = [table[frozenset(p)] for p in pairs]
        units, rows, D = edge_image_matrix(tree, "a")
        image = [
            sum(Fraction(r[k]) * lengths[next(iter(u))] for u, r in zip(units, rows))
            for k in range(len(D))
        ]
        assert list(quotient_map_q(w, n)) == [-x for x in image]


# -- fan assembly -------------------------------------------------------------


def test_fan_c3_counts(fan_c3):
    assert len(fan_c3.rays()) == 13
    assert sum(1 for f in fan_c3.cones if len(f) == 2) == 21
    assert sum(1 for f in fan_c3.cones if len(f) == 0) == 1


def test_fan_c3_rank_equals_orbit_count(fan_c3):
    from utrop.symtrees import orbit_count

    for face, cone in fan_c3.cones.items():
        tree = fan_c3.complex.face_tree(face)
        assert cone.dim == orbit_count(tree)


def test_cone_rank_equals_orbit_count_n4():
    from utrop import fans, linalg
    from utrop.symtrees import orbit_count

    theta = build_complex("as", 4)
    for f in theta.sorted_faces():
        tree = theta.face_tree(f)
        cone = cone_rays(tree, "c")
        assert cone.dim == orbit_count(tree)
        assert linalg.rank(cone.rays) == cone.dim


def test_fan_c3_facets_are_contractions(fan_c3):
    # the cone of each symmetric contraction is spanned by the parent's
    # rays minus exactly one
    for child, parent in fan_c3.facet_relation:
        assert set(fan_c3.cones[child].rays) < set(fan_c3.cones[parent].rays)
        assert len(fan_c3.cones[child].rays) == len(fan_c3.cones[parent].rays) - 1


def test_fan_c3_pairwise_intersections(fan_c3):
    _check_pairwise_intersections(fan_c3)  # raises on violation


@pytest.fixture(scope="module")
def fan_a5(theta5):
    return assemble_fan(theta5, "a", check_intersections=False)


def reference_pairwise_check(fan):
    """The exhaustive form of the check: every pair of faces, and one LP
    per non-shared ray asking for a common point that puts weight 1 on it."""
    k = len(fan.index_set)
    for fa, fb in itertools.combinations(fan.sorted_faces(), 2):
        ra, rb = fan.cones[fa].rays, fan.cones[fb].rays
        shared = set(ra) & set(rb)
        for rays, others in ((ra, rb), (rb, ra)):
            cols = list(rays) + [tuple(-x for x in r) for r in others]
            for idx, ray in enumerate(rays):
                if ray in shared:
                    continue
                mat = [[c[t] for c in cols] for t in range(k)]
                mat.append([int(c == idx) for c in range(len(cols))])
                if linalg.solve_nonneg(mat, [0] * k + [1]) is not None:
                    raise InternalConsistencyError("cones overlap beyond their common face")


def move_ray_into_neighbour(fan):
    """A copy of ``fan`` in which one ray of a maximal cone is replaced by
    an interior point of a neighbouring maximal cone."""
    fa, fb = next(
        (a, b)
        for a, b in itertools.combinations(fan.complex.maximal_faces(), 2)
        if len(a & b) == len(a) - 1
    )
    rb = fan.cones[fb].rays
    moved = next(r for r in fan.cones[fa].rays if r not in rb)
    inside = tuple(map(sum, zip(*rb)))
    rays = tuple(inside if r == moved else r for r in fan.cones[fa].rays)
    cones = dict(fan.cones)
    cones[fa] = dataclasses.replace(cones[fa], rays=rays)
    return dataclasses.replace(fan, cones=cones)


@pytest.mark.parametrize("name", ["fan_c3", "fan_a5"])
def test_pairwise_check_agrees_with_reference(name, request):
    fan = request.getfixturevalue(name)
    reference_pairwise_check(fan)
    _check_pairwise_intersections(fan)
    broken = move_ray_into_neighbour(fan)
    with pytest.raises(InternalConsistencyError):
        reference_pairwise_check(broken)
    with pytest.raises(InternalConsistencyError):
        _check_pairwise_intersections(broken)


def test_fan_a5_counts_and_intersections(theta5):
    fan = assemble_fan(theta5, "a")
    assert len(fan.rays()) == 10
    assert sum(1 for f in fan.cones if len(f) == 2) == 15


def test_fan_a4():
    fan = assemble_fan(build_complex("a", 4), "a")
    assert len(fan.rays()) == 3
    assert all(len(f) <= 1 for f in fan.cones)


def test_fan_c4_rays_match_complex_vertices():
    # two independent code paths agree on the number of minimal symmetric
    # trees at n=4 (43 rays; facet/rank validation still runs)
    cx = build_complex("as", 4)
    fan = assemble_fan(cx, "c", check_intersections=False)
    assert len(fan.rays()) == len(cx.vertices) == 43


def test_interior_point(fan_c3):
    zero = interior_point(fan_c3.cones[frozenset()])
    assert zero.is_zero and all(x == 0 for x in zero.vector)
    for face, cone in fan_c3.cones.items():
        if len(face) == 2:
            p = interior_point(cone)
            assert not p.is_zero
            assert list(p.vector) == [a + b for a, b in zip(*cone.rays)]


def test_blue_edge_interior_point(fan_c3, theta_as3):
    tree1 = t3({1, -2, -3})
    tree10 = t3({1, -2}, {-1, 2})
    face = frozenset(
        {theta_as3.vertex_index(tree1), theta_as3.vertex_index(tree10)}
    )
    assert face in fan_c3.cones
    assert interior_point(fan_c3.cones[face]).vector == (3, 0, 0, -1, -1, 0)


def test_hexagon_edge_interior_point_is_ray_sum(fan_c3, theta_as3):
    # the edge joining the first longest-diagonal tree and the first
    # ear-pair tree: interior point is the sum of table rows 1 and 4
    tree1 = t3({1, -2, -3})
    tree4 = t3({2, 3}, {-2, -3})
    face = frozenset({theta_as3.vertex_index(tree1), theta_as3.vertex_index(tree4)})
    assert face in fan_c3.cones
    assert interior_point(fan_c3.cones[face]).vector == (1, 0, 0, 1, 0, 0)


def test_minimal_plain_complex_is_a_point():
    theta3 = build_complex("a", 3)
    assert len(theta3.vertices) == 0
    assert theta3.faces == frozenset({frozenset()})
    fan = assemble_fan(theta3, "a")
    assert interior_point(fan.cones[frozenset()]).is_zero


def test_type_c_rays_pull_back_to_doubled_type_a(fan_c3):
    # raw coordinates: the orbit row of the doubled-label tree equals the
    # type-a row sums of its splits, transported along the orbit projection
    n = 3
    proj = orbit_projection(n)
    d2n = index_set("a", 2 * n)
    for vertex in fan_c3.complex.vertices:
        unitsC, rowsC, DC = edge_image_matrix(vertex, "c")
        # relabel: doubled tree on 1..6 via the unfolding bijection
        back = {double_label(k, n): k for k in range(1, 2 * n + 1)}
        splits_a = [
            make_split(
                frozenset(back[x] for x in next(iter(s))),
                frozenset(back[x] for x in tuple(s)[1]),
            )
            for s in vertex.sorted_splits()
        ]
        doubled = PhyloTree.make(range(1, 2 * n + 1), splits_a)
        unitsA, rowsA, DA = edge_image_matrix(doubled, "a")

        def a_row_for_c_split(s):
            a_side = frozenset(back[x] for x in next(iter(s)))
            for u, r in zip(unitsA, rowsA):
                su = next(iter(u))
                if a_side in su:
                    return r
            raise AssertionError("missing doubled split")

        for unit, rowC in zip(unitsC, rowsC):
            summed = [0] * len(DA)
            for s in unit:
                r = a_row_for_c_split(s)
                summed = [x + y for x, y in zip(summed, r)]
            for idx_a, pair_a in enumerate(DA.pairs):
                c_pair = proj[pair_a]
                assert summed[idx_a] == rowC[DC.pairs.index(c_pair)]


def test_fan_json_round_trip(fan_c3):
    back = Fan.from_json(fan_c3.to_json())
    assert back.kind == fan_c3.kind
    assert back.index_set == fan_c3.index_set
    assert set(back.cones) == set(fan_c3.cones)
    for f in back.cones:
        assert back.cones[f].rays == fan_c3.cones[f].rays
    assert back.facet_relation == fan_c3.facet_relation
    assert back.rays() == fan_c3.rays()


def _scramble(obj):
    """Change every list and dict inside ``obj`` in place."""
    if isinstance(obj, list):
        for x in obj:
            _scramble(x)
        obj.append(None)
    elif isinstance(obj, dict):
        for x in obj.values():
            _scramble(x)
        obj[None] = None


def test_to_json_caches_nothing_mutable(fan_c3):
    # the payloads share sublists within one call, never across calls
    for obj in (fan_c3, fan_c3.complex):
        text = json.dumps(obj.to_json(), sort_keys=True)
        _scramble(obj.to_json())
        assert json.dumps(obj.to_json(), sort_keys=True) == text


def test_fan_from_json_rejects_a_foreign_facet_relation(fan_c3):
    good = fan_c3.to_json()
    rel = good["facet_relation"]
    for bad in (rel[1:], rel[::-1], rel + [rel[0]]):
        with pytest.raises(InvalidArgumentError, match="facet relation"):
            Fan.from_json({**good, "facet_relation": bad})


def test_fan_from_json_rejects_cones_off_the_complex(fan_c3):
    good = fan_c3.to_json()
    cones = good["cones"]
    for bad in (cones[1:], cones + [cones[-1]], cones[:-1] + [{**cones[-1], "face": [0, 99]}]):
        with pytest.raises(InvalidArgumentError, match="not the complex's faces"):
            Fan.from_json({**good, "cones": bad})


def test_assemble_fan_needs_one_ray_per_vertex(theta_as3):
    two_orbits = t3({1, -1}, {3, -3})
    cx = dataclasses.replace(theta_as3, vertices=(two_orbits,) + theta_as3.vertices[1:])
    with pytest.raises(InternalConsistencyError, match="not a ray"):
        assemble_fan(cx, "c", check_intersections=False)


def test_assemble_fan_checks_rank_on_maximal_faces(theta5, monkeypatch):
    # give one vertex of a maximal face the ray of the other
    u, v = sorted(theta5.maximal_faces()[0])
    cone_rays = fans.cone_rays

    def copied_ray(tree, kind):
        return cone_rays(theta5.vertices[u] if tree == theta5.vertices[v] else tree, kind)

    monkeypatch.setattr(fans, "cone_rays", copied_ray)
    with pytest.raises(InternalConsistencyError, match="linearly dependent"):
        assemble_fan(theta5, "a", check_intersections=False)


def test_assemble_fan_needs_every_facet(theta5):
    v = min(next(f for f in theta5.faces if len(f) == 2))
    cx = dataclasses.replace(theta5, faces=theta5.faces - {frozenset([v])})
    with pytest.raises(InternalConsistencyError, match="missing from the complex"):
        assemble_fan(cx, "a", check_intersections=False)
