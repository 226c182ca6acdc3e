"""The leaf-negating involution, orbit counts, and symmetric contraction."""

import pytest

from utrop.errors import InvalidArgumentError, NotAxiallySymmetricError
from utrop.symtrees import (
    PhyloTree,
    make_split,
    orbit_count,
    symmetric_contract,
    symmetric_contractions,
    symmetry_involution,
)

N3 = [1, 2, 3, -1, -2, -3]


def t3(*sides):
    return PhyloTree.make(N3, [make_split(side, set(N3) - set(side)) for side in sides])


def test_two_vertex_tree_swaps_internal_vertices():
    tree = t3({1, -2, -3})  # the split tree over the diagonal pairing 1 and -1
    v = symmetry_involution(tree)
    assert orbit_count(tree) == 1
    count, edges, leaf_map = tree.adjacency
    assert count == 2
    assert v[0] == 1 and v[1] == 0  # the two cells are exchanged
    for lab in N3:
        assert v[leaf_map[lab]] == leaf_map[-lab]


def test_vertex_tree_13_orbit_count():
    assert orbit_count(t3({1, -2, 3})) == 1


def test_edge_trees_have_two_orbits():
    assert orbit_count(t3({1, -1}, {3, -3})) == 2
    assert orbit_count(t3({1, -2, -3}, {1, -3}, {-1, 3})) == 2
    assert orbit_count(t3({3, -3}, {1, 2}, {-1, -2})) == 2


def test_three_vertex_tree_fixes_middle():
    tree = t3({2, 3}, {-2, -3})
    v = symmetry_involution(tree)
    assert orbit_count(tree) == 1
    count, edges, leaf_map = tree.adjacency
    middle, outer, mirror = leaf_map[1], leaf_map[2], leaf_map[-2]
    assert count == 3 and len({middle, outer, mirror}) == 3 and leaf_map[-1] == middle
    assert v[middle] == middle
    assert v[outer] == mirror and v[mirror] == outer


def test_involution_absent():
    skew = PhyloTree.make(N3, [make_split({1, 2}, {3, -1, -2, -3})])
    with pytest.raises(NotAxiallySymmetricError):
        symmetry_involution(skew)
    with pytest.raises(NotAxiallySymmetricError):
        orbit_count(skew)


def test_involution_needs_negation_closed_labels():
    plain = PhyloTree.star([1, 2, 3, 4])
    with pytest.raises(NotAxiallySymmetricError):
        symmetry_involution(plain)


def test_contract_fixed_edge_gives_star():
    tree = t3({1, -2, -3})
    out = symmetric_contract(tree, make_split({1, -2, -3}, {-1, 2, 3}))
    assert not out.splits


def test_contract_orbit_pair():
    tree = t3({2, 3}, {-2, -3})
    out = symmetric_contract(tree, make_split({2, 3}, {1, -1, -2, -3}))
    assert not out.splits  # both edges of the orbit contracted together


def test_edge_trees_contract_to_their_endpoints():
    # the three labeled edge trees and their endpoint vertex trees
    cases = [
        (t3({1, -1}, {3, -3}), {t3({1, -1}).canonical_key, t3({3, -3}).canonical_key}),
        (
            t3({1, -2, -3}, {1, -3}, {-1, 3}),
            {t3({1, -2, -3}).canonical_key, t3({1, -3}, {-1, 3}).canonical_key},
        ),
        (
            t3({3, -3}, {1, 2}, {-1, -2}),
            {t3({3, -3}).canonical_key, t3({1, 2}, {-1, -2}).canonical_key},
        ),
    ]
    for tree, expected in cases:
        got = {c.canonical_key for c in symmetric_contractions(tree)}
        assert got == expected


def test_full_contraction_reaches_star():
    tree = t3({1, -2, -3}, {1, -3}, {-1, 3})
    while tree.splits:
        tree = symmetric_contractions(tree)[0]
    assert not tree.splits


def test_contract_invalid_edge():
    tree = t3({1, -1})
    with pytest.raises(InvalidArgumentError):
        symmetric_contract(tree, make_split({2, 3}, {1, -1, -2, -3}))
    skew = PhyloTree.make(N3, [make_split({1, 2}, {3, -1, -2, -3})])
    with pytest.raises(NotAxiallySymmetricError):
        symmetric_contract(skew, make_split({1, 2}, {3, -1, -2, -3}))
