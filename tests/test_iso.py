"""The axial-complex / smaller-polygon identification and the flip that
realizes centrally symmetric trees as axially symmetric ones."""

import pytest

from utrop.errors import InvalidArgumentError
from utrop.symtrees import (
    DihedralOrdering,
    Symmetry,
    csp_to_asp,
    delta_as_iso,
    enumerate_orderings,
    tree_from_subdivision,
)


@pytest.mark.parametrize("n", [3, 4])
def test_delta_as_iso_is_order_isomorphism(n):
    alpha = enumerate_orderings(n, Symmetry.AXIAL)[0]
    axial, plain, fm = delta_as_iso(alpha)
    assert plain.n == n + 2
    assert len(fm) == len(axial.faces) == len(plain.faces)
    assert len(set(fm.values())) == len(plain.faces)
    faces = list(axial.faces)
    for f1 in faces:
        for f2 in faces:
            assert (f1 <= f2) == (fm[f1] <= fm[f2])
    # dimensions are preserved, the trivial faces correspond
    assert fm[frozenset()] == frozenset()
    assert all(len(f) == len(fm[f]) for f in faces)


def test_delta_as_iso_n3_both_five_cycles():
    alpha = DihedralOrdering.make([1, 2, 3, -3, -2, -1], Symmetry.AXIAL)
    axial, plain, fm = delta_as_iso(alpha)
    for cx in (axial, plain):
        assert len(cx.vertices) == 5
        assert len(cx.edges()) == 5
        assert set(cx.degree_sequence()) == {2}


def test_delta_as_iso_every_axial_ordering_n3():
    for alpha in enumerate_orderings(3, Symmetry.AXIAL):
        axial, plain, fm = delta_as_iso(alpha)
        assert len(fm) == 11 == len(plain.faces)
        assert len(set(fm.values())) == 11
        faces = list(axial.faces)
        assert all((f1 <= f2) == (fm[f1] <= fm[f2]) for f1 in faces for f2 in faces)


def test_delta_as_iso_rejects_plain_orderings():
    with pytest.raises(InvalidArgumentError):
        delta_as_iso(DihedralOrdering.make(range(1, 6)))


def test_csp_vertices_embed_into_axial_complex(theta_cs3, theta_as3):
    for v in theta_cs3.vertices:
        beta, sub = csp_to_asp(v)
        assert beta.symmetry is Symmetry.AXIAL
        assert sub.ordering.symmetry is Symmetry.AXIAL
        assert tree_from_subdivision(sub).canonical_key == v.canonical_key
        assert theta_as3.vertex_index(v) >= 0


def test_csp_to_asp_star_tree():
    from utrop.symtrees import PhyloTree

    star = PhyloTree.star([1, 2, 3, -1, -2, -3])
    beta, sub = csp_to_asp(star)
    assert sub.is_trivial


def test_csp_to_asp_eight_gon_flip_reverses_one_side():
    # a centrally symmetric tree of the ordering (1,2,3,4,-1,-2,-3,-4) with
    # two nested mirror diagonal pairs; the flip must produce an axial
    # ordering of the form (one half of a representative) + (the other half
    # reversed)
    from utrop.symtrees import PhyloTree, canonical_cycle, make_split

    labels = [1, 2, 3, 4, -1, -2, -3, -4]
    sides = [{3, 4}, {-3, -4}, {3, 4, -1}, {-3, -4, 1}]
    tree = PhyloTree.make(labels, [make_split(s, set(labels) - set(s)) for s in sides])

    beta, sub = csp_to_asp(tree)
    assert tree_from_subdivision(sub).canonical_key == tree.canonical_key

    original = (1, 2, 3, 4, -1, -2, -3, -4)
    expected_classes = set()
    for s in range(8):
        rot = tuple(original[(p + s) % 8] for p in range(8))
        for rep in (rot, tuple(reversed(rot))):
            expected_classes.add(canonical_cycle(rep[:4] + tuple(reversed(rep[4:]))))
    assert beta.labels in expected_classes


def test_flip_example_last_half_reversed():
    # the specific witness: flipping (1,2,3,4,-1,-2,-3,-4) across a longest
    # diagonal bordering both halves gives the class of
    # (1,2,3,4,-4,-3,-2,-1)
    from utrop.symtrees import canonical_cycle

    original = (1, 2, 3, 4, -1, -2, -3, -4)
    flipped = canonical_cycle((1, 2, 3, 4, -4, -3, -2, -1))
    assert DihedralOrdering.make(flipped, Symmetry.AXIAL).labels == flipped


def test_csp_to_asp_rejects_non_central_trees():
    from utrop.symtrees import PhyloTree, make_split

    labels = [1, 2, 3, -1, -2, -3]
    skew = PhyloTree.make(labels, [make_split({1, -1}, {2, 3, -2, -3})])
    with pytest.raises(InvalidArgumentError):
        csp_to_asp(skew)
