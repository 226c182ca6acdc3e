"""Subdivision enumeration: counts, symmetry closure, round trips."""

import pytest

from utrop.errors import InvalidArgumentError
from utrop.symtrees import (
    Diagonal,
    DihedralOrdering,
    Subdivision,
    Symmetry,
    enumerate_coarsest,
    enumerate_orderings,
    enumerate_subdivisions,
    is_compatible,
    tree_from_subdivision,
)
from utrop.symtrees import _units

# total subdivision counts of an m-gon (trivial one included)
SUBDIVISION_TOTALS = {3: 1, 4: 3, 5: 11, 6: 45, 7: 197, 8: 903}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_coarsest_plain_counts(n):
    alpha = DihedralOrdering.make(range(1, n + 1))
    assert len(enumerate_coarsest(alpha)) == n * (n - 3) // 2


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_coarsest_axial_counts(n):
    alpha = enumerate_orderings(n, Symmetry.AXIAL)[0]
    assert len(enumerate_coarsest(alpha)) == (n + 2) * (n - 1) // 2


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_coarsest_central_counts(n):
    alpha = enumerate_orderings(n, Symmetry.CENTRAL)[0]
    assert len(enumerate_coarsest(alpha)) == n * (n - 1)


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_plain_subdivision_totals(m):
    alpha = DihedralOrdering.make(range(1, m + 1))
    assert len(enumerate_subdivisions(alpha)) == SUBDIVISION_TOTALS[m]


@pytest.mark.parametrize("n", [3, 4])
def test_axial_subdivisions_count_like_a_smaller_polygon(n):
    # axially symmetric subdivisions of the 2n-gon biject with subdivisions
    # of an (n+2)-gon
    alpha = enumerate_orderings(n, Symmetry.AXIAL)[0]
    assert len(enumerate_subdivisions(alpha)) == SUBDIVISION_TOTALS[n + 2]


def test_central_subdivision_count_n3():
    alpha = enumerate_orderings(3, Symmetry.CENTRAL)[0]
    # empty + 6 units + 6 compatible unit pairs
    assert len(enumerate_subdivisions(alpha)) == 13


def test_symmetric_closure_is_validated():
    alpha = DihedralOrdering.make([1, 2, 3, -1, -2, -3], Symmetry.CENTRAL)
    lone = Diagonal.make(0, 2, 6)  # not closed under the half-turn
    with pytest.raises(InvalidArgumentError):
        Subdivision.make(alpha, [lone])


@pytest.mark.parametrize(
    "labels,symmetry",
    [((1, 2, 3, -1, -2, -3), Symmetry.AXIAL), ((1, 2, 3, -3, -2, -1), Symmetry.CENTRAL)],
)
def test_orderings_without_their_symmetry_are_rejected(labels, symmetry):
    # the raw constructor checks nothing; every reader of the symmetry does
    alpha = DihedralOrdering(labels, symmetry)
    for call in (enumerate_coarsest, enumerate_subdivisions, lambda a: Subdivision.make(a, [])):
        with pytest.raises(InvalidArgumentError, match="symmetric"):
            call(alpha)


def test_crossing_diagonals_rejected():
    alpha = DihedralOrdering.make(range(1, 7))
    with pytest.raises(InvalidArgumentError):
        Subdivision.make(alpha, [Diagonal.make(0, 3, 6), Diagonal.make(1, 4, 6)])


@pytest.mark.parametrize(
    "n,symmetry",
    [(5, Symmetry.NONE), (6, Symmetry.NONE), (3, Symmetry.AXIAL), (3, Symmetry.CENTRAL)],
)
def test_round_trip_all_subdivisions(n, symmetry):
    # every subdivision's tree is compatible with the subdivision's ordering
    if symmetry is Symmetry.NONE:
        orderings = enumerate_orderings(n)[:4]
    else:
        orderings = enumerate_orderings(n, symmetry)[:4]
    for alpha in orderings:
        for sub in enumerate_subdivisions(alpha):
            assert is_compatible(tree_from_subdivision(sub), alpha)


def test_vertex_naming_convention():
    # in any stored representative, vertex_after_label(x) is the vertex
    # between the edge labeled x and the next edge around
    alpha = DihedralOrdering.make([1, 2, 3, -1, -2, -3], Symmetry.CENTRAL)
    m = alpha.size
    for label in alpha.labels:
        p = alpha.vertex_after_label(label)
        assert alpha.labels[p] == label
    d = Diagonal.make(alpha.vertex_after_label(1), alpha.vertex_after_label(-1), m)
    assert set(d.endpoint_labels(alpha)) == {1, -1}

    # the published naming (vertex i between edges i and successor(i))
    # lives on the fixed standard layout used by the coordinate geometry
    from utrop.fans import standard_labels, successor, vertex_position

    labels = standard_labels("c", 3)
    for label in labels:
        p = vertex_position(label, "c", 3)
        assert labels[p] == label
        assert labels[(p + 1) % m] == successor(label, 3)


def test_axial_subdivision_axis_crossing_rule():
    # diagonals crossing the axis non-perpendicularly never appear in the
    # enumerated axial subdivisions; the axis joins the reflection's two
    # fixed vertices, and a perpendicular joins two vertices it swaps
    from utrop.symtrees import _image, all_diagonals

    def axis_and_perpendiculars(alpha):
        g, m = alpha.symmetry_map(), alpha.size
        axis = Diagonal(*(v for v in range(m) if g[v] == v))
        return g, axis, {d for d in all_diagonals(m) if g[d.a] == d.b}

    alpha = enumerate_orderings(4, Symmetry.AXIAL)[0]
    _, axis, perps = axis_and_perpendiculars(alpha)
    for sub in enumerate_subdivisions(alpha):
        for d in sub.diagonals:
            if d != axis and d not in perps:
                assert not d.crosses(axis)
    # Subdivision.make has no rule of its own for them: such a diagonal
    # crosses its mirror image, so closure under the reflection and the
    # non-crossing check reject it
    cases = 0
    for n in (3, 4, 5):
        for alpha in enumerate_orderings(n, Symmetry.AXIAL):
            g, axis, perps = axis_and_perpendiculars(alpha)
            for d in all_diagonals(alpha.size):
                if d == axis or d in perps or not d.crosses(axis):
                    continue
                mirror = _image(d, g)
                assert d.crosses(mirror)
                with pytest.raises(InvalidArgumentError):
                    Subdivision.make(alpha, {d, mirror})
                cases += 1
    assert cases > 0


def enumerate_subdivisions_reference(alpha):
    """Backtracking over units, keeping the chosen set pairwise
    non-crossing: each chosen list is extended by the later units that
    cross none of its members."""
    units = _units(alpha)
    compat = [
        {j for j in range(i + 1, len(units)) if all(not d.crosses(e) for d in units[i] for e in units[j])}
        for i in range(len(units))
    ]
    out = []

    def extend(chosen, allowed):
        out.append(Subdivision(alpha, frozenset(d for i in chosen for d in units[i])))
        for pos, j in enumerate(allowed):
            extend(chosen + [j], [k for k in allowed[pos + 1 :] if k in compat[j]])

    extend([], list(range(len(units))))
    return out


@pytest.mark.parametrize(
    "n,symmetry",
    [(5, Symmetry.NONE), (6, Symmetry.NONE), (7, Symmetry.NONE),
     (3, Symmetry.AXIAL), (4, Symmetry.AXIAL), (3, Symmetry.CENTRAL), (4, Symmetry.CENTRAL)],
)
def test_subdivisions_match_backtracking_in_order(n, symmetry):
    orderings = enumerate_orderings(n, symmetry)
    for alpha in orderings[:: max(1, len(orderings) // 6)]:
        assert enumerate_subdivisions(alpha) == enumerate_subdivisions_reference(alpha)
