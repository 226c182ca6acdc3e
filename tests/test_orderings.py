"""Dihedral ordering enumeration and canonicalization."""

import math

import pytest

from utrop.errors import InvalidArgumentError
from utrop.symtrees import (
    DihedralOrdering,
    Symmetry,
    canonical_cycle,
    canonical_cycle_with_transform,
    enumerate_orderings,
)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_plain_counts(n):
    assert len(enumerate_orderings(n)) == math.factorial(n - 1) // 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_axial_counts(n):
    assert len(enumerate_orderings(n, Symmetry.AXIAL)) == 2 ** (n - 2) * math.factorial(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_central_counts(n):
    assert len(enumerate_orderings(n, Symmetry.CENTRAL)) == 2 ** (n - 2) * math.factorial(n - 1)


def test_small_n_rejected():
    with pytest.raises(InvalidArgumentError):
        enumerate_orderings(2)


def test_canonical_is_least_over_dihedral_action():
    seq = (3, 1, -2, 2, -1, -3)
    canon = canonical_cycle(seq)
    rev = tuple(reversed(seq))
    images = [seq[i:] + seq[:i] for i in range(6)] + [rev[i:] + rev[:i] for i in range(6)]
    assert canon == min(images)
    assert all(canonical_cycle(img) == canon for img in images)


def test_canonical_transform_consistent():
    seq = (2, -1, 3, 1, -3, -2)
    canon, flip, shift = canonical_cycle_with_transform(seq)
    m = len(seq)
    if flip:
        rebuilt = tuple(seq[(shift - p) % m] for p in range(m))
    else:
        rebuilt = tuple(seq[(p + shift) % m] for p in range(m))
    assert rebuilt == canon == canonical_cycle(seq)


def test_axial_never_central():
    # a doubled ordering cannot carry both symmetries
    axial = {a.labels for a in enumerate_orderings(4, Symmetry.AXIAL)}
    central = {a.labels for a in enumerate_orderings(4, Symmetry.CENTRAL)}
    assert not axial & central


def test_symmetry_flag_validated():
    with pytest.raises(InvalidArgumentError):
        DihedralOrdering.make([1, 2, 3, -1, -2, -3], Symmetry.AXIAL)
    with pytest.raises(InvalidArgumentError):
        DihedralOrdering.make([1, 2, 3, -3, -2, -1], Symmetry.CENTRAL)
    # and the true assignments pass
    DihedralOrdering.make([1, 2, 3, -1, -2, -3], Symmetry.CENTRAL)
    DihedralOrdering.make([1, 2, 3, -3, -2, -1], Symmetry.AXIAL)


def test_labels_validated():
    with pytest.raises(InvalidArgumentError):
        DihedralOrdering.make([1, 2, 2])
    with pytest.raises(InvalidArgumentError):
        DihedralOrdering.make([0, 1, 2])


def test_json_round_trip():
    for alpha in enumerate_orderings(4, Symmetry.CENTRAL):
        assert DihedralOrdering.from_json(alpha.to_json()) == alpha


def test_from_json_names_a_missing_field_and_rejects_an_unknown_symmetry():
    good = enumerate_orderings(3, Symmetry.AXIAL)[0].to_json()
    for field in ("labels", "symmetry"):
        with pytest.raises(InvalidArgumentError, match=f"missing field '{field}'"):
            DihedralOrdering.from_json({k: v for k, v in good.items() if k != field})
    with pytest.raises(InvalidArgumentError, match="unknown symmetry 'diagonal'"):
        DihedralOrdering.from_json({**good, "symmetry": "diagonal"})


@pytest.mark.parametrize("n", [3, 4, 5])
def test_symmetry_map_is_the_label_negating_involution(n):
    orderings = [a for sym in (Symmetry.AXIAL, Symmetry.CENTRAL) for a in enumerate_orderings(n, sym)]
    plain = enumerate_orderings(n)[:3] + [DihedralOrdering.make(range(1, 2 * n + 1))]
    for alpha in orderings + plain:
        g, m, lab = alpha.symmetry_map(), alpha.size, alpha.labels
        assert sorted(g) == list(range(m))
        assert all(g[g[k]] == k for k in range(m))
        fixed = [k for k in range(m) if g[k] == k]
        if alpha.symmetry is Symmetry.NONE:
            assert g == tuple(range(m))
            continue
        # neighbours go to neighbours, and edge p (between vertices p-1 and
        # p) goes to the edge between their images, which carries -labels[p]
        for p in range(m):
            u, v = g[p - 1], g[p]
            assert (v - u) % m in (1, m - 1)
            assert lab[v if (v - u) % m == 1 else u] == -lab[p]
        if alpha.symmetry is Symmetry.AXIAL:
            assert len(fixed) == 2 and fixed[1] - fixed[0] == m // 2
        else:
            assert fixed == []


def test_symmetry_map_is_none_without_the_symmetry():
    for labels in ((1, 2, 3, -1, -2, -3), (1, 2, -1, -2, 3, -3)):
        assert DihedralOrdering(labels, Symmetry.AXIAL).symmetry_map() is None
    for labels in ((1, 2, 3, -3, -2, -1), (1, 2, 3, 4, 5, 6), (1, 2, 3, -1, -2)):
        assert DihedralOrdering(labels, Symmetry.CENTRAL).symmetry_map() is None
