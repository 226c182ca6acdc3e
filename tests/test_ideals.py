"""u-equation ideal construction: the worked doubled-hexagon example, the
4-cycle, degenerate inputs, the stratification spot checks, and the
polygon symmetries of the ideals."""

from collections import Counter

import pytest

from utrop.errors import InvalidArgumentError
from utrop.ualgebra import (
    CompatibilitySpec,
    ConeCertifier,
    Ideal,
    binary_ideal,
    groebner_basis,
    ideal_a,
    ideal_c,
)
from utrop.ualgebra.ideals import ideal_symmetries, permute_poly, permute_weight
from utrop.ualgebra.poly import Poly, grevlex, primitive


def poly_of(ideal, text_form):
    return {g.text(list(ideal.variables)) for g in ideal.generators} >= {text_form}


def test_four_cycle_example():
    spec = CompatibilitySpec.make(
        vertices=(1, 2, 3, 4),
        edges=[(1, 2), (2, 3), (3, 4), (4, 1)],
        degrees={(1, 3): 1, (2, 4): 1},
    )
    ideal = binary_ideal(spec)
    assert len(ideal.generators) == 4  # one per vertex, duplicates kept
    distinct = {frozenset(g.terms.items()) for g in ideal.generators}
    assert len(distinct) == 2
    texts = {g.text(list(ideal.variables)) for g in ideal.generators}
    assert texts == {"u1 + u3 - 1", "u2 + u4 - 1"}


def test_single_vertex_degenerate():
    spec = CompatibilitySpec.make(vertices=(1,), edges=[], degrees={})
    ideal = binary_ideal(spec)
    assert [g.text(["u1"]) for g in ideal.generators] == ["u1"]
    # the ideal holds the monomial u1, so no weight lies in its tropicalization
    assert not ConeCertifier(ideal, (0,)).monomial_free


def test_two_vertex_no_edge():
    spec = CompatibilitySpec.make(vertices=("a", "b"), edges=[], degrees={("a", "b"): 1})
    ideal = binary_ideal(spec)
    assert len(ideal.generators) == 2  # one per vertex, equal as polynomials
    texts = {g.text(["ua", "ub"]) for g in ideal.generators}
    assert texts == {"ua + ub - 1"}


def test_ideal_c3_matches_worked_example():
    ideal = ideal_c(3)
    assert ideal.variables == ("u1xm1", "u2xm2", "u3xm3", "u1x3", "u1xm2", "u2xm3")
    texts = set(ideal.text())
    assert "u2xm2*u3xm3*u2xm3^2 + u1xm1 - 1" in texts
    assert "u2xm2*u1xm2*u2xm3 + u1x3 - 1" in texts
    assert len(ideal.generators) == 6


def test_ideal_c3_closed_under_rotation():
    # the successor substitution (with orbit renormalization) permutes the
    # six generators
    from utrop.fans import index_set, normalize_c_pair, successor

    ideal = ideal_c(3)
    D = index_set("c", 3)
    perm = {}
    for k, (i, j) in enumerate(D.pairs):
        target = normalize_c_pair(successor(i, 3), successor(j, 3), 3)
        perm[k] = D.pairs.index(target)

    def rotate(p):
        return Poly(
            p.nvars,
            {
                tuple(m[next(k for k in perm if perm[k] == t)] for t in range(p.nvars)): c
                for m, c in p.terms.items()
            },
        )

    gens = {frozenset(g.terms.items()) for g in ideal.generators}
    for g in ideal.generators:
        rotated = rotate(g)
        assert frozenset(rotated.terms.items()) in gens


def test_ideal_a4():
    ideal = ideal_a(4)
    distinct = {frozenset(g.terms.items()) for g in ideal.generators}
    assert len(distinct) == 1
    assert ideal.generators[0].text(list(ideal.variables)) == "u1x3 + u2x4 - 1"


def test_ideal_a5_membership():
    ideal = ideal_a(5)
    assert len(ideal.generators) == 5
    texts = set(ideal.text())
    assert "u2x4*u2x5 + u1x3 - 1" in texts


def test_range_validation():
    with pytest.raises(InvalidArgumentError):
        ideal_a(3)
    with pytest.raises(InvalidArgumentError):
        ideal_c(2)


def test_degrees_cover_non_edges_exactly():
    with pytest.raises(InvalidArgumentError):
        CompatibilitySpec.make(vertices=(1, 2, 3), edges=[(1, 2)], degrees={(1, 3): 1})
    with pytest.raises(InvalidArgumentError):
        CompatibilitySpec.make(
            vertices=(1, 2, 3), edges=[(1, 2)], degrees={(1, 3): 1, (2, 3): 0}
        )


def test_ideal_json_round_trip():
    for ideal in (ideal_a(5), ideal_c(3)):
        back = Ideal.from_json(ideal.to_json())
        assert back.variables == ideal.variables
        assert back.generators == ideal.generators
        assert back.index_set == ideal.index_set


def test_ideal_from_json_rejects_a_repeated_monomial():
    obj = ideal_c(3).to_json()
    obj["generators"][0].append(list(obj["generators"][0][0]))
    with pytest.raises(InvalidArgumentError, match="twice"):
        Ideal.from_json(obj)


def test_ideal_from_json_rejects_a_zero_denominator():
    obj = ideal_c(3).to_json()
    obj["generators"][0][0][2] = 0
    with pytest.raises(InvalidArgumentError, match="denominator 0"):
        Ideal.from_json(obj)


def test_ideal_from_json_names_a_missing_field():
    good = ideal_c(3).to_json()
    for field in ("variables", "generators"):
        with pytest.raises(InvalidArgumentError, match=f"missing field '{field}'"):
            Ideal.from_json({k: v for k, v in good.items() if k != field})
    obj = {**good, "index_set": {k: v for k, v in good["index_set"].items() if k != "n"}}
    with pytest.raises(InvalidArgumentError, match="missing field 'n'"):
        Ideal.from_json(obj)


def test_ideal_from_json_rejects_an_index_set_of_the_wrong_length():
    obj = ideal_c(3).to_json()
    obj["index_set"] = ideal_a(5).to_json()["index_set"]  # 5 pairs, 6 variables
    with pytest.raises(InvalidArgumentError, match="5 pairs for 6 variables"):
        Ideal.from_json(obj)


def _substitute_zero(ideal, positions):
    gens = [g.substitute({k: 0 for k in positions}) for g in ideal.generators]
    return [g for g in gens if g]


def _solved_point_or_unit(gens, nvars):
    basis = groebner_basis([primitive(g)[0] for g in gens], grevlex(nvars))
    if basis == [{(0,) * nvars: 1}]:
        return "unit"
    # single rational point: every basis element is linear in one variable
    pinned = {}
    for b in basis:
        items = sorted(b.items(), key=lambda mc: sum(mc[0]))
        if len(items) > 2 or sum(items[-1][0]) != 1:
            return "other"
        var = items[-1][0].index(1)
        pinned[var] = True
    return "point" if pinned else "other"


def test_stratification_spot_checks_four_cycle():
    # facets of the 4-cycle restrict the variety to a single point;
    # non-faces empty it out
    spec = CompatibilitySpec.make(
        vertices=(1, 2, 3, 4),
        edges=[(1, 2), (2, 3), (3, 4), (4, 1)],
        degrees={(1, 3): 1, (2, 4): 1},
    )
    ideal = binary_ideal(spec)
    facets = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for fac in facets:
        assert _solved_point_or_unit(_substitute_zero(ideal, fac), 4) == "point"
    for nonface in [(0, 2), (1, 3)]:
        assert _solved_point_or_unit(_substitute_zero(ideal, nonface), 4) == "unit"


def test_stratification_spot_checks_pentagon():
    ideal = ideal_a(5)
    D = ideal.index_set.pairs
    from utrop.symtrees import Diagonal

    def crossing(p, q):
        d1 = Diagonal.make(p[0] - 1, p[1] - 1, 5)
        d2 = Diagonal.make(q[0] - 1, q[1] - 1, 5)
        return d1.crosses(d2)

    for a in range(5):
        for b in range(a + 1, 5):
            kind = _solved_point_or_unit(_substitute_zero(ideal, (a, b)), 5)
            if crossing(D[a], D[b]):
                assert kind == "unit"
            else:
                assert kind == "point"


@pytest.mark.parametrize(
    "make,n,order", [(ideal_c, 3, 6), (ideal_c, 4, 8), (ideal_a, 5, 10), (ideal_a, 6, 12)]
)
def test_ideal_symmetries_are_the_polygon_group(make, n, order):
    # the dihedral group of the n-gon, or of the 2n-gon modulo its centre,
    # acts faithfully on the coordinates and fixes the generator multiset
    ideal = make(n)
    group = ideal_symmetries(ideal)
    assert len(group) == len(set(group)) == order
    assert group[0] == tuple(range(ideal.nvars))
    gens = Counter(ideal.generators)
    for perm in group:
        assert sorted(perm) == list(range(ideal.nvars))
        assert Counter(permute_poly(g, perm) for g in ideal.generators) == gens


def test_ideal_symmetries_check_the_coefficients():
    # a changed coefficient breaks every symmetry that moves its generator
    ideal = ideal_c(3)
    g = ideal.generators[4]
    changed = Poly(g.nvars, {m: 2 * c if sum(m) == 0 else c for m, c in g.terms.items()})
    gens = ideal.generators[:4] + (changed,) + ideal.generators[5:]
    mutated = Ideal(ideal.variables, gens, ideal.index_set)
    kept = [p for p in ideal_symmetries(ideal) if permute_poly(changed, p) == changed]
    assert ideal_symmetries(mutated) == kept
    assert 1 <= len(kept) < 6


def test_ideal_without_index_set_has_only_the_identity():
    ideal = binary_ideal(
        CompatibilitySpec.make(
            vertices=(1, 2, 3, 4),
            edges=[(1, 2), (2, 3), (3, 4), (4, 1)],
            degrees={(1, 3): 1, (2, 4): 1},
        )
    )
    assert ideal.index_set is None
    assert ideal_symmetries(ideal) == [(0, 1, 2, 3)]


def test_permuted_monomials_keep_their_weight():
    perm, w = (2, 0, 1), (5, -1, 3)
    p = Poly(3, {(1, 0, 2): 1, (0, 3, 0): -2})
    image = permute_poly(p, perm)
    assert image == Poly(3, {(0, 2, 1): 1, (3, 0, 0): -2})
    assert permute_weight(w, perm) == (-1, 3, 5)
    weight = lambda m, v: sum(a * b for a, b in zip(m, v))
    assert sorted(weight(m, w) for m in p.terms) == sorted(
        weight(m, permute_weight(w, perm)) for m in image.terms
    )
