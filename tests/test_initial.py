"""Weighted initial ideals against a brute-force oracle.

The oracle never runs a weighted Groebner computation.  It spans a
degree-bounded slice of the ideal by monomial multiples of the generators,
then walks the weight filtration of that span with exact Gaussian
elimination: at each weight level it collects the initial forms of the
subspace whose lower-weight components vanish.  The ideal generated by all
of those initial forms is compared with the implementation's output by
mutual normal-form reduction.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from test_groebner import forms, homogenized
from utrop.errors import GroebnerBudgetError
from utrop.ualgebra import (
    Ideal,
    ConeCertifier,
    NormalFormCalculator,
    groebner_basis,
    ideal_a,
    initial_ideal,
    initial_part,
    is_monomial_free,
    sign_twist,
)
from utrop.ualgebra.groebner import reduced_basis
from utrop.ualgebra.poly import Poly, grevlex, weighted_order


def monomials_up_to(nvars, cap):
    for combo in itertools.product(range(cap + 1), repeat=nvars):
        if sum(combo) <= cap:
            yield combo


def rref(rows):
    """Reduced row echelon form up to row scaling, fraction-free.

    Returns the nonzero rows as integer lists, in pivot order; each is a
    nonzero multiple of the row of ``rref_fraction`` with the same pivot
    (the reduced echelon form of a row space is unique).  Rows are kept
    sparse as ``{column: value}``.  An update ``p * row - f * pivot_row``
    scales the row's own entries and then touches only the pivot row's
    nonzero columns; the result is divided by its gcd.
    """
    ncols = len(rows[0]) if rows else 0
    pending = []
    for r in rows:
        d = math.lcm(*(Fraction(x).denominator for x in r))
        row = {c: int(x * d) for c, x in enumerate(r) if x}
        if row:
            pending.append(row)
    done = []
    for c in range(ncols):
        hits = [row for row in pending if c in row]
        if not hits:
            continue
        pivot_row = min(hits, key=len)  # the sparsest row adds the least fill
        pending.remove(pivot_row)
        pending = [_eliminate(row, pivot_row, c) if c in row else row for row in pending]
        pending = [row for row in pending if row]  # dependent rows vanish
        done = [_eliminate(row, pivot_row, c) if c in row else row for row in done]
        done.append(pivot_row)
        if not pending:
            break
    return [[row.get(c, 0) for c in range(ncols)] for row in done]


def _eliminate(row, pivot_row, c):
    """The row ``p * row - f * pivot_row``, which is zero in column ``c``,
    divided by its gcd; ``p`` and ``f`` are the two rows' entries in ``c``
    divided by their gcd."""
    g = math.gcd(pivot_row[c], row[c])
    p, f = pivot_row[c] // g, row[c] // g
    out = {k: p * v for k, v in row.items()} if p != 1 else dict(row)
    for k, v in pivot_row.items():
        w = out.get(k, 0) - f * v
        if w:
            out[k] = w
        else:
            del out[k]
    g = math.gcd(*out.values())
    return {k: v // g for k, v in out.items()} if g > 1 else out


def rref_fraction(rows):
    """Reduced row echelon form over Fraction; returns the nonzero rows.
    The reference for ``rref``."""
    mat = [list(map(Fraction, r)) for r in rows]
    lead = 0
    out = []
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return [row for row in mat if any(x != 0 for x in row)]


def test_integer_rref_rows_are_multiples_of_the_fraction_rows():
    rng = random.Random(2024)
    entries = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    for _ in range(300):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 8)
        rows = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:  # a dependent row
            k = rng.choice(entries[3:])
            rows.append([k * x for x in rows[0]])
        got, ref = rref(rows), rref_fraction(rows)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert all(isinstance(x, int) for x in g)
            pivot = next(i for i, x in enumerate(r) if x)
            assert next(i for i, x in enumerate(g) if x) == pivot
            assert [x * r[pivot] for x in g] == [g[pivot] * x for x in r]


def degree_slice_basis(ideal, cap):
    """Exact basis of the ideal's degree-<=cap slice as polynomials.

    Membership of a combination of monomials is a linear condition on the
    normal forms against an unweighted grevlex basis, so the slice is a
    kernel computation; no weighted machinery is involved.
    """
    nvars = ideal.nvars
    order = grevlex(nvars)
    nf = NormalFormCalculator(groebner_basis(forms(ideal.generators), order), order)
    monos = sorted(monomials_up_to(nvars, cap))
    images = [nf.reduce({m: 1}) for m in monos]
    support = sorted({m for img, _ in images for m in img})
    row_of = {m: i for i, m in enumerate(support)}
    # kernel of the (support x monomials) matrix via rref of its transpose
    # augmented with the identity: rows with vanishing image part encode
    # kernel combinations
    aug = []
    for j, (img, scale) in enumerate(images):
        row = [Fraction(0)] * len(support)
        for m, c in img.items():
            row[row_of[m]] = Fraction(c, scale)
        aug.append(row + [Fraction(int(j == k)) for k in range(len(monos))])
    basis = []
    for r in rref(aug):
        if all(x == 0 for x in r[: len(support)]):
            coeffs = r[len(support) :]
            basis.append(
                Poly(nvars, {m: c for m, c in zip(monos, coeffs) if c})
            )
    return basis


def oracle_initial_ideal(ideal, w, cap=6):
    """Initial forms of the exact degree-<=cap slice of the ideal.

    With columns sorted by increasing weight, the rows of a fully reduced
    echelon form have zeros left of their pivots, so the combinations whose
    sub-threshold components vanish are spanned exactly by the rows whose
    pivot weight reaches the threshold; the initial forms of the slice are
    therefore the weight-level components of the echelon rows at their own
    pivot weights.
    """
    nvars = ideal.nvars
    slice_basis = degree_slice_basis(ideal, cap)
    if not slice_basis:
        return Ideal(ideal.variables, tuple())
    monos = sorted({m for p in slice_basis for m in p.terms})
    weight_of = {m: sum(Fraction(x) * e for x, e in zip(w, m)) for m in monos}
    cols = sorted(monos, key=lambda m: (weight_of[m], m))
    col_of = {m: i for i, m in enumerate(cols)}
    rows = []
    for p in slice_basis:
        row = [Fraction(0)] * len(cols)
        for m, c in p.terms.items():
            row[col_of[m]] = c
        rows.append(row)
    generators = []
    for r in rref(rows):
        pivot = next(i for i, x in enumerate(r) if x != 0)
        level = weight_of[cols[pivot]]
        init_terms = {
            cols[i]: r[i]
            for i in range(len(cols))
            if r[i] != 0 and weight_of[cols[i]] == level
        }
        generators.append(Poly(nvars, init_terms))
    return Ideal(ideal.variables, tuple(generators))


def contains_all(container, elements):
    order = grevlex(container.nvars)
    nf = NormalFormCalculator(groebner_basis(forms(container.generators), order), order)
    return all(not nf.reduce(g)[0] for g in forms(elements))


def ideals_equal(a, b):
    return contains_all(b, a.generators) and contains_all(a, b.generators)


def random_small_ideal(rng):
    nvars = rng.choice([2, 3])
    gens = []
    for _ in range(rng.choice([2, 3])):
        terms = {}
        for _ in range(rng.randrange(2, 5)):
            m = [0] * nvars
            for _ in range(rng.randrange(0, 4)):
                m[rng.randrange(nvars)] += 1
            if sum(m) > 3:
                continue
            terms[tuple(m)] = terms.get(tuple(m), 0) + rng.choice([-2, -1, 1, 2])
        poly = Poly(nvars, {m: c for m, c in terms.items() if c})
        if poly:
            gens.append(poly)
    if not gens:
        gens = [Poly.var(0, nvars) - Poly.const(1, nvars)]
    names = tuple(f"x{i}" for i in range(nvars))
    return Ideal(names, tuple(gens))


N_ORACLE_CASES = 50


@pytest.mark.parametrize("seed", range(N_ORACLE_CASES))
def test_initial_ideal_matches_bruteforce_oracle(seed):
    rng = random.Random(10_000 + seed)
    ideal = random_small_ideal(rng)
    w = tuple(rng.randrange(-3, 4) for _ in range(ideal.nvars))
    got = initial_ideal(ideal, w)
    # the generators are already the reduced grevlex basis of the initial
    # ideal, made monic
    order = grevlex(ideal.nvars)
    assert forms(got.generators) == groebner_basis(forms(got.generators), order)
    assert all(g.terms[order.leading_monomial(g)] == 1 for g in got.generators)
    # start the slice at degree 6; if the implementation's generators need
    # witnesses of higher degree, widen the window (the slice oracle stays
    # exact at every cap, and the inclusion oracle <= implementation is
    # asserted unconditionally)
    for cap in (6, 8, 10, 12):
        oracle = oracle_initial_ideal(ideal, w, cap)
        assert contains_all(got, oracle.generators)
        if contains_all(oracle, got.generators):
            return
    raise AssertionError("implementation output not spanned by the degree-12 slice")


def test_slice_oracle_on_the_doubled_ideal():
    # one-directional check on the production object: every initial form of
    # the degree-4 slice of the doubled ideal lies in the computed initial
    # ideal, at a ray weight and at an edge-interior weight
    from utrop.ualgebra import ideal_c

    ideal = ideal_c(3)
    for w in ((1, 0, 0, 0, 0, 0), (3, 0, 0, -1, -1, 0)):
        got = initial_ideal(ideal, w)
        oracle = oracle_initial_ideal(ideal, w, cap=4)
        assert len(oracle.generators) > 50
        assert contains_all(got, oracle.generators)


def test_initial_part_examples():
    p = Poly(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})
    assert initial_part(p, (1, 0)).terms == {(0, 1): 1, (0, 0): -1}
    assert initial_part(p, (-1, 0)).terms == {(1, 0): 1}
    assert initial_part(p, (0, 0)) == p


def test_initial_ideal_trivial_cases():
    I = Ideal(("u1", "u2"), (Poly(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1}),))
    assert initial_ideal(I, (1, 0)).text() == ["u2 - 1"]
    assert initial_ideal(I, (-1, 0)).text() == ["u1"]
    assert initial_ideal(I, (0, 0)).text() == ["u1 + u2 - 1"]


def test_initial_ideal_at_zero_contains_ideal():
    ideal = ideal_a(5)
    init0 = initial_ideal(ideal, (0,) * 5)
    order = grevlex(5)
    nf = NormalFormCalculator(groebner_basis(forms(init0.generators), order), order)
    for g in forms(ideal.generators):
        assert not nf.reduce(g)[0]


def test_monomial_freeness():
    mk = lambda terms: Poly(2, terms)
    assert is_monomial_free(Ideal(("a", "b"), (mk({(0, 1): 1, (0, 0): -1}),)))
    assert not is_monomial_free(Ideal(("a", "b"), (mk({(1, 0): 1}),)))
    assert not is_monomial_free(
        Ideal(("a", "b"), (mk({(1, 0): 1, (0, 1): 1}), mk({(1, 0): 1, (0, 1): -1})))
    )


def test_certify_trop_examples():
    I4 = ideal_a(4)
    assert ConeCertifier(I4, (0, 2)).monomial_free
    assert not ConeCertifier(I4, (-1, -2)).monomial_free
    assert not ConeCertifier(I4, (1, 2)).monomial_free  # initial ideal is the unit ideal


def test_certify_trop_probe_off_the_candidate_fan():
    # a weight outside the candidate fan's support must fail certification
    from utrop.ualgebra import ideal_c

    assert not ConeCertifier(ideal_c(3), (1, -1, 0, 0, 3, 0)).monomial_free


def test_certify_rejects_monomial_generators():
    # a monomial generator is an answer, not an error: no weight lies in
    # the tropicalization of an ideal that holds a monomial
    bad = Ideal(("a", "b"), (Poly(2, {(1, 0): 1}),))
    assert not ConeCertifier(bad, (0, 0)).monomial_free


def test_sign_twist_involution_and_invariance():
    ideal = ideal_a(5)
    tau = (1, -1, 1, -1, 1)
    twisted = sign_twist(ideal, tau)
    assert sign_twist(twisted, tau).generators == ideal.generators
    all_ones = (1,) * 5
    assert sign_twist(ideal, all_ones).generators == ideal.generators
    # tropicalization is twist-invariant
    for w in [(0, 0, 0, 0, 0), (1, 0, 0, 1, 0), (-1, 0, -1, 0, 0)]:
        assert ConeCertifier(ideal, w).monomial_free == ConeCertifier(twisted, w).monomial_free


def test_sign_twist_flips_odd_occurrences():
    from utrop.ualgebra import ideal_c

    ideal = ideal_c(3)
    tau = (1, 1, 1, 1, -1, 1)  # flip the fifth coordinate
    twisted = sign_twist(ideal, tau)
    idx = 4
    for g, h in zip(ideal.generators, twisted.generators):
        for m, c in g.terms.items():
            expect = -c if m[idx] % 2 else c
            assert h.terms[m] == expect


def raw_generator_initial_ideal(ideal, w):
    """The reduced grevlex basis of in_w(I), as integer forms, from the
    weighted run on the homogenized generators themselves, not on the
    homogenized grevlex basis: initial forms, h set to 1, then
    inter-reduction."""
    n = ideal.nvars
    order = weighted_order(tuple(-x for x in w) + (0,), n + 1)
    gb = groebner_basis(homogenized(ideal.generators), order)
    inits = [initial_part(Poly(n + 1, g), tuple(w) + (0,)) for g in gb]
    return reduced_basis([{m[:-1]: c for m, c in g.items()} for g in forms(inits)], grevlex(n))


@pytest.mark.parametrize("kind,n,step", [("c", 3, 1), ("a", 5, 1), ("a", 6, 9)])
def test_grevlex_start_gives_the_raw_generators_initial_ideal(kind, n, step):
    # in_w(I) depends on I alone, so both generating sets of I^h give the
    # same reduced basis; a6 checks every ``step``-th orbit representative
    from utrop.cli import _candidate_fan, _the_ideal
    from utrop.ualgebra.signed import cone_orbits

    ideal, fan = _the_ideal(kind, n), _candidate_fan(kind, n)
    weights = [fan.interior_point(f) for f in fan.proper_faces()]
    reps = [rep for rep, _ in cone_orbits(ideal, weights)][::step]
    assert len(reps) >= 5
    for w in reps:
        assert forms(initial_ideal(ideal, w).generators) == raw_generator_initial_ideal(ideal, w), w


# the weighted run's counters at each c3 orbit representative, in the order
# of cone_orbits; started from the raw generators they came to 814 pairs
C3_WEIGHTED_STATS = [
    # representative weight      pairs  zero reductions  basis size
    ((0, 0, 2, -1, 0, -1),         8,         8,             7),
    ((-1, -1, 0, 0, 1, 0),         8,         8,             7),
    ((0, 0, 0, 0, 0, 1),           8,         8,             7),
    ((1, 1, 1, -1, -1, -1),        8,         8,             7),
    ((0, 0, 1, 0, 0, 0),          11,        10,             8),
    ((-1, -1, 2, -1, 1, -1),       8,         8,             7),
    ((1, 1, 3, -2, -1, -2),        8,         8,             7),
    ((0, 0, 3, -1, 0, -1),        11,        10,             8),
    ((-1, -1, 0, 0, 2, 0),         8,         8,             7),
    ((-2, -1, -1, 1, 1, 0),        8,         8,             7),
    ((0, 0, 1, 0, 0, 1),          11,        10,             8),
]


def test_c3_weighted_runs_start_from_the_grevlex_basis(fan_c3, ideal_c3):
    from utrop.ualgebra.signed import cone_orbits

    weights = [fan_c3.interior_point(f) for f in fan_c3.proper_faces()]
    assert [rep for rep, _ in cone_orbits(ideal_c3, weights)] == [row[0] for row in C3_WEIGHTED_STATS]
    assert sum(row[1] for row in C3_WEIGHTED_STATS) == 97
    for w, pairs, zeros, size in C3_WEIGHTED_STATS:
        stats = {}
        initial_ideal(ideal_c3, w, stats=stats)
        assert stats == {"pairs": pairs, "zero_reductions": zeros, "basis_size": size}, w


def test_grevlex_memo_keeps_each_budget_apart(ideal_c3):
    # a basis finished under the default budget must not rescue a call whose
    # budget its grevlex run exceeds, whichever of the two ran first
    from utrop.ualgebra.initial import _GREVLEX_BASES

    w = (0, 0, 1, 0, 0, 0)

    def starved():
        stats = {}
        with pytest.raises(GroebnerBudgetError) as err:
            initial_ideal(ideal_c3, w, 1, stats)
        return stats, err.value.stats, str(err.value)

    _GREVLEX_BASES.clear()
    first = starved()
    initial_ideal(ideal_c3, w)
    assert starved() == first
    assert first[0] == first[1] == {"pairs": 1, "zero_reductions": 0, "basis_size": 7}
