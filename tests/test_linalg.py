"""The integer kernels of ``utrop.linalg`` against rational references.

``_echelon_ref`` and ``_solve_nonneg_ref`` are the Fraction Gauss-Jordan and
phase-1 simplex loops the integer kernels replaced.  The integer kernels
scale rows by positive integers only, so they must take the same pivots and
return identical values, not merely agree on rank or feasibility.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from utrop.linalg import extend_echelon, rank, solve_nonneg


def _echelon_ref(rows):
    """Row-reduce a copy of ``rows``; returns (echelon_rows, pivot_cols)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _rank_ref(rows):
    return len(_echelon_ref(rows)[0])


def _solve_nonneg_ref(mat, rhs):
    """Phase-1 simplex with Bland's rule on a Fraction tableau."""
    m = len(mat)
    if m == 0:
        return []
    n = len(mat[0])
    A = [[Fraction(x) for x in row] for row in mat]
    b = [Fraction(x) for x in rhs]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    tab = [A[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= tab[i][j]

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [
            (tab[i][-1] / tab[i][enter], basis[i], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            return None
        _, _, leave = min(ratios)
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * c for a, c in zip(tab[i], tab[leave])]
        f = cost[enter]
        if f != 0:
            cost = [a - f * c for a, c in zip(cost, tab[leave])]
        basis[leave] = enter

    if -cost[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
        elif tab[i][-1] != 0:
            return None
    return x


def _entry(rng, fractional):
    num = rng.randint(-4, 4)
    if not fractional or rng.random() < 0.4:
        return num
    return Fraction(num, rng.choice([1, 2, 3, 4, 6, 7, 9]))


def _random_matrix(rng, m, n, fractional):
    mat = [[_entry(rng, fractional) for _ in range(n)] for _ in range(m)]
    for row in mat:  # zero rows
        if rng.random() < 0.1:
            row[:] = [0] * n
    if m > 1 and rng.random() < 0.2:  # a dependent row
        i, j = rng.sample(range(m), 2)
        c = _entry(rng, fractional)
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    return mat


def _random_lp(rng, fractional):
    m, n = rng.randint(1, 5), rng.randint(1, 6)
    mat = _random_matrix(rng, m, n, fractional)
    if rng.random() < 0.5:  # feasible by construction
        x0 = [rng.choice([0, 0, 1, 2, Fraction(1, 3)]) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in mat]
    else:  # often infeasible, with negative entries
        rhs = [_entry(rng, fractional) for _ in range(m)]
    return mat, rhs


def _check_solution(mat, rhs, x):
    assert len(x) == len(mat[0])
    assert all(isinstance(v, Fraction) and v >= 0 for v in x)
    for row, b in zip(mat, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b


def test_rank_matches_rational_elimination():
    rng = random.Random(20240501)
    for trial in range(3000):
        m, n = rng.randint(0, 5), rng.randint(0, 6)
        mat = _random_matrix(rng, m, n, fractional=trial % 2 == 1)
        assert rank(mat) == _rank_ref(mat), mat


def test_solve_nonneg_matches_rational_simplex():
    rng = random.Random(20240502)
    feasible = 0
    for trial in range(3000):
        mat, rhs = _random_lp(rng, fractional=trial % 2 == 1)
        got = solve_nonneg(mat, rhs)
        assert got == _solve_nonneg_ref(mat, rhs), (mat, rhs)
        if got is not None:
            feasible += 1
            _check_solution(mat, rhs, got)
    # both outcomes are exercised
    assert 500 < feasible < 2500


def test_edge_cases():
    assert rank([]) == 0
    assert rank([[]]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[5]]) == 1
    assert rank([[Fraction(1, 3), Fraction(2, 3)], [1, 2]]) == 1
    assert solve_nonneg([], []) == []
    assert solve_nonneg([[2]], [3]) == [Fraction(3, 2)]
    assert solve_nonneg([[2]], [-3]) is None
    assert solve_nonneg([[-2]], [-3]) == [Fraction(3, 2)]
    assert solve_nonneg([[0]], [0]) == [Fraction(0)]
    assert solve_nonneg([[0]], [1]) is None
    assert solve_nonneg([[0, 0], [1, 1]], [0, 1]) == _solve_nonneg_ref([[0, 0], [1, 1]], [0, 1])
    # a pairwise-intersection system: the rays (1, 0) and (0, 1) meet only
    # at the origin, while (1, 0) and (2, 0) overlap
    assert solve_nonneg([[1, 0], [0, -1], [1, 1]], [0, 0, 1]) is None
    assert solve_nonneg([[1, -2], [0, 0], [1, 1]], [0, 0, 1]) == [Fraction(2, 3), Fraction(1, 3)]


def test_solve_nonneg_negative_rhs_with_fraction_rows():
    # rows with mixed denominators and a negative right-hand side: the row is
    # cleared to integers, then negated, while its artificial column keeps
    # the positive scale of the cleared row
    mat = [[Fraction(-1, 2), Fraction(1, 3), Fraction(2, 7), 0], [Fraction(2, 3), Fraction(-3, 4), 0, -1], [1, 1, 1, 1]]
    rhs = [Fraction(-7, 36), Fraction(-1, 8), Fraction(1)]
    x = [Fraction(1, 2), Fraction(1, 6), Fraction(0), Fraction(1, 3)]
    assert solve_nonneg(mat, rhs) == _solve_nonneg_ref(mat, rhs) == x
    _check_solution(mat, rhs, x)


_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@st.composite
def _lps(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    mat = draw(st.lists(st.lists(_rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(_rationals, min_size=m, max_size=m))
    return mat, rhs


@settings(max_examples=200, deadline=None)
@given(_lps())
def test_solve_nonneg_property(lp):
    mat, rhs = lp
    got = solve_nonneg(mat, rhs)
    assert got == _solve_nonneg_ref(mat, rhs)
    assert rank(mat) == _rank_ref(mat)
    if got is not None:
        _check_solution(mat, rhs, got)


@st.composite
def _integer_matrices(draw):
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return draw(st.lists(row, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_integer_matrices())
def test_extend_echelon_folds_to_the_rank(rows):
    # small entries and few columns make rows in the span of earlier ones common
    echelon = ()
    for i, row in enumerate(rows):
        extended = extend_echelon(echelon, row)
        assert (extended is None) == (_rank_ref(rows[: i + 1]) == _rank_ref(rows[:i]))
        echelon = extended or echelon
    assert len(echelon) == _rank_ref(rows)
