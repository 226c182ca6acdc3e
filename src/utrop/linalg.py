"""Small exact linear algebra over the rationals: rank and nonnegative
feasibility (phase-1 simplex with Bland's rule).

Everything works on lists of ``fractions.Fraction`` (plain ints are fine
too); matrices are lists of row lists.  Sizes in this package stay in the
tens, so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction


def _echelon(rows):
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


def rank(rows) -> int:
    if not rows:
        return 0
    return len(_echelon(rows)[0])


def solve_nonneg(mat, rhs):
    """An ``x >= 0`` with ``mat @ x == rhs``, or None if infeasible.

    Phase-1 simplex over exact rationals; Bland's rule guarantees
    termination.
    """
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
    # tableau columns: n structural + m artificial + rhs
    tab = [A[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # objective: minimize sum of artificials; reduced-cost row
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
            return None  # unbounded phase-1 cannot happen, defensive
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

    if -cost[-1] != 0:  # optimum of artificial sum
        return None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
        elif tab[i][-1] != 0:
            return None  # artificial stuck at positive level
    return x
