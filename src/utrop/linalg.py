"""Small exact linear algebra over the rationals: echelon forms and rank,
and nonnegative feasibility (phase-1 simplex with Bland's rule).

``rank`` and ``solve_nonneg`` take lists of row lists of ``int`` or
``fractions.Fraction``; ``extend_echelon`` takes integer rows.  Every
kernel runs on integer rows only: each input row is first multiplied by
the common denominator of its entries (``solve_nonneg`` then negates, in
integers, a row whose right-hand side is negative), and each row update is
done fraction-free (Bareiss-style, ``p * row_i - f * row_r`` with the
pivot ``p``) and followed by division by the row's gcd, which keeps the
entries small.  A positive scaling of a row changes no sign and no ratio
of its entries, so the elimination takes exactly the pivots a rational
Gauss-Jordan or simplex loop would take, and ``solve_nonneg`` returns the
same ``x``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integer_row(row) -> list[int]:
    """``row`` times the common denominator of its entries."""
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row]


def _reduced(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(row: list[int], pivot_row: list[int], col: int) -> list[int]:
    """``pivot_row[col] * row - row[col] * pivot_row`` divided by its gcd,
    which is zero in ``col``.  For a positive pivot entry it is a positive
    multiple of the rational row update."""
    p, f = pivot_row[col], row[col]
    return _reduced([p * a - f * b for a, b in zip(row, pivot_row)])


def extend_echelon(echelon: tuple, row) -> tuple | None:
    """``echelon`` with the integer ``row`` added, or None if ``row`` lies
    in its span.

    An echelon form is a tuple of ``(pivot column, row)`` pairs in which
    each row is zero in the pivot columns of the rows before it.  ``row`` is
    reduced against each pair in turn; a reduction touches no earlier pivot
    column, so what is left is zero in every pivot column, and it is zero
    iff ``row`` is in the span.  Otherwise its first nonzero column is a
    new pivot.
    """
    for col, pivot_row in echelon:
        if row[col]:
            row = _eliminate(row, pivot_row, col)
    col = next((c for c, x in enumerate(row) if x), None)
    return None if col is None else (*echelon, (col, row))


def rank(rows) -> int:
    echelon = ()
    for row in rows:
        echelon = extend_echelon(echelon, _integer_row(row)) or echelon
    return len(echelon)


def solve_nonneg(mat, rhs):
    """An ``x >= 0`` with ``mat @ x == rhs``, or None if infeasible.

    Phase-1 simplex with Bland's rule, which guarantees termination.  The
    tableau holds row ``i`` of the rational tableau times some positive
    integer ``s_i``, and the cost row likewise, so basic variable ``bv`` of
    row ``i`` has the entry ``s_i`` and the value ``rhs_i / s_i``.
    """
    m = len(mat)
    if m == 0:
        return []
    n = len(mat[0])
    tab = []
    for i in range(m):
        artificial = [int(i == j) for j in range(m)]
        # clearing denominators puts the row's scale in its artificial column
        row = _integer_row([*mat[i], *artificial, rhs[i]])
        if row[-1] < 0:  # flip the equation; the artificial column stays positive
            row[:n] = [-x for x in row[:n]]
            row[-1] = -row[-1]
        tab.append(row)
    # cost row: minus the sum of the rational rows, times the lcm of the scales
    scale = lcm(*(row[n + i] for i, row in enumerate(tab)))
    cost = [0] * (n + m + 1)
    for i, row in enumerate(tab):
        f = scale // row[n + i]
        cost = [c - f * a for c, a in zip(cost, row)]
    cost = _reduced(cost)
    basis = [n + i for i in range(m)]

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        # Bland's rule: least ratio rhs/entry over positive entries, ties
        # to the least basic variable; compared by cross-multiplication
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                here = tab[i][-1] * tab[leave][enter]
                best = tab[leave][-1] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return None  # unbounded phase-1 cannot happen, defensive
        prow = tab[leave]
        for i in range(m):
            if i != leave and tab[i][enter]:
                tab[i] = _eliminate(tab[i], prow, enter)
        if cost[enter]:
            cost = _eliminate(cost, prow, enter)
        basis[leave] = enter

    if cost[-1] != 0:  # optimum of artificial sum
        return None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(tab[i][-1], tab[i][bv])
        elif tab[i][-1] != 0:
            return None  # artificial stuck at positive level
    return x
