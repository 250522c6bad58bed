"""Exact simplex for integer-data LPs.

Solves  max c.x  s.t.  A x <= b,  x >= 0  with all-integer data and b >= 0
(the all-slack basis is feasible, so no phase I is needed).  The tableau is
kept as an integer matrix with a single common denominator ("integer
pivoting"), so every intermediate quantity and the optimum are exact
rationals; Bland's rule rules out cycling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SolverLimitError

PIVOT_LIMIT = 20_000


@dataclass
class LpResult:
    value: Fraction
    x: list  # Fractions, structural variables only
    pivots: int


class Unbounded(SolverLimitError):
    """The LP is unbounded above (cannot happen for well-formed models)."""


def solve_lp_max(c, rows, rhs) -> LpResult:
    """Maximize c.x subject to rows.x <= rhs, x >= 0 (exact arithmetic)."""
    m = len(rows)
    n = len(c)
    if any(b < 0 for b in rhs):
        raise ValueError("rhs must be non-negative (all-slack start)")

    # tableau: m constraint rows + 1 objective row; columns: n structural,
    # m slacks, 1 rhs.  Entries are ints over the common denominator `den`.
    width = n + m + 1
    tab = np.zeros((m + 1, width), dtype=object)
    for i in range(m):
        row = rows[i]
        for j in range(n):
            tab[i, j] = int(row[j])
        tab[i, n + i] = 1
        tab[i, -1] = int(rhs[i])
    for j in range(n):
        tab[m, j] = -int(c[j])
    den = 1

    basis = list(range(n, n + m))
    pivots = 0
    ncols = n + m
    # Dantzig's rule is fast in practice; Bland's rule (smallest index) takes
    # over after a stall budget so cycling cannot occur.
    bland_after = 12 * (m + n) + 200

    while True:
        objrow = tab[m, :ncols]
        neg = np.flatnonzero(objrow < 0)
        if neg.size == 0:
            break  # optimal
        if pivots < bland_after:
            col = int(neg[int(np.argmin(objrow[neg]))])
        else:
            col = int(neg[0])

        # ratio test on rows with positive pivot column entry
        cand = np.flatnonzero(tab[:m, col] > 0)
        if cand.size == 0:
            raise Unbounded("LP relaxation is unbounded")
        row = -1
        best_num = best_den = None
        for i in cand:
            a = tab[i, col]
            num = tab[i, -1]
            if row < 0 or num * best_den < best_num * a or (
                    num * best_den == best_num * a and basis[i] < basis[row]):
                row, best_num, best_den = int(i), num, a

        pivots += 1
        if pivots > PIVOT_LIMIT:
            raise SolverLimitError(f"simplex exceeded {PIVOT_LIMIT} pivots")

        piv = tab[row, col]
        pivot_row = tab[row].copy()
        colvals = tab[:, col].copy()
        # integer pivoting: exact division by the previous denominator
        tab *= piv
        tab -= np.outer(colvals, pivot_row)
        tab //= den
        tab[row] = pivot_row
        den = piv
        basis[row] = col

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(int(tab[i, -1]), int(den))
    return LpResult(Fraction(int(tab[m, -1]), int(den)), x, pivots)
