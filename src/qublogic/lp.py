"""Two-phase tableau simplex over exact rationals.

Sized for the order-representability problems this package solves (a few
dozen rows and columns).  The tableau is a list of rows of exact entries:
an entry is an ``int`` when it is integral and a ``Fraction`` only when it
is not, so a problem with integer coefficients pivots mostly on ints.  The
ratio test compares exact ratios ``Fraction(a, b)``, never float quotients.
The reduced costs z_j - c_j are carried as one more row: computed once at
the start of each phase, then pivoted like the others.  A pivot updates
only the columns where the pivot row is nonzero, and divides the pivot row
only when the pivot element is not 1.

Bland's rule keeps it cycle-free: the first column with a negative reduced
cost enters, and among rows with the least ratio the one whose basic variable
has the smallest index leaves.  The pivot sequence, and so which optimal
vertex is returned when several are, depends only on that rule and the
exact values, not on how they are stored.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Exact = int | Fraction


def solve_lp(objective: Sequence[Fraction | int],
             a_ub: Sequence[Sequence[Fraction | int]], b_ub: Sequence[Fraction | int],
             a_eq: Sequence[Sequence[Fraction | int]], b_eq: Sequence[Fraction | int],
             ) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize objective . x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Entries may be ints or Fractions.  Returns (status, x, value) with status
    "optimal", "infeasible", or "unbounded"; x and value are Fractions.
    """
    n = len(objective)
    rows: list[tuple[list[Exact], Exact, str]] = []
    for coeffs, rhs in zip(a_ub, b_ub):
        coeffs = [_exact(v) for v in coeffs]
        rhs = _exact(rhs)
        if rhs >= 0:
            rows.append((coeffs, rhs, "le"))
        else:
            rows.append(([-v for v in coeffs], -rhs, "ge"))
    for coeffs, rhs in zip(a_eq, b_eq):
        coeffs = [_exact(v) for v in coeffs]
        rhs = _exact(rhs)
        if rhs < 0:
            coeffs, rhs = [-v for v in coeffs], -rhs
        rows.append((coeffs, rhs, "eq"))

    m = len(rows)
    nslack = sum(1 for r in rows if r[2] in ("le", "ge"))
    nart = sum(1 for r in rows if r[2] in ("ge", "eq"))
    total = n + nslack + nart
    tab: list[list[Exact]] = [[0] * (total + 1) for _ in range(m)]
    basis = [0] * m
    art_cols: set[int] = set()
    si, ai = n, n + nslack
    for i, (coeffs, rhs, kind) in enumerate(rows):
        for j, v in enumerate(coeffs):
            tab[i][j] = v
        tab[i][total] = rhs
        if kind == "le":
            tab[i][si] = 1
            basis[i] = si
            si += 1
        elif kind == "ge":
            tab[i][si] = -1
            si += 1
            tab[i][ai] = 1
            basis[i] = ai
            art_cols.add(ai)
            ai += 1
        else:
            tab[i][ai] = 1
            basis[i] = ai
            art_cols.add(ai)
            ai += 1

    def run(cost: list[Exact], banned: set[int]) -> str:
        # reduced costs z_j - c_j, carried as one more row under the tableau
        zrow = [-c for c in cost] + [0]
        for i in range(m):
            cb = cost[basis[i]]
            if cb:
                for j, v in enumerate(tab[i]):
                    if v:
                        zrow[j] = _exact(zrow[j] + cb * v)
        tab_z = tab + [zrow]
        while True:
            entering = -1
            for j in range(total):
                if zrow[j] < 0 and j not in banned:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            leaving, best = -1, None
            for i in range(m):
                if tab[i][entering] > 0:
                    ratio = Fraction(tab[i][total], tab[i][entering])
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                        leaving, best = i, ratio
            if leaving < 0:
                return "unbounded"
            _pivot(tab_z, basis, leaving, entering)

    if art_cols:
        cost1: list[Exact] = [0] * total
        for j in art_cols:
            cost1[j] = -1
        status = run(cost1, banned=set())
        value1 = sum(tab[i][total] for i in range(m) if basis[i] in art_cols)
        if status != "optimal" or value1 != 0:
            return "infeasible", None, None
        # drive leftover (degenerate) artificials out of the basis
        for i in range(m):
            if basis[i] in art_cols:
                for j in range(total):
                    if j not in art_cols and tab[i][j] != 0:
                        _pivot(tab, basis, i, j)
                        break

    obj = [_exact(c) for c in objective]
    cost2 = obj + [0] * (total - n)
    status = run(cost2, banned=art_cols)
    if status != "optimal":
        return status, None, None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(tab[i][total])
    value = sum((c * v for c, v in zip(obj, x)), Fraction(0))
    return "optimal", x, value


def _exact(v: Fraction | int) -> Exact:
    """``v`` as the tableau stores it: an int when integral, else a Fraction."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _pivot(rows: list[list[Exact]], basis: list[int], row: int, col: int) -> None:
    """Pivot on rows[row][col], in place; rows past the basis are updated too.

    Only the columns where the pivot row is nonzero can change.  Every
    result that is integral is stored as an int.
    """
    prow = rows[row]
    nz = [j for j, v in enumerate(prow) if v]
    pv = prow[col]
    if pv != 1:
        for j in nz:
            v = Fraction(prow[j], pv)
            prow[j] = v.numerator if v.denominator == 1 else v
    for i, r in enumerate(rows):
        factor = r[col]
        if factor and i != row:
            for j in nz:
                v = r[j] - factor * prow[j]
                r[j] = v.numerator if type(v) is not int and v.denominator == 1 else v
    basis[row] = col
