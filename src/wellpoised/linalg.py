"""Exact linear algebra over the rationals.

Everything here works on plain tuples of ``fractions.Fraction`` (or ints).
The systems in this package are tiny, so Gaussian elimination, one simplex
kernel (Bland's rule, so it cannot cycle) and one integer-point kernel run
directly over the rationals instead of floating-point solvers: every answer
is exact and every certificate is checkable.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

Scalar = int | Fraction
Vector = tuple[Fraction, ...]

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


def _pivot(m: list[list[Fraction]], r: int, c: int) -> None:
    """Scale row r to a unit entry in column c and clear column c elsewhere."""
    pv = m[r][c]
    pivot_row = m[r] = [x / pv for x in m[r]]
    for i, row in enumerate(m):
        if i != r and row[c] != 0:
            f = row[c]
            m[i] = [x - f * y for x, y in zip(row, pivot_row)]


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        _pivot(m, r, c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(rref(rows)[1])


def row_space_equal(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> bool:
    """Exact equality of the rational row spaces of two matrices."""
    return rref(a)[0] == rref(b)[0]


def solve_affine(rows, rhs) -> Optional[tuple[Vector, list[Vector]]]:
    """Solve A x = b exactly.

    Returns (particular solution, basis of the null space of A), or None when
    the system is inconsistent.
    """
    if not rows:
        raise ValueError("solve_affine requires at least one equation")
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    if ncols in pivots:  # pivot in the rhs column: inconsistent
        return None
    particular = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        particular[c] = row[-1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = -row[fcol]
        basis.append(tuple(v))
    return tuple(particular), basis


def solve_unique(rows, rhs) -> Optional[Vector]:
    """The unique solution of A x = b, or None (inconsistent or underdetermined)."""
    sol = solve_affine(rows, rhs)
    if sol is None or sol[1]:
        return None
    return sol[0]


def _bland_pivots(m: list[list[Fraction]], basis: list[int]) -> bool:
    """Pivot tableau m (constraint rows, then the reduced-cost row) to an optimum.

    Bland's rule: the lowest-indexed column with negative reduced cost enters,
    and ties in the ratio test go to the lowest-indexed basic variable, so
    degenerate pivots never cycle.  Returns False when the objective is
    unbounded below.
    """
    while True:
        costs = m[-1]
        enter = next((j for j, d in enumerate(costs[:-1]) if d < 0), None)
        if enter is None:
            return True
        leave = None
        for i in range(len(m) - 1):
            a = m[i][enter]
            if a > 0:
                ratio = m[i][-1] / a
                if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            return False
        _pivot(m, leave, enter)
        basis[leave] = enter


def simplex(cost, rows, rhs) -> tuple[str, Optional[Vector]]:
    """Minimise cost . x subject to rows . x = rhs and x >= 0, exactly.

    Returns (OPTIMAL, an optimal vertex), (INFEASIBLE, None) or
    (UNBOUNDED, None).  Phase I starts from one artificial variable per row
    and minimises their sum; artificials are basis markers only (numbered
    after the real columns) and never re-enter.  Phase II then minimises
    cost from the feasible basis Phase I leaves.
    """
    n = len(cost)
    m = []
    for row, b in zip(rows, rhs):
        sign = -1 if b < 0 else 1
        m.append([Fraction(sign * x) for x in row] + [Fraction(sign * b)])
    # Phase I reduced costs: minus the column sums of the constraint rows
    m.append([-sum(col) for col in zip(*m)] if m else [Fraction(0)] * (n + 1))
    basis = list(range(n, n + len(m) - 1))
    _bland_pivots(m, basis)
    if m.pop()[-1] != 0:
        return INFEASIBLE, None
    # drive the remaining (zero-valued) artificials out, or drop their rows
    for i in reversed(range(len(m))):
        if basis[i] >= n:
            j = next((c for c in range(n) if m[i][c] != 0), None)
            if j is None:
                del m[i], basis[i]
            else:
                _pivot(m, i, j)
                basis[i] = j
    costs = [Fraction(c) for c in cost] + [Fraction(0)]
    for row, b in zip(m, basis):
        if costs[b] != 0:
            f = costs[b]
            costs = [x - f * y for x, y in zip(costs, row)]
    m.append(costs)
    if not _bland_pivots(m, basis):
        return UNBOUNDED, None
    x = [Fraction(0)] * n
    for row, b in zip(m, basis):
        x[b] = row[-1]
    return OPTIMAL, tuple(x)


def nonnegative_solution_exists(rows, rhs) -> bool:
    """Does A x = b admit a componentwise non-negative solution?"""
    return simplex([0] * len(rows[0]), rows, rhs)[0] != INFEASIBLE


def integer_points(rows, rhs, bounds, keep=None) -> list[tuple[int, ...]]:
    """The integer x with rows . x = rhs and lo <= x[j] <= hi for each (lo, hi)
    in bounds, and keep(x) true when keep is given, in scan order.

    Only the free columns of the rref of [rows | rhs] are scanned.  Each pivot
    coordinate is solved from its integer-scaled row by divmod; a remainder or
    a value out of bounds drops the candidate.
    """
    n = len(bounds)
    reduced, pivots = rref([[*row, b] for row, b in zip(rows, rhs)])
    if n in pivots:  # pivot in the rhs column: inconsistent
        return []
    free = [j for j in range(n) if j not in pivots]
    # den * x[c] + coeffs . x[free] = b, with den > 0 since row[c] == 1
    scaled = [integer_scaled(row) for row in reduced]
    solved = [(c, s[c], [s[j] for j in free], s[-1]) for s, c in zip(scaled, pivots)]
    out, x = [], [0] * n
    for point in itertools.product(*(range(bounds[j][0], bounds[j][1] + 1) for j in free)):
        for c, den, coeffs, b in solved:
            q, r = divmod(b - sum(a * v for a, v in zip(coeffs, point)), den)
            if r or not bounds[c][0] <= q <= bounds[c][1]:
                break
            x[c] = q
        else:
            if solved:  # the scan holds the free coordinates only
                for j, v in zip(free, point):
                    x[j] = v
                point = tuple(x)
            if keep is None or keep(point):
                out.append(point)
    return out


def integer_scaled(row: Sequence[Scalar]) -> tuple[int, ...]:
    """Scale a rational row by the lcm of denominators to an integer row."""
    fracs = [Fraction(x) for x in row]
    den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    return tuple(int(f * den) for f in fracs)


def primitive_integer(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (no-op on zero)."""
    ints = [int(x) for x in vec]
    g = math.gcd(*(abs(x) for x in ints)) if ints else 0
    if g > 1:
        return tuple(x // g for x in ints)
    return tuple(ints)
