"""Exact linear algebra over the rationals.

Inputs are plain sequences of ``fractions.Fraction`` (or ints).  The systems
in this package are tiny, so Gauss-Jordan elimination, one simplex kernel
(Bland's rule, so it cannot cycle) and one integer-point kernel (a pruned
depth-first search, the only integer search in the package) run exactly
instead of through floating-point solvers: every answer is exact and every
certificate is checkable.  All of them share one pivot step that runs
fraction-free on integer rows (each row scaled by the lcm of its
denominators, cross-multiplied at a pivot and divided by the gcd of its
entries).  ``echelon`` returns those integer rows; rank, unique solutions
and the hull equations and facets of ``geometry`` read them directly, and
answers come back as ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Optional, Sequence

Scalar = int | Fraction
Vector = tuple[Fraction, ...]

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


def _integer_row(row: Sequence[Scalar]) -> tuple[list[int], int]:
    """The row times the lcm d of its denominators, as ints, and d."""
    if all(type(x) is int for x in row):
        return list(row), 1
    fracs = [Fraction(x) for x in row]
    d = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (d // f.denominator) for f in fracs], d


def _pivot(m: list[list[int]], r: int, c: int) -> None:
    """Fraction-free pivot of integer rows on (r, c).

    Row r is negated if need be so that p = m[r][c] > 0; every other row with
    a nonzero entry f in column c becomes p*row - f*(row r) divided by the
    gcd of its entries.  Each row stays a positive multiple of the row that
    a rational pivot (row r scaled to 1 in column c) would give.
    """
    if m[r][c] < 0:
        m[r] = [-x for x in m[r]]
    pivot_row = m[r]
    p = pivot_row[c]
    for i, row in enumerate(m):
        f = row[c]
        if f and i != r:
            new = [p * x - f * y for x, y in zip(row, pivot_row)]
            g = math.gcd(*new)
            m[i] = [x // g for x in new] if g > 1 else new


def echelon(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], list[int]]:
    """Integer rows, each a positive multiple of a nonzero row of the rref,
    and the pivot columns."""
    m = [_integer_row(row)[0] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        _pivot(m, r, c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(echelon(rows)[1])


def solve_unique(rows, rhs) -> Optional[Vector]:
    """The unique solution of A x = b, or None (inconsistent or underdetermined)."""
    if not rows:
        raise ValueError("solve_unique requires at least one equation")
    ncols = len(rows[0])
    m, pivots = echelon([[*row, b] for row, b in zip(rows, rhs)])
    if pivots != list(range(ncols)):  # a free column, or a pivot in the rhs column
        return None
    return tuple(Fraction(row[-1], row[c]) for row, c in zip(m, pivots))


def _bland_pivots(m: list[list[int]], basis: list[int]) -> bool:
    """Pivot tableau m (constraint rows, then the reduced-cost row) to an optimum.

    Bland's rule: the lowest-indexed column with negative reduced cost enters,
    and ties in the ratio test go to the lowest-indexed basic variable, so
    degenerate pivots never cycle.  Every row is a positive multiple of the
    rational tableau's row, so signs agree with it and the ratios rhs/entry
    are compared by cross-multiplying.  Returns False when the objective is
    unbounded below.
    """
    while True:
        costs = m[-1]
        enter = next((j for j, d in enumerate(costs[:-1]) if d < 0), None)
        if enter is None:
            return True
        leave, num, den = None, 1, 0  # smallest ratio num/den so far; 1/0 is infinite
        for i, row in enumerate(m[:-1]):
            a = row[enter]
            if a > 0:
                diff = row[-1] * den - num * a  # sign of row[-1]/a - num/den
                if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], a
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
    cost from the feasible basis Phase I leaves.  The tableau holds each row
    times the lcm of its denominators, so a basic value is rhs / pivot entry.
    """
    n = len(cost)
    m, scales = [], []
    for row, b in zip(rows, rhs):
        ints, d = _integer_row([*row, b])
        m.append([-x for x in ints] if ints[-1] < 0 else ints)
        scales.append(d)
    # Phase I reduced costs: minus the column sums of the rational rows,
    # times the lcm of the row scales
    lcm = math.lcm(*scales)
    weights = [lcm // d for d in scales]
    m.append([-sum(w * x for w, x in zip(weights, col)) for col in zip(*m)] or [0] * (n + 1))
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
    # Phase II reduced costs: pivoting on each basic entry clears the cost
    # row there and leaves the other rows, which hold 0 in that column
    m.append(_integer_row([*cost, 0])[0])
    for i, b in enumerate(basis):
        _pivot(m, i, b)
    if not _bland_pivots(m, basis):
        return UNBOUNDED, None
    x = [Fraction(0)] * n
    for row, b in zip(m, basis):
        x[b] = Fraction(row[-1], row[b])
    return OPTIMAL, tuple(x)


def nonnegative_solution_exists(rows, rhs) -> bool:
    """Does A x = b admit a componentwise non-negative solution?"""
    return simplex([0] * len(rows[0]), rows, rhs)[0] != INFEASIBLE


def integer_points(rows, rhs, bounds) -> Iterator[tuple[int, ...]]:
    """Yield the integer x with rows . x = rhs and lo <= x[j] <= hi for each
    (lo, hi) in bounds, in lexicographic order of the free coordinates.

    A depth-first search (project and lift) fixes the free columns of the
    rref of [rows | rhs] one at a time.  It narrows each free coordinate's
    range to the values that still let every pivot coordinate land inside
    its bounds, given the terms already fixed and the least and greatest
    sums the later terms can take.  Each pivot coordinate is then solved
    from its integer-scaled row by divmod; a remainder drops the candidate.
    """
    n = len(bounds)
    reduced, pivots = echelon([[*row, b] for row, b in zip(rows, rhs)])
    if n in pivots:  # pivot in the rhs column: inconsistent
        return
    free = [j for j in range(n) if j not in pivots]
    # den * x[c] + coeffs . x[free] = b, with den = s[c] > 0
    dens = [s[c] for s, c in zip(reduced, pivots)]
    coeffs = [[s[j] for s in reduced] for j in free]
    # reach[t]: per pivot row, the least and greatest values that
    # den * x[c] plus the terms of free columns t, t+1, ... take in the bounds
    reach = [[(d * bounds[c][0], d * bounds[c][1]) for d, c in zip(dens, pivots)]]
    for j, column in zip(reversed(free), reversed(coeffs)):
        lo, hi = bounds[j]
        reach.insert(0, [(least + min(a * lo, a * hi), most + max(a * lo, a * hi))
                         for a, (least, most) in zip(column, reach[0])])
    x = [0] * n

    def search(t: int, rest: list[int]) -> Iterator[tuple[int, ...]]:
        # every rest[i] lies within reach[t][i]
        if t == len(free):
            for c, d, r in zip(pivots, dens, rest):
                x[c], remainder = divmod(r, d)
                if remainder:
                    return
            yield tuple(x)
            return
        lo, hi = bounds[free[t]]
        column = coeffs[t]
        for a, r, (least, most) in zip(column, rest, reach[t + 1]):
            # keep r - a * v within [least, most]
            if a > 0:
                lo, hi = max(lo, -((most - r) // a)), min(hi, (r - least) // a)
            elif a < 0:
                lo, hi = max(lo, -((least - r) // a)), min(hi, (r - most) // a)
        for v in range(lo, hi + 1):
            x[free[t]] = v
            yield from search(t + 1, [r - a * v for a, r in zip(column, rest)])

    b = [s[-1] for s in reduced]
    # search's invariant at the root: the only check of rows with no free
    # term, and the whole bound check when no column is free
    if all(least <= r <= most for r, (least, most) in zip(b, reach[0])):
        yield from search(0, b)


def primitive_integer(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (no-op on zero)."""
    ints = [int(x) for x in vec]
    g = math.gcd(*(abs(x) for x in ints)) if ints else 0
    if g > 1:
        return tuple(x // g for x in ints)
    return tuple(ints)
