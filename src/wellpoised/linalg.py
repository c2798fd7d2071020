"""Exact linear algebra over the rationals.

Inputs are plain sequences of ``fractions.Fraction`` (or ints).  The systems
in this package are tiny, so Gauss-Jordan elimination, one polyhedral kernel
(double description: the equations and facets of the cone some vectors
generate) and one integer-point kernel (a pruned depth-first search over
the free columns whose last one steps through the one residue class that
leaves every pivot whole, the only integer search in the package; a fully
determined system is settled at the root) run exactly instead of through
floating-point solvers: every answer is exact and every certificate is
checkable.  All of them share one pivot step that runs fraction-free on
integer rows (each row scaled by the lcm of its denominators,
cross-multiplied at a pivot and divided by the gcd of its entries).
``echelon`` returns those integer rows; unique solutions and the double
description read them directly, and answers come back as ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterator, Optional, Sequence

Scalar = int | Fraction
Vector = tuple[Fraction, ...]
Row = tuple[int, ...]


def _integer_row(row: Sequence[Scalar]) -> list[int]:
    """The row times the lcm of its denominators, as ints."""
    if all(type(x) is int for x in row):
        return list(row)
    fracs = [Fraction(x) for x in row]
    d = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (d // f.denominator) for f in fracs]


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
    m = [_integer_row(row) for row in rows]
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


def solve_unique(rows, rhs) -> Optional[Vector]:
    """The unique solution of A x = b, or None (inconsistent or underdetermined)."""
    if not rows:
        raise ValueError("solve_unique requires at least one equation")
    ncols = len(rows[0])
    m, pivots = echelon([[*row, b] for row, b in zip(rows, rhs)])
    if pivots != list(range(ncols)):  # a free column, or a pivot in the rhs column
        return None
    return tuple(Fraction(row[-1], row[c]) for row, c in zip(m, pivots))


def double_description(
    vectors: Sequence[Sequence[Scalar]],
) -> tuple[tuple[Row, ...], tuple[Row, ...], list[int]]:
    """The equations and the facets of the cone the vectors generate, and for
    each facet the bitmask of the vectors on it (bit j for vectors[j]).

    The equations are integer rows e with e . v = 0 for every vector, a basis
    of the rows orthogonal to their span.  The facets are integer rows f with
    f . v >= 0 for every vector, one per facet of the cone within that span.
    Each vector is scaled to integers by the lcm of its denominators, and one
    echelon of [V | I], with the vectors as the columns of V, starts the
    search.  Its rows past the rank of V vanish on every vector: their right
    halves are the equations.  Its pivot rows' right halves are each positive
    on one pivot vector and zero on the others: the facets of the simplicial
    cone on the first linearly independent vectors.  The other vectors join
    one at a time by double description (Motzkin, Raiffa, Thompson and
    Thrall, 1953; Fukuda and Prodon, 1996), with the facets as the rays of
    the dual cone.  Facets negative on the new vector go; each of them and
    each facet positive on it that are adjacent (no third facet holds every
    vector the two share) give the positive combination of the two that
    vanishes on it, divided by its gcd.
    """
    vs = [_integer_row(v) for v in vectors]
    k, width = len(vs), len(vs[0]) if vs else 0
    reduced, pivots = echelon(
        [[*(v[r] for v in vs), *(int(r == c) for c in range(width))] for r in range(width)]
    )
    rank = sum(c < k for c in pivots)
    spanned = sum(1 << j for j in pivots[:rank])
    rays = [(row[k:], spanned & ~(1 << j)) for row, j in zip(reduced, pivots[:rank])]
    for j, v in enumerate(vs):
        if spanned >> j & 1:
            continue
        bit = 1 << j
        signed = [(sum(map(mul, ray, v)), ray, mask) for ray, mask in rays]
        masks = [mask for _, mask in rays]
        rays = [(ray, mask | bit if s == 0 else mask) for s, ray, mask in signed if s >= 0]
        below = [entry for entry in signed if entry[0] < 0]
        for sa, a, ma in signed:
            if sa <= 0:
                continue
            for sb, b, mb in below:
                common = ma & mb
                # adjacent rays of the rank-r cone share r - 2 independent zeros
                if common.bit_count() < rank - 2 or any(
                    m & common == common for m in masks if m != ma and m != mb
                ):
                    continue
                combined = [sa * y - sb * x for x, y in zip(a, b)]
                g = math.gcd(*combined)
                rays.append(([x // g for x in combined], common | bit))
    equations = tuple(tuple(row[k:]) for row in reduced[rank:])
    return equations, tuple(tuple(ray) for ray, _ in rays), [mask for _, mask in rays]


def in_cone(equations: Sequence[Row], facets: Sequence[Row], v: Sequence[Scalar]) -> bool:
    """Is v in the cone with these equations and facets: every equation zero
    on it and every facet non-negative?"""
    v = _integer_row(v)
    return all(sum(map(mul, e, v)) == 0 for e in equations) and all(
        sum(map(mul, f, v)) >= 0 for f in facets
    )


def integer_points(rows, rhs, bounds) -> Iterator[tuple[int, ...]]:
    """Yield the integer x with rows . x = rhs and lo <= x[j] <= hi for each
    (lo, hi) in bounds, in lexicographic order of the free coordinates.

    A depth-first search (project and lift) fixes the free columns of the
    rref of [rows | rhs] one at a time.  It narrows each free coordinate's
    range to the values that still let every pivot coordinate land inside
    its bounds, given the terms already fixed and the least and greatest
    sums the later terms can take.  Once the other free columns are fixed,
    each integer-scaled pivot row den * x[c] + a * v = r asks a * v = r
    (mod den) of the last free coordinate v.  These congruences fold into
    one class v = start (mod step) (the generalised Chinese remainder
    theorem), so the last column walks that class upward through its range
    and reads each pivot coordinate as an exact quotient; an inconsistent
    class leaves nothing.  A system with no free column is settled at the
    root: its one point comes out when every pivot divides its target.
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
    last = len(free) - 1

    def search(t: int, rest: list[int]) -> Iterator[tuple[int, ...]]:
        # every rest[i] lies within reach[t][i], and t <= last
        lo, hi = bounds[free[t]]
        column = coeffs[t]
        for a, r, (least, most) in zip(column, rest, reach[t + 1]):
            # keep r - a * v within [least, most]
            if a > 0:
                lo, hi = max(lo, -((most - r) // a)), min(hi, (r - least) // a)
            elif a < 0:
                lo, hi = max(lo, -((least - r) // a)), min(hi, (r - most) // a)
        if lo > hi:
            return
        if t < last:
            for v in range(lo, hi + 1):
                x[free[t]] = v
                yield from search(t + 1, [r - a * v for a, r in zip(column, rest)])
            return
        # fold each row's a * v = r (mod d) into v = start (mod step), start
        # the least such value >= lo
        start, step = lo, 1
        for a, d, r in zip(column, dens, rest):
            if d == 1:
                continue
            g = math.gcd(a * step, d)
            gap = r - a * start
            if gap % g:
                return
            modulus = d // g
            start += step * (gap // g * pow(a * step // g, -1, modulus) % modulus)
            if start > hi:
                return
            step *= modulus
        pivot_rows = list(zip(pivots, dens, column, rest))
        for v in range(start, hi + 1, step):
            x[free[t]] = v
            for c, d, a, r in pivot_rows:
                x[c] = (r - a * v) // d
            yield tuple(x)

    b = [s[-1] for s in reduced]
    # search's invariant at the root: the only check of rows with no free
    # term, and the whole bound check when no column is free
    if not all(least <= r <= most for r, (least, most) in zip(b, reach[0])):
        return
    if free:
        yield from search(0, b)
    elif all(r % d == 0 for d, r in zip(dens, b)):
        yield tuple(r // d for d, r in zip(dens, b))


def primitive_integer(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (no-op on zero)."""
    g = math.gcd(*vec)
    return tuple(x // g for x in vec) if g > 1 else tuple(vec)
