"""Exact Newton-polytope computations.

Vertex detection, simplex testing and lattice-point enumeration all run over
the rationals: membership is decided by Gaussian elimination and the exact
simplex kernel of ``linalg``, never by floating point.  Lattice enumeration
scans the integer bounding box of the vertices, which is cheap at the problem
sizes this package targets (dimension <= ~8, exponents <= ~12).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import linalg
from .polynomial import (
    Exponent,
    PreconditionError,
    SparsePolynomial,
    graded_lex_key,
    is_disjointly_supported,
    is_well_poised,
)

Point = tuple


def canonical_point(point: Sequence) -> Point:
    """Normalize entries to int when integral, Fraction otherwise."""
    out = []
    for x in point:
        f = Fraction(x)
        out.append(int(f) if f.denominator == 1 else f)
    return tuple(out)


def in_convex_hull(point: Sequence, generators: Sequence[Sequence]) -> bool:
    """Exact test for point in conv(generators) via barycentric feasibility."""
    gens = [canonical_point(g) for g in generators]
    if not gens:
        return False
    n = len(gens[0])
    rows = [[Fraction(g[r]) for g in gens] for r in range(n)]
    rows.append([Fraction(1)] * len(gens))
    rhs = [Fraction(x) for x in point] + [Fraction(1)]
    return linalg.nonnegative_solution_exists(rows, rhs)


@dataclass(frozen=True)
class LatticePolytope:
    """Minimal V-representation: no vertex lies in the hull of the others."""

    n: int
    vertices: tuple[Point, ...]

    @classmethod
    def from_points(cls, points: Iterable[Sequence], n: Optional[int] = None) -> "LatticePolytope":
        pts = sorted({canonical_point(p) for p in points}, key=graded_lex_key)
        if not pts:
            raise PreconditionError("a polytope needs at least one point")
        if n is None:
            n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise PreconditionError("points of mixed dimensions")
        verts = [
            p
            for i, p in enumerate(pts)
            if not in_convex_hull(p, pts[:i] + pts[i + 1 :])
        ]
        return cls(n=n, vertices=tuple(verts))

    def contains(self, point: Sequence) -> bool:
        return in_convex_hull(point, self.vertices)


def newton_polytope(f: SparsePolynomial) -> LatticePolytope:
    """Convex hull of the exponent vectors, reduced to its vertex set."""
    return LatticePolytope.from_points(f.exponents(), n=f.n)


def is_simplex(p: LatticePolytope) -> bool:
    """True when the vertices are affinely independent."""
    if len(p.vertices) == 1:
        return True
    base = p.vertices[0]
    diffs = [
        [Fraction(x) - Fraction(y) for x, y in zip(v, base)] for v in p.vertices[1:]
    ]
    return linalg.rank(diffs) == len(p.vertices) - 1


def _barycentric_scanner(vertices: Sequence[Point]):
    """Precompute integer test rows deciding membership in a simplex.

    Returns (condition_rows, sign_rows); a candidate b = (*point, 1) lies in
    the simplex iff every condition row dots to 0 and every sign row dots >= 0.
    The rows come from the rref of [V; 1 | I]: its right block E satisfies
    E [V; 1] = [I; 0], so E b gives the barycentric coordinates on top and
    the consistency conditions below.
    """
    k = len(vertices)
    n = len(vertices[0])
    identity = [[int(r == c) for c in range(n + 1)] for r in range(n + 1)]
    m = [[*(v[r] for v in vertices), *identity[r]] for r in range(n)]
    m.append([1] * k + identity[n])
    reduced, pivots = linalg.rref(m)
    if pivots[:k] != list(range(k)):
        raise PreconditionError("vertices are affinely dependent")
    sign_rows = [linalg.integer_scaled(row[k:]) for row in reduced[:k]]
    condition_rows = [linalg.integer_scaled(row[k:]) for row in reduced[k:]]
    return condition_rows, sign_rows


def _bounding_box(vertices: Sequence[Point]) -> Optional[list[range]]:
    axes = []
    for j in range(len(vertices[0])):
        lo = math.ceil(min(v[j] for v in vertices))
        hi = math.floor(max(v[j] for v in vertices))
        if lo > hi:
            return None
        axes.append(range(lo, hi + 1))
    return axes


def lattice_points(p: LatticePolytope) -> list[Exponent]:
    """All integer points of the polytope, in graded-lex order."""
    axes = _bounding_box(p.vertices)
    if axes is None:
        return []
    if is_simplex(p):
        conditions, signs = _barycentric_scanner(p.vertices)

        def hit(pt: tuple[int, ...]) -> bool:
            b = pt + (1,)
            for row in conditions:
                if sum(x * y for x, y in zip(row, b)) != 0:
                    return False
            return all(sum(x * y for x, y in zip(row, b)) >= 0 for row in signs)

    else:

        def hit(pt: tuple[int, ...]) -> bool:
            return p.contains(pt)

    points = [pt for pt in itertools.product(*axes) if hit(pt)]
    return sorted(points, key=graded_lex_key)


@dataclass(frozen=True)
class FaceDescriptor:
    """A face of the Newton polytope, as the 1-based term subset it carries."""

    term_indices: tuple[int, ...]
    supporting_weight: tuple[int, ...]


def _require_empty_simplex_input(f: SparsePolynomial, what: str) -> None:
    if not is_disjointly_supported(f):
        raise PreconditionError(f"{what} requires disjointly supported terms")
    witness = is_well_poised(f).witness
    if witness is not None:
        i, j = witness.terms
        raise PreconditionError(
            f"{what} requires pairwise exponent gcd 1; terms {i},{j} violate it"
        )


def faces(f: SparsePolynomial) -> list[FaceDescriptor]:
    """One descriptor per nonempty term subset S, 2^K - 1 in total.

    The supporting weight is the sum of the rays of the complement: entry -1
    on each variable supporting a term outside S, and 0 elsewhere.  Only the
    empty-simplex case (disjoint supports, pairwise gcd 1) is supported.
    """
    _require_empty_simplex_input(f, "faces")
    out = []
    for size in range(1, f.k + 1):
        for subset in itertools.combinations(range(1, f.k + 1), size):
            weight = [0] * f.n
            for i in range(1, f.k + 1):
                if i not in subset:
                    for j in f.term(i).support:
                        weight[j] = -1
            out.append(FaceDescriptor(subset, tuple(weight)))
    return out


@dataclass(frozen=True)
class MinkowskiReport:
    """Lattice-point census certifying (or refuting) decomposition triviality.

    A simplex whose only lattice points are its vertices splits only as
    {origin} + itself; any non-vertex lattice point is reported as evidence
    to the contrary.
    """

    trivial_only: bool
    census: tuple[Point, ...]
    non_vertex_points: tuple[Point, ...]


def minkowski_decomposition_witness(p: LatticePolytope) -> MinkowskiReport:
    if not is_simplex(p):
        raise PreconditionError("minkowski witness requires a simplex")
    census = tuple(lattice_points(p))
    vertex_set = set(p.vertices)
    extras = tuple(pt for pt in census if pt not in vertex_set)
    return MinkowskiReport(not extras, census, extras)


def extreme_points(points: Iterable[Sequence]) -> list[Point]:
    """Minimal V-representation of a finite point set, in graded-lex order."""
    return list(LatticePolytope.from_points(points).vertices)


def _cross(o: Point, a: Point, b: Point):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points: Iterable[Sequence], keep_boundary: bool = False) -> list[Point]:
    """Monotone-chain hull cycle, counter-clockwise from the lex-min point.

    With keep_boundary=True, input points lying on hull edges are kept in
    traversal order instead of being eliminated as collinear.
    """
    pts = sorted({canonical_point(p) for p in points})
    if len(pts) <= 2:
        return pts

    def chain(ordered: Sequence[Point]) -> list[Point]:
        out: list[Point] = []
        for pt in ordered:
            while len(out) >= 2:
                turn = _cross(out[-2], out[-1], pt)
                if turn < 0 or (turn == 0 and not keep_boundary):
                    out.pop()
                else:
                    break
            out.append(pt)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    if keep_boundary and len(lower) + len(upper) == len(pts) * 2:
        # all points collinear; return them once instead of a degenerate cycle
        return pts
    return lower[:-1] + upper[:-1]


def shoelace_area(cycle: Sequence[Point]) -> Fraction:
    """Exact area of a polygon given as a closed vertex cycle."""
    total = Fraction(0)
    for i, (x1, y1) in enumerate(cycle):
        x2, y2 = cycle[(i + 1) % len(cycle)]
        total += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return abs(total) / 2
