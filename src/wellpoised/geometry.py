"""Exact Newton-polytope computations.

Vertex detection, simplex testing and lattice-point enumeration all run over
the rationals: membership is decided by Gaussian elimination and the exact
simplex kernel of ``linalg``, never by floating point.  Lattice enumeration
solves the affine-hull equations of the vertices for their free coordinates
inside the bounding box, with the integer-point kernel of ``linalg``.
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
    n = len(point)
    if any(len(g) != n for g in gens):
        raise PreconditionError("the point and the generators differ in length")
    rows = [[g[r] for g in gens] for r in range(n)]
    rows.append([1] * len(gens))
    rhs = [*point, 1]
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


def lattice_points(p: LatticePolytope) -> list[Exponent]:
    """All integer points of the polytope, in graded-lex order.

    The integer echelon rows of [V; 1 | I] (vertices as the columns of V)
    past the rank of [V; 1] are the affine-hull equations, which the
    integer-point kernel solves inside the bounding box of the vertices.  For
    a simplex the first rows give positive multiples of the barycentric
    coordinates, kept when all are non-negative; otherwise the exact hull
    test decides.
    """
    k, n = len(p.vertices), p.n
    m = [[*(v[r] for v in p.vertices), *(int(r == c) for c in range(n + 1))] for r in range(n)]
    m.append([1] * k + [0] * n + [1])
    reduced, pivots = linalg.echelon(m)
    rank = sum(c < k for c in pivots)
    if rank == k:
        signs = [row[k:] for row in reduced[:k]]

        def inside(pt: tuple[int, ...]) -> bool:
            b = pt + (1,)
            return all(sum(a * x for a, x in zip(row, b)) >= 0 for row in signs)

    else:
        inside = p.contains
    hull = reduced[rank:]
    bounds = [(math.ceil(min(c)), math.floor(max(c))) for c in zip(*p.vertices)]
    points = linalg.integer_points([r[k:-1] for r in hull], [-r[-1] for r in hull], bounds)
    return sorted(filter(inside, points), key=graded_lex_key)


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
