"""Exact Newton-polytope computations.

Every ``LatticePolytope`` carries one exact H-representation, found once when
it is built: the integer equations of its affine hull and one integer
inequality per facet.  They are the equations and facets that the double
description kernel of ``linalg`` finds for the cone on the homogenised
points (p, 1), and the vertices are the points that the facets through them
pin down.  Membership, ``in_convex_hull``, the simplex test and lattice
enumeration then read the facets: no floating point and no linear program.
Lattice enumeration solves the affine-hull equations for their free
coordinates inside the bounding box, with the integer-point kernel of
``linalg``, and the facets keep the points of the polytope.  Points are read
by ``polynomial.canonical_points``, which also holds them to one length (two
for the planar hull and area); the faces of a Newton polytope, which the
cones of the tropical fan give, are built in ``fan``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from . import linalg
from .polynomial import (
    Exponent,
    PreconditionError,
    SparsePolynomial,
    _Frozen,
    canonical_point,
    canonical_points,
    graded_lex_sorted,
)

Point = tuple
Row = tuple[int, ...]


class LatticePolytope(_Frozen):
    """Minimal V-representation, no vertex in the hull of the others, and the
    H-representation of the same polytope.

    ``equations`` and ``facets`` hold integer rows (a, b) with a . x + b = 0
    on the affine hull and a . x + b >= 0 on the polytope, one per facet.
    Equality, hashing and repr read only ``n`` and ``vertices``.
    ``from_points`` is the one constructor: it finds both representations in
    one pass.
    """

    _fields = ("n", "vertices")

    def __init__(
        self,
        n: int,
        vertices: tuple[Point, ...],
        equations: tuple[Row, ...],
        facets: tuple[Row, ...],
    ):
        d = self.__dict__
        d["n"], d["vertices"], d["equations"], d["facets"] = n, vertices, equations, facets

    @classmethod
    def from_points(cls, points: Iterable[Sequence]) -> "LatticePolytope":
        """The polytope conv(points): a point is a vertex exactly when the
        facets through it meet in no other point."""
        pts = graded_lex_sorted(set(canonical_points(points)))
        if not pts:
            raise PreconditionError("a polytope needs at least one point")
        n = len(pts[0])
        equations, facets, masks = linalg.double_description([(*p, 1) for p in pts])
        # meet[i]: the points on every facet through point i; each mask is
        # read once, bit by bit, into the entry of every point on its facet
        meet = [(1 << len(pts)) - 1] * len(pts)
        for m in masks:
            rest = m
            while rest:
                low = rest & -rest
                meet[low.bit_length() - 1] &= m
                rest ^= low
        verts = tuple(p for i, p in enumerate(pts) if meet[i] == 1 << i)
        return cls(n, verts, equations, facets)

    def contains(self, point: Sequence) -> bool:
        (point,) = canonical_points([point], self.n)
        return linalg.in_cone(self.equations, self.facets, (*point, 1))


def in_convex_hull(point: Sequence, generators: Sequence[Sequence]) -> bool:
    """Exact test for point in conv(generators), on the facets of their hull."""
    point = canonical_point(point)  # refused even when there are no generators
    gens = list(generators)
    if not gens:
        return False
    return LatticePolytope.from_points(gens).contains(point)


def newton_polytope(f: SparsePolynomial) -> LatticePolytope:
    """Convex hull of the exponent vectors, reduced to its vertex set."""
    return LatticePolytope.from_points(f.exponents())


def is_simplex(p: LatticePolytope) -> bool:
    """True when the vertices are affinely independent: one more of them than
    the dimension of the affine hull."""
    return len(p.vertices) == p.n - len(p.equations) + 1


def _facets_to_test(p: LatticePolytope, bounds: Sequence[tuple[int, int]]) -> list[Row]:
    """The facets of p that the box of integer bounds on its coordinates
    leaves undecided.

    A facet that holds at every point of the box is decided, and this
    cheap test goes first.  So is a facet with, for some coordinate j that
    varies over the vertices, every vertex on it at the low end lo_j of
    x_j, or every one at the high end hi_j: x_j = lo_j then cuts the affine
    hull in the facet's hyperplane, so on the hull the facet reads
    x_j >= lo_j (or x_j <= hi_j), which the box enforces.
    """
    verts = p.vertices
    columns = list(zip(*verts))
    lows, highs = list(map(min, columns)), list(map(max, columns))
    undecided = []
    for f in p.facets:
        if sum(min(a * lo, a * hi) for a, (lo, hi) in zip(f, bounds)) + f[-1] >= 0:
            continue
        on = [v for v in verts if sum(map(mul, f, v)) + f[-1] == 0]
        # lo <= c <= hi, so max(c) == lo says that every entry is lo
        if not any(
            lo < hi and (max(c) == lo or min(c) == hi)
            for c, lo, hi in zip(zip(*on), lows, highs)
        ):
            undecided.append(f)
    return undecided


def lattice_points(p: LatticePolytope) -> list[Exponent]:
    """All integer points of the polytope, in graded-lex order.

    The integer-point kernel solves the affine-hull equations inside the
    bounding box of the vertices, and the facet inequalities that the box
    leaves undecided (``_facets_to_test``) keep the points of the polytope:
    one path for simplices and for every other polytope.  A coordinate
    simplex, such as the Newton polytope of x^2 + y^3 + z^5, tests none.
    """
    eqs = p.equations
    bounds = [(math.ceil(min(c)), math.floor(max(c))) for c in zip(*p.vertices)]
    facets = _facets_to_test(p, bounds)
    points = linalg.integer_points([e[:-1] for e in eqs], [-e[-1] for e in eqs], bounds)
    if facets:
        points = (pt for pt in points if all(sum(map(mul, f, pt)) + f[-1] >= 0 for f in facets))
    return graded_lex_sorted(points)


class MinkowskiReport(_Frozen):
    """Lattice-point census of a simplex.

    trivial_only means that the only lattice points are the vertices, which
    the non-vertex points, when there are any, refute.  It does not decide
    decomposition triviality: the triangle of 1 + x + x*y^3 holds (1, 1)
    and (1, 2), yet splits only trivially.
    """

    _fields = ("trivial_only", "census", "non_vertex_points")


def minkowski_decomposition_witness(p: LatticePolytope) -> MinkowskiReport:
    """The census of a simplex, and whether its only lattice points are the
    vertices; a polytope that is not a simplex raises."""
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
    pts = sorted(set(canonical_points(points, 2)))
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
    pts = canonical_points(cycle, 2)
    total = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))
    return abs(Fraction(total)) / 2
