"""Exact Newton-polytope computations.

Every ``LatticePolytope`` carries one exact H-representation, found once when
it is built: the integer equations of its affine hull and one integer
inequality per facet.  The double description method (Motzkin, Raiffa,
Thompson and Thrall, 1953; Fukuda and Prodon, 1996) finds the facets from
the points on the integer pivot step of ``linalg``, and the vertices are the
points that the facets through them pin down.  Membership, the simplex test
and lattice enumeration then read the facets: no floating point and no
linear program.  Lattice enumeration solves the affine-hull equations for
their free coordinates inside the bounding box, with the integer-point
kernel of ``linalg``, and the facets keep the points of the polytope.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import and_, mul
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
Row = tuple[int, ...]


def canonical_point(point: Sequence) -> Point:
    """Normalize entries to int when integral, Fraction otherwise."""
    out = []
    for x in point:
        if type(x) is not int:
            f = Fraction(x)
            x = f.numerator if f.denominator == 1 else f
        out.append(x)
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


def _h_representation(
    points: Sequence[Point],
) -> tuple[tuple[Row, ...], tuple[Row, ...], list[int]]:
    """The affine-hull equations and the facets of conv(points), and for each
    facet the bitmask of the points on it (bit j for points[j]).

    A row (a, b) of either kind reads a . x + b: zero on the affine hull for
    an equation, non-negative on the polytope for a facet.  Each point is
    homogenised to the integer vector v = d * (p, 1), d > 0 the lcm of its
    denominators, and one echelon of [V | I], with the v as the columns of
    V, starts the search.  Its rows past the rank of V vanish
    on every v: their right halves are the equations.  Its pivot rows'
    right halves are each positive on one pivot point and zero on the
    others: the facets of the simplex on the first affinely independent
    points.  The other points join one at a time by double description,
    with the facets as the rays of the dual cone.  Facets negative on the
    new point go; each of them and each facet positive on it that are
    adjacent (no third facet holds every point the two share) give the
    positive combination of the two that vanishes on it, divided by its gcd.
    """
    vs = [linalg._integer_row([*p, 1])[0] for p in points]
    k, width = len(vs), len(vs[0])
    reduced, pivots = linalg.echelon(
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


@dataclass(frozen=True)
class LatticePolytope:
    """Minimal V-representation, no vertex in the hull of the others, and the
    H-representation of the same polytope.

    ``equations`` and ``facets`` hold integer rows (a, b) with a . x + b = 0
    on the affine hull and a . x + b >= 0 on the polytope, one per facet.
    Equality and hashing read only ``n`` and ``vertices``.
    """

    n: int
    vertices: tuple[Point, ...]
    equations: tuple[Row, ...] = field(default=None, compare=False, repr=False)
    facets: tuple[Row, ...] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.facets is None:
            equations, facets, _ = _h_representation(self.vertices)
            object.__setattr__(self, "equations", equations)
            object.__setattr__(self, "facets", facets)

    @classmethod
    def from_points(cls, points: Iterable[Sequence], n: Optional[int] = None) -> "LatticePolytope":
        """The polytope conv(points): a point is a vertex exactly when the
        facets through it meet in no other point."""
        pts = sorted({canonical_point(p) for p in points}, key=graded_lex_key)
        if not pts:
            raise PreconditionError("a polytope needs at least one point")
        if n is None:
            n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise PreconditionError("points of mixed dimensions")
        equations, facets, masks = _h_representation(pts)
        every = (1 << len(pts)) - 1
        verts = tuple(
            p
            for i, p in enumerate(pts)
            if functools.reduce(and_, (m for m in masks if m >> i & 1), every) == 1 << i
        )
        return cls(n, verts, equations, facets)

    def contains(self, point: Sequence) -> bool:
        if len(point) != self.n:
            raise PreconditionError("the point and the polytope differ in dimension")
        v = linalg._integer_row([*point, 1])[0]
        return all(sum(map(mul, e, v)) == 0 for e in self.equations) and all(
            sum(map(mul, f, v)) >= 0 for f in self.facets
        )


def newton_polytope(f: SparsePolynomial) -> LatticePolytope:
    """Convex hull of the exponent vectors, reduced to its vertex set."""
    return LatticePolytope.from_points(f.exponents(), n=f.n)


def is_simplex(p: LatticePolytope) -> bool:
    """True when the vertices are affinely independent: one more of them than
    the dimension of the affine hull."""
    return len(p.vertices) == p.n - len(p.equations) + 1


def lattice_points(p: LatticePolytope) -> list[Exponent]:
    """All integer points of the polytope, in graded-lex order.

    The integer-point kernel solves the affine-hull equations inside the
    bounding box of the vertices, and the facet inequalities keep the points
    of the polytope: one path for simplices and for every other polytope.
    """
    eqs, facets = p.equations, p.facets
    bounds = [(math.ceil(min(c)), math.floor(max(c))) for c in zip(*p.vertices)]
    points = linalg.integer_points([e[:-1] for e in eqs], [-e[-1] for e in eqs], bounds)
    return sorted(
        (pt for pt in points if all(sum(map(mul, f, pt)) + f[-1] >= 0 for f in facets)),
        key=graded_lex_key,
    )


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
