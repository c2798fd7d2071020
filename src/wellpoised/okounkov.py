"""Valuation matrices of maximal prime cones and their Newton-Okounkov data.

For a two-element term subset S the matrix M_S stacks the homogeneity vector,
the kernel basis vectors, and the rays of the complement of S; its columns
are the variable valuations and generate the value semigroup.  Dividing each
column by the degree its variable carries under a positive grading and taking
the convex hull produces the Newton-Okounkov body.  The module also handles
the bounded enumeration of graded components and the polygon projections used
to reproduce planar bodies exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from . import linalg
from .fan import lineality_basis, ray_generator
from .geometry import (
    canonical_point,
    convex_hull_2d,
    extreme_points,
    shoelace_area,
)
from .polynomial import (
    Exponent,
    PreconditionError,
    SparsePolynomial,
    graded_lex_key,
)

Point = tuple

# An equality constraint (row, target) stands for  row . a == target.
Constraint = tuple[Sequence, int]


@dataclass(frozen=True)
class ValuationMatrix:
    """(n-1) x n integer matrix of full rational rank, rows in fixed order:
    homogeneity vector, kernel vectors, then rays of the complement of S."""

    S: tuple[int, int]
    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def columns(self) -> list[tuple[int, ...]]:
        return [tuple(row[j] for row in self.rows) for j in range(self.n)]


def valuation_matrix(f: SparsePolynomial, subset: Iterable[int]) -> ValuationMatrix:
    s = tuple(sorted(set(subset)))
    if len(s) != 2:
        raise PreconditionError("the subset S must have exactly two elements")
    if s[0] < 1 or s[1] > f.k:
        raise PreconditionError(f"subset {s} not contained in 1..{f.k}")
    basis = lineality_basis(f)
    rows = list(basis.rows)
    for i in range(1, f.k + 1):
        if i not in s:
            rows.append(ray_generator(f, i).w)
    matrix = ValuationMatrix((s[0], s[1]), tuple(rows))
    if len(rows) != f.n - 1 or linalg.rank(rows) != f.n - 1:
        raise PreconditionError("valuation matrix is rank deficient")
    return matrix


def variable_valuations(m: ValuationMatrix) -> list[tuple[int, tuple[int, ...]]]:
    """The matrix columns, labeled by 0-based variable index.

    These vectors generate the value semigroup under addition.
    """
    return list(enumerate(m.columns()))


def _positive_functional(vectors: Sequence[Point]) -> Optional[tuple[Fraction, ...]]:
    # phi with phi(v) >= 1 for all v; exists iff phi(v) > 0 is solvable.
    # Standard form: phi = p - q and (p - q).v - s_v = 1 with p, q, s >= 0.
    if not vectors:
        return None
    dim, k = len(vectors[0]), len(vectors)
    rows = [
        [*v, *(-x for x in v), *(-1 if i == j else 0 for j in range(k))]
        for i, v in enumerate(vectors)
    ]
    status, x = linalg.simplex([0] * (2 * dim + k), rows, [1] * k)
    if status == linalg.INFEASIBLE:
        return None
    return tuple(x[j] - x[dim + j] for j in range(dim))


def _integer_combinations(
    columns: Sequence[Point], target: Sequence, phi: Sequence
) -> Iterator[tuple[int, ...]]:
    """Yield the integer c >= 0 with sum of c_j * columns[j] == target.

    phi is positive on every column, so phi(target) = sum of c_j * phi(columns[j])
    bounds each c_j by phi(target) / phi(columns[j]).
    """

    def value(v) -> Fraction:
        return sum(p * x for p, x in zip(phi, v))

    rows = [[col[i] for col in columns] for i in range(len(target))]
    bounds = [(0, math.floor(value(target) / value(col))) for col in columns]
    return linalg.integer_points(rows, target, bounds)


def minimal_semigroup_generators(vectors: Iterable[Sequence]) -> tuple[Point, ...]:
    """Irredundant subset of the given generators.

    Requires a linear functional phi strictly positive on every generator (so
    the generated semigroup is pointed and the minimal set is unique).  A
    generator g is dropped when g = sum of c_h * h over the other kept
    generators h with integers c_h >= 0; phi bounds each c_h, and the
    integer-point kernel stops at the first such c.
    """
    gens = sorted({canonical_point(v) for v in vectors}, key=graded_lex_key)
    phi = _positive_functional(gens)
    if phi is None:
        raise PreconditionError(
            "no strictly positive functional; minimal generators are undefined"
        )
    kept = list(gens)
    for g in gens:
        others = [h for h in kept if h != g]
        if others and next(_integer_combinations(others, g, phi), None) is not None:
            kept = others
    return tuple(kept)


@dataclass(frozen=True)
class GradingImage:
    """Degrees of the variables under a grading matrix, plus the minimal
    generating set of the semigroup those degrees generate."""

    degrees: tuple[Point, ...]
    minimal_generators: tuple[Point, ...]


def grading_image(
    f: SparsePolynomial, rows: Optional[Sequence[Sequence]] = None
) -> GradingImage:
    """Image of each variable under the grading rows (default: lineality basis)."""
    if rows is None:
        rows = lineality_basis(f).rows
    rows = [tuple(r) for r in rows]
    if any(len(r) != f.n for r in rows):
        raise PreconditionError("grading rows must have one entry per variable")
    degrees = tuple(
        canonical_point(tuple(row[j] for row in rows)) for j in range(f.n)
    )
    return GradingImage(degrees, minimal_semigroup_generators(degrees))


@dataclass(frozen=True)
class Grading:
    """Strictly positive integer degrees making every term of f weigh the same."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries or any(e <= 0 for e in self.entries):
            raise PreconditionError("grading entries must be positive integers")

    def __getitem__(self, j: int) -> int:
        return self.entries[j]


def _check_grading(f: SparsePolynomial, grading) -> Grading:
    d = grading if isinstance(grading, Grading) else Grading(tuple(int(x) for x in grading))
    if len(d.entries) != f.n:
        raise PreconditionError("grading length differs from variable count")
    values = {sum(e * w for e, w in zip(t.exponent, d.entries)) for t in f.terms}
    if len(values) != 1:
        raise PreconditionError("polynomial is not homogeneous for this grading")
    return d


@dataclass(frozen=True)
class OkounkovBody:
    """A convex body given by its defining points and exact hull data.

    vertices is the minimal V-representation.  For planar bodies, boundary is
    the counter-clockwise cycle (from the lex-min point) of all defining
    points on the hull's boundary, including non-extreme ones, and area is
    the exact shoelace area; both are None in higher ambient dimension.
    """

    points: tuple[Point, ...]
    vertices: tuple[Point, ...]
    boundary: Optional[tuple[Point, ...]]
    area: Optional[Fraction]


def _make_body(points: Sequence[Sequence]) -> OkounkovBody:
    pts = tuple(canonical_point(p) for p in points)
    if not pts:
        raise PreconditionError("a body needs at least one point")
    ambient = len(pts[0])
    if ambient == 2:
        vertices = tuple(convex_hull_2d(pts))
        boundary = tuple(convex_hull_2d(pts, keep_boundary=True))
        area = shoelace_area(vertices) if len(vertices) >= 3 else Fraction(0)
        return OkounkovBody(pts, vertices, boundary, area)
    vertices = tuple(extreme_points(pts))
    return OkounkovBody(pts, vertices, None, None)


def nok_body(f: SparsePolynomial, grading, subset: Iterable[int]) -> OkounkovBody:
    """Hull of the valuation-matrix columns scaled by 1/degree of each variable."""
    d = _check_grading(f, grading)
    matrix = valuation_matrix(f, subset)
    points = [
        tuple(Fraction(x, d[j]) for x in col) for j, col in enumerate(matrix.columns())
    ]
    return _make_body(points)


def global_nok_cone(
    f: SparsePolynomial, extra_row: Sequence
) -> tuple[Point, ...]:
    """Columns of the lineality basis with one extra row appended underneath.

    The returned vectors generate the global body's cone over the
    non-negative rationals.
    """
    row = tuple(extra_row)
    if len(row) != f.n:
        raise PreconditionError("extra row length differs from variable count")
    rows = list(lineality_basis(f).rows) + [row]
    return tuple(
        canonical_point(tuple(r[j] for r in rows)) for j in range(f.n)
    )


def _split_constraints(constraints: Sequence[Constraint], n: int) -> tuple[list, list]:
    """The rows and the targets of the equalities, each row of length n."""
    if not constraints:
        raise PreconditionError("at least one constraint row is required")
    if any(len(row) != n for row, _ in constraints):
        raise PreconditionError("constraint row length differs from dimension")
    return [row for row, _ in constraints], [t for _, t in constraints]


def graded_component(constraints: Sequence[Constraint], n: int) -> list[Exponent]:
    """All non-negative integer solutions of the given equalities.

    One simplex call looks for a functional phi positive on every column.
    When there is one, phi(target) bounds every coordinate and the
    integer-point kernel solves the equalities inside those bounds.  When
    there is none, some a >= 0 other than 0 solves the homogeneous system
    (Gordan's alternative), so the component is empty when the equalities
    have no non-negative rational solution and infinite, which raises,
    otherwise.  Output is sorted in graded-lex order.
    """
    rows, targets = _split_constraints(constraints, n)
    columns = [tuple(row[j] for row in rows) for j in range(n)]
    # with no columns every functional is positive on each of them
    phi = _positive_functional(columns) if columns else ()
    if phi is None:
        if linalg.nonnegative_solution_exists(rows, targets):
            raise PreconditionError("the graded component is infinite")
        return []
    return sorted(_integer_combinations(columns, targets, phi), key=graded_lex_key)


def equality_polytope_vertices(
    constraints: Sequence[Constraint], n: int
) -> list[Point]:
    """Vertices of {a >= 0 : row . a = target for all constraints}.

    The vertices are the basic feasible solutions: for every set of
    rank-many columns, a unique non-negative solution supported on those
    columns is a vertex.
    """
    rows, targets = _split_constraints(constraints, n)
    found = set()
    for basis in itertools.combinations(range(n), linalg.rank(rows)):
        sol = linalg.solve_unique([[row[j] for j in basis] for row in rows], targets)
        if sol is None or any(x < 0 for x in sol):
            continue
        point = [Fraction(0)] * n
        for j, value in zip(basis, sol):
            point[j] = value
        found.add(canonical_point(point))
    return sorted(found, key=graded_lex_key)


def projected_body(points: Sequence[Sequence], rows: Sequence[Sequence]) -> OkounkovBody:
    """Image of a vertex set under the linear map given by the rows, hulled.

    Planar images come back with the canonical boundary cycle and exact area;
    higher-dimensional images carry hull vertices only.
    """
    if not points:
        raise PreconditionError("projection needs at least one point")
    if any(len(x) != len(points[0]) for x in (*points, *rows)):
        raise PreconditionError("projection rows and points differ in length")
    proj = [tuple(Fraction(x) for x in row) for row in rows]
    images = [
        tuple(sum(r * Fraction(x) for r, x in zip(row, p)) for row in proj)
        for p in points
    ]
    return _make_body(images)
