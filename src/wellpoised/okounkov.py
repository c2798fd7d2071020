"""Valuation matrices of maximal prime cones and their Newton-Okounkov data.

For a two-element term subset S the matrix M_S stacks the homogeneity vector,
the kernel basis vectors, and the rays of the complement of S; its columns
are the variable valuations and generate the value semigroup.  Dividing each
column by the degree its variable carries under a positive grading and taking
the convex hull produces the Newton-Okounkov body.  The module also handles
graded components, read off the vertices and rays of {a >= 0 : R a = t}, and
the polygon projections used to reproduce planar bodies exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

from . import linalg
from .fan import cone, lineality_basis
from .geometry import convex_hull_2d, extreme_points, shoelace_area
from .polynomial import (
    Exponent,
    PreconditionError,
    SparsePolynomial,
    _exact_ints,
    _Frozen,
    _term_subset,
    canonical_point,
    graded_lex_key,
)

Point = tuple

# An equality constraint (row, target) stands for  row . a == target.
Constraint = tuple[Sequence, int]


class ValuationMatrix(_Frozen):
    """(n-1) x n integer matrix of full rational rank, rows in fixed order:
    homogeneity vector, kernel vectors, then rays of the complement of S.
    Modulo the kernel vectors, v_f reads lcm(degrees) on every term and ray i
    reads -deg_i on term i alone; v_f is nonzero on both terms of S, where
    every ray is zero, so the rank is always n - 1."""

    _fields = ("S", "rows")

    def __init__(self, S: tuple[int, int], rows: tuple[tuple[int, ...], ...]):
        d = self.__dict__
        d["S"], d["rows"] = S, rows

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def columns(self) -> list[tuple[int, ...]]:
        return [tuple(row[j] for row in self.rows) for j in range(self.n)]


def valuation_matrix(f: SparsePolynomial, subset: Iterable[int]) -> ValuationMatrix:
    s = _term_subset(f, subset)
    if len(s) != 2:
        raise PreconditionError("the subset S must have exactly two elements")
    c = cone(f, s)
    return ValuationMatrix(c.S, (*c.lineality.rows, *(ray.w for ray in c.rays)))


def variable_valuations(m: ValuationMatrix) -> list[tuple[int, tuple[int, ...]]]:
    """The matrix columns, labeled by 0-based variable index.

    These vectors generate the value semigroup under addition.
    """
    return list(enumerate(m.columns()))


def _positive_functional(vectors: Sequence[Point], facets: Sequence) -> Optional[tuple[int, ...]]:
    """The sum of the facets of cone(vectors) when it is positive on every
    vector, else None: then no functional is.

    Every facet is non-negative on the cone, and a nonzero point of a cone
    with no line lies off some facet; so the sum is positive on every vector
    exactly when no vector is 0 and the cone holds no line.
    """
    phi = tuple(map(sum, zip(*facets)))
    return phi if all(sum(map(mul, phi, v)) > 0 for v in vectors) else None


def minimal_semigroup_generators(vectors: Iterable[Sequence]) -> tuple[Point, ...]:
    """Irredundant subset of the given generators.

    Requires a linear functional phi strictly positive on every generator (so
    the generated semigroup is pointed and the minimal set is unique).  A
    generator g is dropped when g = sum of c_h * h over the other kept
    generators h with integers c_h >= 0; phi bounds each c_h, and the
    integer-point kernel stops at the first such c.
    """
    gens = sorted({canonical_point(v) for v in vectors}, key=graded_lex_key)
    # with no generators the sum of no facets is (): no functional either
    phi = _positive_functional(gens, linalg.double_description(gens)[1])
    if not phi:
        raise PreconditionError(
            "no strictly positive functional; minimal generators are undefined"
        )
    value = {g: sum(map(mul, phi, g)) for g in gens}
    kept = list(gens)
    for g in gens:
        others = [h for h in kept if h != g]
        rows = [[h[i] for h in others] for i in range(len(g))]
        bounds = [(0, value[g] // value[h]) for h in others]
        if next(linalg.integer_points(rows, g, bounds), None) is not None:
            kept = others
    return tuple(kept)


class GradingImage(_Frozen):
    """Degrees of the variables under a grading matrix, plus the minimal
    generating set of the semigroup those degrees generate."""

    _fields = ("degrees", "minimal_generators")

    def __init__(self, degrees: tuple[Point, ...], minimal_generators: tuple[Point, ...]):
        d = self.__dict__
        d["degrees"], d["minimal_generators"] = degrees, minimal_generators


def grading_image(
    f: SparsePolynomial, rows: Optional[Sequence[Sequence]] = None
) -> GradingImage:
    """Image of each variable under the grading rows (default: lineality basis)."""
    if rows is None:
        rows = lineality_basis(f).rows
    rows = [canonical_point(r) for r in rows]
    if any(len(r) != f.n for r in rows):
        raise PreconditionError("grading rows must have one entry per variable")
    degrees = tuple(tuple(row[j] for row in rows) for j in range(f.n))
    return GradingImage(degrees, minimal_semigroup_generators(degrees))


class Grading(_Frozen):
    """Strictly positive integer degrees making every term of f weigh the same."""

    _fields = ("entries",)

    def __init__(self, entries: Sequence[int]):
        try:
            entries = _exact_ints(entries)
        except ValueError:  # a value that int() would truncate
            entries = ()
        if not entries or any(e <= 0 for e in entries):
            raise PreconditionError("grading entries must be positive integers")
        self.__dict__["entries"] = entries

    def __getitem__(self, j: int) -> int:
        return self.entries[j]


def _check_grading(f: SparsePolynomial, grading) -> Grading:
    d = grading if isinstance(grading, Grading) else Grading(grading)
    if len(d.entries) != f.n:
        raise PreconditionError("grading length differs from variable count")
    values = {sum(e * w for e, w in zip(t.exponent, d.entries)) for t in f.terms}
    if len(values) != 1:
        raise PreconditionError("polynomial is not homogeneous for this grading")
    return d


class OkounkovBody(_Frozen):
    """A convex body given by its defining points and exact hull data.

    vertices is the minimal V-representation.  For planar bodies, boundary is
    the counter-clockwise cycle (from the lex-min point) of all defining
    points on the hull's boundary, including non-extreme ones, and area is
    the exact shoelace area; both are None in higher ambient dimension.
    """

    _fields = ("points", "vertices", "boundary", "area")

    def __init__(
        self,
        points: tuple[Point, ...],
        vertices: tuple[Point, ...],
        boundary: Optional[tuple[Point, ...]],
        area: Optional[Fraction],
    ):
        d = self.__dict__
        d["points"], d["vertices"], d["boundary"], d["area"] = points, vertices, boundary, area


def _make_body(points: Sequence[Sequence]) -> OkounkovBody:
    pts = tuple(canonical_point(p) for p in points)
    if not pts:
        raise PreconditionError("a body needs at least one point")
    ambient = len(pts[0])
    if ambient == 2:
        boundary = tuple(convex_hull_2d(pts, keep_boundary=True))
        vertices = tuple(convex_hull_2d(boundary))
        return OkounkovBody(pts, vertices, boundary, shoelace_area(boundary))
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
    row = canonical_point(extra_row)
    if len(row) != f.n:
        raise PreconditionError("extra row length differs from variable count")
    rows = (*lineality_basis(f).rows, row)
    return tuple(tuple(r[j] for r in rows) for j in range(f.n))


def _split_constraints(constraints: Sequence[Constraint], n: int) -> tuple[list, list]:
    """The rows and the targets of the equalities, each row of length n."""
    if not constraints:
        raise PreconditionError("at least one constraint row is required")
    rows = [canonical_point(row) for row, _ in constraints]
    if any(len(row) != n for row in rows):
        raise PreconditionError("constraint row length differs from dimension")
    return rows, canonical_point([t for _, t in constraints])


def _nonnegative_polyhedron(constraints: Sequence[Constraint], n: int) -> tuple[list, list]:
    """The vertices, in graded-lex order, and the extreme rays of
    {a >= 0 : row . a = target for all constraints}: the extreme rays (a, s)
    of C = {(a, s) >= 0 : R a = t s} with s > 0, scaled to s = 1, and with
    s = 0.  One echelon of [R | -t] gives an integer matrix K whose columns
    span its kernel: for each free column f, d e_f minus the sum, over the
    pivot rows p with pivot column c, of (d / p_c) p_f e_c, where d is the
    lcm of the pivot entries p_c.  Then C = {K y : K y >= 0}.  The extreme
    rays y of {y : K y >= 0} are the facets of the cone that the rows of K
    generate, and row i of K reads coordinate i of (a, s) = K y off each of
    them, so the rays are integer; each is divided by its gcd.
    """
    rows, targets = _split_constraints(constraints, n)
    reduced, pivots = linalg.echelon([[*row, -t] for row, t in zip(rows, targets)])
    free = [f for f in range(n + 1) if f not in pivots]
    d = math.lcm(*(p[c] for p, c in zip(reduced, pivots)))
    coordinates = [[d * (f == i) for f in free] for i in range(n + 1)]
    for p, c in zip(reduced, pivots):
        coordinates[c] = [-(d // p[c]) * p[f] for f in free]
    vertices, rays = [], []
    for y in linalg.double_description(coordinates)[1]:
        *a, s = (sum(map(mul, y, k)) for k in coordinates)
        if s:
            vertices.append(tuple(Fraction(x, s) if x % s else x // s for x in a))
        else:
            rays.append(linalg.primitive_integer(a))
    return sorted(vertices, key=graded_lex_key), rays


def graded_component(constraints: Sequence[Constraint], n: int) -> list[Exponent]:
    """All non-negative integer solutions of the given equalities.

    Their polyhedron P holds no line: it is empty without a vertex, else
    conv(V) + cone(W) for its vertices V and rays W (Schrijver, Theory of
    Linear and Integer Programming, 1986, section 16).  An integer point of
    P minus whole multiples of the rays lies in the box 0 <= a_j <= max over
    V of v_j + sum over W of w_j, which the integer-point kernel searches;
    with rays one point there gives infinitely many, which raises.  Output
    is sorted in graded-lex order.
    """
    rows, targets = _split_constraints(constraints, n)
    vertices, rays = _nonnegative_polyhedron(constraints, n)
    if not vertices:
        return []
    bounds = [(0, math.floor(max(v[j] for v in vertices)) + sum(w[j] for w in rays))
              for j in range(n)]
    points = linalg.integer_points(rows, targets, bounds)
    if not rays:
        return sorted(points, key=graded_lex_key)
    if next(points, None) is not None:
        raise PreconditionError("the graded component is infinite")
    return []


def equality_polytope_vertices(
    constraints: Sequence[Constraint], n: int
) -> list[Point]:
    """Vertices of {a >= 0 : row . a = target for all constraints}, in
    graded-lex order (without the rays of an unbounded set)."""
    return _nonnegative_polyhedron(constraints, n)[0]


def projected_body(points: Sequence[Sequence], rows: Sequence[Sequence]) -> OkounkovBody:
    """Image of a vertex set under the linear map given by the rows, hulled.

    Planar images come back with the canonical boundary cycle and exact area;
    higher-dimensional images carry hull vertices only.
    """
    pts = [canonical_point(p) for p in points]
    if not pts:
        raise PreconditionError("projection needs at least one point")
    proj = [canonical_point(row) for row in rows]
    if any(len(x) != len(pts[0]) for x in (*pts, *proj)):
        raise PreconditionError("projection rows and points differ in length")
    return _make_body([tuple(sum(map(mul, row, p)) for row in proj) for p in pts])
