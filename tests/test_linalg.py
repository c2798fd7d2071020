import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from wellpoised import (
    PreconditionError,
    equality_polytope_vertices,
    graded_component,
    linalg,
    minimal_semigroup_generators,
)
from wellpoised.okounkov import _positive_functional
from oracles import (
    gauss_solve_unique,
    nonnegative_solutions_by_box,
    rank_by_minors,
    row_space_equal,
    rref,
    simplex_fraction,
)


def test_rref_identity_like():
    rows, pivots = rref([[2, 0], [0, 3]])
    assert rows == [(1, 0), (0, 1)]
    assert pivots == [0, 1]


def test_rank_hand_cases():
    # the rank is the number of pivot columns echelon reports
    assert len(linalg.echelon([[1, 2], [2, 4]])[1]) == 1
    assert len(linalg.echelon([[1, 0, 0], [0, 1, 0], [1, 1, 0]])[1]) == 2
    assert len(linalg.echelon([[0, 0], [0, 0]])[1]) == 0


def test_rank_matches_minor_oracle():
    rng = random.Random(7)
    for _ in range(60):
        rows = [
            [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 4))
        ]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        assert len(linalg.echelon(rows)[1]) == rank_by_minors(rows)


def test_row_space_equal():
    a = [[1, 1, 1], [0, 1, 2]]
    b = [[2, 2, 2], [1, 2, 3]]  # scaled row and row sum: same span
    assert row_space_equal(a, b)
    assert not row_space_equal(a, [[1, 0, 0], [0, 1, 0]])


def test_solve_affine_unique():
    assert linalg.solve_unique([[1, 1], [1, -1]], [3, 1]) == (2, 1)


def test_solve_affine_inconsistent():
    assert linalg.solve_unique([[1, 1], [2, 2]], [1, 3]) is None


def test_solve_affine_parametrized():
    # consistent, with a two-dimensional solution set: no unique solution
    assert linalg.solve_unique([[1, 1, 1]], [6]) is None
    # fixing two coordinates pins the third
    assert linalg.solve_unique([[1, 1, 1], [1, 0, 0], [0, 1, 0]], [6, 1, 2]) == (1, 2, 3)


def test_solve_unique_hand_cases():
    # a redundant row leaves the solution unique; a contradicting one leaves none
    assert linalg.solve_unique([[1, 0], [0, 2], [1, 2]], [1, 2, 3]) == (1, 1)
    assert linalg.solve_unique([[1, 0], [0, 2], [1, 2]], [1, 2, 2]) is None
    assert all(type(x) is Fraction for x in linalg.solve_unique([[2]], [1]))


def test_solve_unique_requires_rows():
    with pytest.raises(ValueError):
        linalg.solve_unique([], [])


def test_solve_unique_agrees_with_oracle():
    # square and non-square systems with rational entries: decompose_weight
    # solves n x dim systems
    rng = random.Random(19)
    unique = 0
    for _ in range(200):
        ncols = rng.randint(1, 4)
        nrows = rng.randint(1, 5) if rng.random() < 0.6 else ncols
        rows = [[random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5:  # consistent by construction
            point = [random_entry(rng) for _ in range(ncols)]
            rhs = [sum(a * x for a, x in zip(row, point)) for row in rows]
        else:
            rhs = [random_entry(rng) for _ in range(nrows)]
        sol = linalg.solve_unique(rows, rhs)
        assert sol == gauss_solve_unique(rows, rhs)
        unique += sol is not None and nrows > ncols
    assert unique >= 20


def dot(a, b):
    return sum(Fraction(x) * y for x, y in zip(a, b))


def in_cone(columns, target):
    """Is target a non-negative combination of the columns?  On the double
    description of their cone."""
    equations, facets, _ = linalg.double_description(columns)
    return linalg.in_cone(equations, facets, target)


def positive_functional(columns):
    return _positive_functional(columns, linalg.double_description(columns)[1])


def lp_by_vertices(cost, rows, rhs):
    """Minimise cost . x subject to rows . x = rhs and x >= 0 on the double
    description kernel.  Returns ("infeasible", None) when rhs lies outside
    the cone of the columns; ("unbounded", None) when some r >= 0 with
    rows . r = 0 has cost . r = -1, that is when (0, ..., 0, -1) lies in the
    cone of the columns of [rows; cost]; otherwise ("optimal", the vertices
    of least cost, in graded-lex order)."""
    columns = list(zip(*rows))
    if not in_cone(columns, rhs):
        return "infeasible", None
    if in_cone([(*col, c) for col, c in zip(columns, cost)], [0] * len(rows) + [-1]):
        return "unbounded", None
    vertices = equality_polytope_vertices(list(zip(rows, rhs)), len(cost))
    least = min(dot(cost, v) for v in vertices)
    return "optimal", [v for v in vertices if dot(cost, v) == least]


def test_simplex_square():
    # 0 <= x <= 2, 1 <= y <= 3 in standard form: x + s = 2, y - t = 1, y + u = 3
    rows = [[1, 0, 1, 0, 0], [0, 1, 0, -1, 0], [0, 1, 0, 0, 1]]
    status, corners = lp_by_vertices([0] * 5, rows, [2, 1, 3])
    assert status == "optimal"
    assert sorted((x, y) for x, y, *_ in corners) == [(0, 1), (0, 3), (2, 1), (2, 3)]
    assert lp_by_vertices([-1, -1, 0, 0, 0], rows, [2, 1, 3]) == ("optimal", [(2, 3, 0, 2, 0)])


def test_simplex_infeasible():
    # x >= 1 and x <= 0: x - s = 1, x + t = 0
    assert lp_by_vertices([0, 0, 0], [[1, -1, 0], [1, 0, 1]], [1, 0]) == ("infeasible", None)


def test_simplex_random_constructed():
    # c . x >= lo around a known centre, with x = p - q and one slack per row
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 3)
        center = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        ineqs = []
        for _ in range(rng.randint(1, 6)):
            coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            slack = Fraction(rng.randint(0, 4))
            ineqs.append((coeffs, sum(c * x for c, x in zip(coeffs, center)) - slack))
        rows = [
            [*c, *(-x for x in c), *(-int(i == j) for j in range(len(ineqs)))]
            for i, (c, _) in enumerate(ineqs)
        ]
        status, vertices = lp_by_vertices([0] * len(rows[0]), rows, [lo for _, lo in ineqs])
        assert status == "optimal"
        for sol in vertices:
            assert all(v >= 0 for v in sol)
            pt = [sol[j] - sol[n + j] for j in range(n)]
            for coeffs, lo in ineqs:
                assert sum(c * x for c, x in zip(coeffs, pt)) >= lo


def test_simplex_coordinate_bounds():
    # x + y >= 2, x <= 5, y <= 5 over x, y >= 0: x ranges over [0, 5]
    rows = [[1, 1, -1, 0, 0], [1, 0, 0, 1, 0], [0, 1, 0, 0, 1]]
    rhs = [2, 5, 5]
    assert {v[0] for v in lp_by_vertices([1, 0, 0, 0, 0], rows, rhs)[1]} == {0}
    assert {v[0] for v in lp_by_vertices([-1, 0, 0, 0, 0], rows, rhs)[1]} == {5}
    # only x, y >= 0: y is unbounded above
    assert lp_by_vertices([0, -1], [[0, 0]], [0]) == ("unbounded", None)
    assert lp_by_vertices([0, 1], [[0, 0]], [0]) == ("optimal", [(0, 0)])


def test_simplex_coordinate_bounds_infeasible():
    # x >= 2 and x <= 1
    rows = [[1, -1, 0], [1, 0, 1]]
    assert lp_by_vertices([1, 0, 0], rows, [2, 1])[0] == "infeasible"
    assert lp_by_vertices([-1, 0, 0], rows, [2, 1])[0] == "infeasible"


BEALE_COST = [Fraction(-3, 4), 150, Fraction(-1, 50), 6, 0, 0, 0]
BEALE_ROWS = [
    [Fraction(1, 4), -60, Fraction(-1, 25), 9, 1, 0, 0],
    [Fraction(1, 2), -90, Fraction(-1, 50), 3, 0, 1, 0],
    [0, 0, 1, 0, 0, 0, 1],
]
# A fourth row with target 0 that makes a Phase I simplex's reduced costs
# equal Beale's costs; it forces x3 = x7 = 0 against x3 + x7 = 1.
BEALE_FOURTH = [-c - sum(r[j] for r in BEALE_ROWS) for j, c in enumerate(BEALE_COST)]


def test_simplex_beale_degenerate_cycle():
    # Beale's LP (in Chvatal's form): the largest-coefficient simplex rule
    # cycles on its degenerate vertex 0; its optimum is -1/20
    status, best = lp_by_vertices(BEALE_COST, BEALE_ROWS, [0, 0, 1])
    assert status == "optimal"
    assert best == [(Fraction(1, 25), 0, 1, 0, Fraction(3, 100), 0, 0)]
    assert dot(BEALE_COST, best[0]) == Fraction(-1, 20)
    beale_infeasible = ([0] * 7, BEALE_ROWS + [BEALE_FOURTH], [0, 0, 1, 0])
    assert lp_by_vertices(*beale_infeasible) == ("infeasible", None)


REDUNDANT_ROWS = [[1, 1, 0], [2, 2, 0], [0, 0, 0], [0, 1, 1]]


def test_simplex_redundant_rows():
    # a repeated equality and an all-zero row
    assert lp_by_vertices([0, 0, -1], REDUNDANT_ROWS, [1, 2, 0, 3]) == ("optimal", [(1, 0, 3)])


def random_entry(rng, bound=4):
    if rng.random() < 0.7:
        return rng.randint(-bound, bound)
    return Fraction(rng.randint(-bound, bound), rng.choice([2, 3, 5]))


def random_lp(rng):
    """A small LP: rational entries, planted or random (often negative) rhs,
    now and then a zero row or a rational multiple of another row."""
    n = rng.randint(1, 6)
    rows = [[random_entry(rng) for _ in range(n)] for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:  # feasible by construction, often degenerate
        point = [rng.choice([0, 0, 1, 2, Fraction(1, 2)]) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, point)) for row in rows]
    else:
        rhs = [random_entry(rng, 6) for _ in rows]
    if rng.random() < 0.3:
        rows.append([0] * n)
        rhs.append(rng.choice([0, 0, 1]))
    if rng.random() < 0.3:
        i, k = rng.randrange(len(rows)), Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
        rows.append([k * a for a in rows[i]])
        rhs.append(k * rhs[i])
    cost = [random_entry(rng) for _ in range(n)]
    return cost, rows, rhs


def test_simplex_matches_fraction_oracle():
    # same status as a Fraction-tableau Bland simplex, whose optimum is a
    # vertex of least cost
    rng = random.Random(31)
    statuses = []
    for _ in range(400):
        cost, rows, rhs = random_lp(rng)
        status, best = lp_by_vertices(cost, rows, rhs)
        expected, x = simplex_fraction(cost, rows, rhs)
        assert status == expected
        assert x is None or x in best
        statuses.append(status)
    for status in ("optimal", "infeasible", "unbounded"):
        assert statuses.count(status) >= 40
    beale = (BEALE_COST, BEALE_ROWS, [0, 0, 1])
    for lp in (beale, ([0] * 7, BEALE_ROWS + [BEALE_FOURTH], [0, 0, 1, 0])):
        expected, x = simplex_fraction(*lp)
        status, best = lp_by_vertices(*lp)
        assert status == expected and (x is None or x in best)


NONNEGATIVE_CASES = [
    ([[1, 1]], [1]),  # x + y = 1 with x, y >= 0: feasible
    ([[1, 1]], [-1]),  # x + y = -1 with x, y >= 0: infeasible
    ([[1, -1], [1, 1]], [0, 2]),  # x - y = 0, x + y = 2: unique (1, 1)
    ([[1, -1], [1, 1]], [0, -2]),
]


def lp_feasible(rows, rhs):
    return simplex_fraction([0] * len(rows[0]), rows, rhs)[0] != "infeasible"


def test_double_description_matches_the_lp_oracle():
    # cone membership and the positive functional against Fraction-tableau
    # LPs: rhs is in the cone of the columns when rows . x = rhs has a
    # solution x >= 0, and a functional phi positive on every column exists
    # when (p - q) . v - s_v = 1 has one with p, q, s >= 0
    rng = random.Random(47)
    systems = [
        *NONNEGATIVE_CASES,
        (BEALE_ROWS, [0, 0, 1]),
        (BEALE_ROWS + [BEALE_FOURTH], [0, 0, 1, 0]),
        (REDUNDANT_ROWS, [1, 2, 0, 3]),
    ]
    for _ in range(500):
        n = rng.randint(1, 8)
        rows = [[rng.randint(-3, 5) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.15:  # a zero column
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        if rng.random() < 0.5:  # in the cone by construction
            point = [rng.randint(0, 2) for _ in range(n)]
            rhs = [dot(row, point) for row in rows]
        else:
            rhs = [rng.randint(-3, 5) for _ in rows]
        systems.append((rows, rhs))
    seen = Counter()
    for rows, rhs in systems:
        columns = list(zip(*rows))
        equations, facets, masks = linalg.double_description(columns)
        for j, v in enumerate(columns):
            assert all(dot(e, v) == 0 for e in equations)
            for f, mask in zip(facets, masks):
                assert dot(f, v) >= 0 and (dot(f, v) == 0) == bool(mask >> j & 1)
        member = linalg.in_cone(equations, facets, rhs)
        assert member == lp_feasible(rows, rhs)
        phi = _positive_functional(columns, facets)
        k = len(columns)
        surplus = [
            [*v, *(-x for x in v), *(-int(i == j) for j in range(k))] for i, v in enumerate(columns)
        ]
        assert (phi is not None) == lp_feasible(surplus, [1] * k)
        assert phi is None or all(dot(phi, v) > 0 for v in columns)
        seen[member, phi is not None] += 1
    assert min(seen[key] for key in itertools.product((False, True), repeat=2)) >= 25


def test_double_description_edge_cones():
    # the upper half-plane holds a line: no functional is positive on it
    half = [(1, 0), (-1, 0), (0, 1)]
    assert positive_functional(half) is None
    assert in_cone(half, (-5, 0)) and in_cone(half, (3, 2)) and not in_cone(half, (0, -1))
    # a line alone has no facets: membership is the equations
    line = [(1, 1, 0), (-2, -2, 0)]
    equations, facets, masks = linalg.double_description(line)
    assert len(equations) == 2 and facets == () and masks == []
    assert positive_functional(line) is None
    assert in_cone(line, (-4, -4, 0)) and in_cone(line, (3, 3, 0))
    assert not in_cone(line, (1, 0, 0)) and not in_cone(line, (1, 1, 1))
    # a quadrant in a plane of 3-space: one equation, two facets
    plane = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)]
    equations, facets, masks = linalg.double_description(plane)
    assert len(equations) == 1 and len(facets) == 2 and sorted(masks) == [0b01, 0b10]
    phi = positive_functional(plane)
    assert phi is not None and all(dot(phi, v) > 0 for v in plane)
    assert in_cone(plane, (1, 2, 0)) and in_cone(plane, (0, 0, 0))
    assert not in_cone(plane, (1, 2, 1)) and not in_cone(plane, (-1, 2, 0))
    # a zero column: no functional is positive on it
    assert positive_functional([(1, 0), (0, 0)]) is None
    assert positive_functional([(0, 0)]) is None
    # the cube {0,1,2}^4 with its interior and face points: many facet pairs
    # share enough zeros to pass the count test yet are not adjacent
    cube = [(*p, 1) for p in itertools.product(range(3), repeat=4)]
    equations, facets, masks = linalg.double_description(cube)
    assert equations == () and len(facets) == 8
    for f, mask in zip(facets, masks):
        assert all(dot(f, v) >= 0 for v in cube)
        assert mask == sum(1 << j for j, v in enumerate(cube) if dot(f, v) == 0)
        assert mask.bit_count() == 27
    # no vectors at all
    assert linalg.double_description([]) == ((), (), [])
    with pytest.raises(PreconditionError):
        minimal_semigroup_generators([])
    assert graded_component([((), 0)], 0) == [()]


def rational_gauss_jordan_row(m, r, c, i):
    """Row i after a rational pivot on (r, c) that scales row r to 1."""
    pivot_row = [Fraction(x, m[r][c]) for x in m[r]]
    if i == r:
        return pivot_row
    return [x - m[i][c] * y for x, y in zip(m[i], pivot_row)]


def test_pivot_rows_are_primitive_positive_multiples():
    rng = random.Random(37)
    for _ in range(60):
        width = rng.randint(2, 7)
        m = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(rng.randint(2, 6))]
        r = 0
        for c in range(width):
            row = next((i for i in range(r, len(m)) if m[i][c]), None)
            if row is None:
                continue
            m[r], m[row] = m[row], m[r]
            before = [list(x) for x in m]
            linalg._pivot(m, r, c)
            assert m[r][c] > 0
            for i, new in enumerate(m):
                expected = rational_gauss_jordan_row(before, r, c, i)
                k = next((Fraction(x) / y for x, y in zip(new, expected) if y), None)
                if k is None:
                    assert not any(new)
                else:
                    assert k > 0 and all(x == k * y for x, y in zip(new, expected))
                if i != r and before[i][c]:  # changed rows are primitive
                    assert math.gcd(*new) in (0, 1)
            r += 1


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for _ in range(150):
        width = rng.randint(1, 6)
        rows = [[random_entry(rng, 5) for _ in range(width)] for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), [0] * width)
        if rng.random() < 0.3:
            j = rng.randrange(width)
            for row in rows:
                row[j] = 0
        if rng.random() < 0.3:  # negative leading entries
            rows = [[-abs(Fraction(x)) if x else x for x in row] for row in rows]
        reduced, pivots = rref(rows)
        expected, expected_pivots = sympy.Matrix(rows).rref()
        assert pivots == list(expected_pivots)
        assert reduced == [
            tuple(Fraction(int(x.p), int(x.q)) for x in expected.row(i))
            for i in range(len(pivots))
        ]
        assert all(type(x) is Fraction for row in reduced for x in row)


def test_nonnegative_solution_exists():
    for (rows, rhs), feasible in zip(NONNEGATIVE_CASES, [True, False, True, False]):
        assert in_cone(list(zip(*rows)), rhs) == feasible


def test_primitive_integer():
    assert linalg.primitive_integer([4, -6, 2]) == (2, -3, 1)
    assert linalg.primitive_integer([0, 0]) == (0, 0)
    # an entry that is not an int raises instead of being truncated to (1, 3)
    with pytest.raises(TypeError):
        linalg.primitive_integer([1.5, 3])


def box_scan(rows, rhs, bounds):
    """Every point of the integer box that satisfies the equalities."""
    return [
        x
        for x in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))
        if all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(rows, rhs))
    ]


def test_integer_points_hand_cases():
    # 2x + 4y = 6 reduces to x = 3 - 2y, whole for every y; y runs upward
    assert list(linalg.integer_points([[2, 4]], [6], [(-5, 5), (-5, 5)])) == [
        (5, -1),
        (3, 0),
        (1, 1),
        (-1, 2),
        (-3, 3),
        (-5, 4),
    ]
    # 2x + 3y = 6 keeps the pivot 2 on x: x = (6 - 3y) / 2 is whole for even y
    assert list(linalg.integer_points([[2, 3]], [6], [(-5, 5), (-2, 3)])) == [
        (3, 0),
        (0, 2),
    ]
    # 4x + 2y = 3 has no integer point at all
    assert list(linalg.integer_points([[4, 2]], [3], [(-5, 5), (-5, 5)])) == []
    # x/2 + y/3 = 5/6 with x, y in [0, 9]
    half_third = [[Fraction(1, 2), Fraction(1, 3)]]
    assert list(linalg.integer_points(half_third, [Fraction(5, 6)], [(0, 9), (0, 9)])) == [(1, 1)]
    # inconsistent rows, and a zero row with a nonzero rhs
    assert list(linalg.integer_points([[1, 1], [2, 2]], [1, 3], [(0, 3), (0, 3)])) == []
    assert list(linalg.integer_points([[0, 0]], [1], [(0, 3), (0, 3)])) == []
    # zero rows with zero rhs, and no rows at all, leave the whole box
    box = [(-1, 1), (0, 2)]
    assert list(linalg.integer_points([[0, 0]], [0], box)) == box_scan([], [], box)
    assert list(linalg.integer_points([], [], box)) == box_scan([], [], box)
    # an empty bound empties the answer, even on a pivot coordinate
    assert list(linalg.integer_points([[1, 1]], [2], [(0, 2), (3, 1)])) == []
    assert list(linalg.integer_points([[1, -1]], [0], [(2, 1), (0, 3)])) == []
    # a square system: no free coordinate, the pivot bounds alone decide
    assert list(linalg.integer_points([[1, 0], [0, 1]], [2, 3], [(0, 2), (0, 3)])) == [(2, 3)]
    assert list(linalg.integer_points([[1, 0], [0, 1]], [2, 3], [(0, 2), (0, 2)])) == []
    # pivots 2 and 3: a target that is not a multiple leaves no point
    diagonal = [[2, 0], [0, 3]]
    assert list(linalg.integer_points(diagonal, [3, 6], [(0, 5), (0, 5)])) == []
    assert list(linalg.integer_points(diagonal, [4, 6], [(0, 5), (0, 5)])) == [(2, 2)]
    # no columns at all: the empty point, unless a row asks 0 = 1
    assert list(linalg.integer_points([], [], [])) == [()]
    assert list(linalg.integer_points([[]], [0], [])) == [()]
    assert list(linalg.integer_points([[]], [1], [])) == []
    # callers filter the points that pass the equalities
    kept = filter(lambda x: x[0] == 1, linalg.integer_points([[1, 1, 1]], [2], [(0, 2)] * 3))
    assert sorted(kept) == [(1, 0, 1), (1, 1, 0)]


def test_integer_points_narrow_negative_free_columns():
    # x = 1 + 2y: the free y has coefficient -2 in x's row, and the bounds
    # on y are far wider than the 50 points
    assert sorted(linalg.integer_points([[1, -2]], [1], [(0, 100), (-100, 100)])) == [
        (1 + 2 * y, y) for y in range(50)
    ]
    # x = z - y - 3 in [0, 2]: for each y, z runs over y+3..y+5 inside its bounds
    bounds = [(0, 2), (-50, 50), (-40, 60)]
    found = list(linalg.integer_points([[1, 1, -1]], [-3], bounds))
    assert sorted(found) == sorted(
        (z - y - 3, y, z) for y in range(-50, 51) for z in range(y + 3, y + 6) if -40 <= z <= 60
    )
    assert sorted(found) == box_scan([[1, 1, -1]], [-3], bounds)
    # the search is lazy: the first points of a huge box come at once
    points = linalg.integer_points([[1] * 6], [30], [(0, 10**6)] * 6)
    first, second = next(points), next(points)
    assert first != second
    assert all(sum(x) == 30 and min(x) >= 0 for x in (first, second))


def _random_system(rng, n, spread):
    """Up to three rational rows, sometimes a zero row, with a planted point
    whose rhs is now and then moved; bounds around the point, now and then
    cutting it off, widen by up to spread on each side."""
    rows = [
        [
            rng.randint(-3, 3)
            if rng.random() < 0.8
            else Fraction(rng.randint(-5, 5), rng.choice([2, 3]))
            for _ in range(n)
        ]
        for _ in range(rng.randint(0, 3))
    ]
    if rows and rng.random() < 0.2:
        rows.append([0] * n)  # zero row, consistent or not
    point = [rng.randint(-2, 2) for _ in range(n)]
    rhs = [sum(Fraction(a) * v for a, v in zip(row, point)) for row in rows]
    if rhs and rng.random() < 0.3:
        rhs[rng.randrange(len(rhs))] += Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
    bounds = [(v - rng.randint(0, spread), v + rng.randint(-1, spread)) for v in point]
    return rows, rhs, bounds


def test_integer_points_match_box_scan():
    rng = random.Random(23)
    nonempty = 0
    for _ in range(150):
        rows, rhs, bounds = _random_system(rng, rng.randint(1, 4), 3)
        expected = box_scan(rows, rhs, bounds)
        found = list(linalg.integer_points(rows, rhs, bounds))
        # each point once (box_scan is already in lexicographic order)
        assert sorted(found) == expected
        assert all(type(v) is int for x in found for v in x)
        nonempty += bool(expected)
        if rng.random() < 0.5:  # a caller-side filter keeps the scan order
            even = lambda x: sum(x) % 2 == 0  # noqa: E731
            assert list(filter(even, linalg.integer_points(rows, rhs, bounds))) == [
                x for x in found if even(x)
            ]
    assert nonempty >= 60


def test_integer_points_match_box_scan_in_wide_bounds():
    rng = random.Random(29)
    nonempty = 0
    for _ in range(60):
        rows, rhs, bounds = _random_system(rng, rng.randint(2, 3), 12)
        if not rows:
            continue
        expected = box_scan(rows, rhs, bounds)
        found = list(linalg.integer_points(rows, rhs, bounds))
        assert sorted(found) == expected
        nonempty += bool(expected)
    assert nonempty >= 20


def test_integer_points_step_past_the_range():
    # 7x + z = 3 asks z = 3 (mod 7): the step 7 is wider than z's range
    assert list(linalg.integer_points([[7, 0, 1]], [3], [(-5, 5), (0, 0), (0, 5)])) == [
        (0, 0, 3)
    ]
    assert list(linalg.integer_points([[7, 0, 1]], [3], [(-5, 5), (0, 0), (4, 9)])) == []
    # 3x + z = 1 and 5y + z = 2 fold into z = 7 (mod 15), with z in [0, 10]
    rows, rhs = [[3, 0, 1], [0, 5, 1]], [1, 2]
    assert list(linalg.integer_points(rows, rhs, [(-9, 9), (-9, 9), (0, 10)])) == [(-2, -1, 7)]
    # 2x + z = 1 and 4y + 2z = 1: no integer z makes both pivots whole
    assert list(linalg.integer_points([[2, 0, 1], [0, 4, 2]], [1, 1], [(-9, 9)] * 3)) == []


def _congruence_system(rng):
    """Two or three pivot rows already in echelon form, each den * x[i] plus
    terms of one or two free columns, with denominators > 1 that are now
    coprime, now sharing factors; the last free column's entries include 0
    and negative values.  The rhs comes from a planted point, now and then
    moved by one, so some congruences cannot all hold."""
    pivots, free = rng.choice([(2, 1), (3, 1), (2, 2)])
    dens = rng.sample(rng.choice([[3, 5, 7], [4, 6, 10], [2, 4, 8], [6, 9, 12], [1, 5, 12]]), pivots)
    n = pivots + free
    rows = []
    for i, d in enumerate(dens):
        row = [d if j == i else 0 for j in range(pivots)]
        row += [rng.randint(-3, 3) for _ in range(free - 1)]
        row.append(rng.choice([0, -1, 1, -2, 2, -3, 5, -6]))
        rows.append(row)
    point = [rng.randint(-2, 2) for _ in range(pivots)] + [rng.randint(-20, 20) for _ in range(free)]
    rhs = [sum(a * v for a, v in zip(row, point)) for row in rows]
    if rng.random() < 0.4:
        rhs[rng.randrange(len(rhs))] += rng.choice([-1, 1])
    order = list(range(len(rows)))
    rng.shuffle(order)
    rows, rhs = [rows[i] for i in order], [rhs[i] for i in order]
    wide = 60 if free == 1 else 6
    bounds = [(v - rng.randint(0, 4), v + rng.randint(0, 4)) for v in point[:pivots]]
    bounds += [(v - rng.randint(0, wide), v + rng.randint(0, wide)) for v in point[pivots:]]
    return rows, rhs, bounds


def test_integer_points_step_through_residue_classes():
    rng = random.Random(31)
    nonempty = empty = 0
    for _ in range(120):
        rows, rhs, bounds = _congruence_system(rng)
        expected = box_scan(rows, rhs, bounds)
        found = list(linalg.integer_points(rows, rhs, bounds))
        assert sorted(found) == expected
        nonempty += bool(expected)
        empty += not expected
    assert nonempty >= 70 and empty >= 25


def test_integer_points_follow_a_permutation_of_the_columns():
    # the kernel picks its pivots by bound width, not by column position, so
    # permuting the columns and their bounds permutes the point set exactly
    rng = random.Random(37)
    nonempty = 0
    for i in range(120):
        if i % 2:
            rows, rhs, bounds = _congruence_system(rng)
        else:
            rows, rhs, bounds = _random_system(rng, rng.randint(2, 5), rng.choice([2, 6]))
        n = len(bounds)
        found = sorted(linalg.integer_points(rows, rhs, bounds))
        perm = rng.sample(range(n), n)
        permuted = [[row[j] for j in perm] for row in rows]
        moved = list(linalg.integer_points(permuted, rhs, [bounds[j] for j in perm]))
        assert sorted(moved) == sorted(tuple(x[j] for j in perm) for x in found)
        assert len(set(moved)) == len(moved)
        nonempty += bool(found)
    assert nonempty >= 50


def _many_row_system(rng):
    """Four to six rows on eight to ten columns, each column one of four to
    seven kinds whose first entry, a positive grade, caps the column and
    whose other entries lie in -2..3 (columns of one kind trade places, so
    a component often holds more than its planted point >= 0, from which
    the targets come); redrawn until the box of the caps holds at most
    2 * 10**4 points."""
    while True:
        n, k = rng.randint(8, 10), rng.randint(4, 6)
        kinds = [
            [rng.randint(1, 3), *(rng.randint(-2, 3) for _ in range(k - 1))]
            for _ in range(rng.randint(4, 7))
        ]
        rows = [list(row) for row in zip(*(rng.choice(kinds) for _ in range(n)))]
        point = [rng.choice([0, 0, 1, 1, 2]) for _ in range(n)]
        targets = [sum(a * v for a, v in zip(row, point)) for row in rows]
        caps = [targets[0] // w for w in rows[0]]
        if math.prod(cap + 1 for cap in caps) <= 2 * 10**4:
            return rows, targets, caps


def test_many_row_graded_components_match_the_box_oracle():
    rng = random.Random(41)
    sizes = Counter()
    for _ in range(12):
        rows, targets, caps = _many_row_system(rng)
        expected = nonnegative_solutions_by_box(rows, targets, caps)
        found = list(linalg.integer_points(rows, targets, [(0, cap) for cap in caps]))
        assert sorted(found) == expected
        assert sorted(graded_component(list(zip(rows, targets)), len(caps))) == expected
        sizes[len(expected) > 1] += 1
    # every draw keeps its planted point; most keep others too
    assert sizes[True] >= 8
