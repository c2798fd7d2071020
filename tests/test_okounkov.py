import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wellpoised import (
    LatticePolytope,
    PreconditionError,
    SparsePolynomial,
    Term,
    classify_weight,
    cone,
    convex_hull_2d,
    decompose_weight,
    equality_polytope_vertices,
    exponent_gcd,
    global_nok_cone,
    graded_component,
    graded_lex_key,
    grading_image,
    homogeneity_vector,
    in_convex_hull,
    initial_form,
    is_well_poised,
    minimal_semigroup_generators,
    nok_body,
    parse,
    projected_body,
    shoelace_area,
    valuation_matrix,
    variable_valuations,
)
from wellpoised import cli, fan, linalg, okounkov, polynomial
from wellpoised.geometry import extreme_points
from wellpoised.polynomial import canonical_point, canonical_points
from oracles import (
    minimal_generators_by_closure,
    nonnegative_solutions_by_box,
    polytope_vertices_by_zero_sets,
    primitive_row,
    random_disjoint_polynomial,
    rank_by_minors,
    triangulation_area,
)

XYZW = ["x", "y", "z", "w"]
F = parse("x + y^2 + z*w", XYZW)
DP = parse("T1*T2 + T3^2 + T4*T5", ["T1", "T2", "T3", "T4", "T5"])

DP_CONSTRAINTS = [((1, -1, 0, -1, 1), 0), ((1, 1, 1, 0, 2), 6)]
SQUARE = LatticePolytope.from_points([(0, 0), (2, 0), (0, 2), (2, 2)])


def test_valuation_matrices_byte_exact():
    assert valuation_matrix(F, (1, 2)).rows == (
        (2, 1, 1, 1),
        (0, 0, 1, -1),
        (0, 0, -1, -1),
    )
    assert valuation_matrix(F, (1, 3)).rows == (
        (2, 1, 1, 1),
        (0, 0, 1, -1),
        (0, -1, 0, 0),
    )
    assert valuation_matrix(F, (2, 3)).rows == (
        (2, 1, 1, 1),
        (0, 0, 1, -1),
        (-1, 0, 0, 0),
    )


def test_valuation_matrix_validation():
    with pytest.raises(PreconditionError):
        valuation_matrix(F, (1,))
    with pytest.raises(PreconditionError):
        valuation_matrix(F, (1, 2, 3))
    with pytest.raises(PreconditionError):
        valuation_matrix(F, (0, 2))


def test_valuation_matrix_shape_and_rank():
    # (n - K + 1) lineality rows and K - 2 rays, always of full rank n - 1:
    # valuation_matrix has no rank check of its own, so this test is the check
    rng = random.Random(71)
    for _ in range(40):
        f = random_disjoint_polynomial(rng, max_n=6, max_k=5)
        unused = rng.randint(0, 2)  # variables in no term give unit lineality rows
        f = SparsePolynomial.from_terms(
            (t.coefficient, (*t.exponent, *[0] * unused)) for t in f.terms
        )
        for subset in itertools.combinations(range(1, f.k + 1), 2):
            m = valuation_matrix(f, subset)
            assert len(m.rows) == rank_by_minors(m.rows) == f.n - 1


def test_adjacent_matrices_differ_in_one_row():
    # adjacency swaps exactly one row (set-wise; ray positions shift for k > 3)
    rng = random.Random(73)
    polys = [F, DP] + [random_disjoint_polynomial(rng) for _ in range(10)]
    for f in polys:
        subsets = list(itertools.combinations(range(1, f.k + 1), 2))
        for s, t in itertools.combinations(subsets, 2):
            if len(set(s) & set(t)) != 1:
                continue
            rows_s = valuation_matrix(f, s).rows
            rows_t = valuation_matrix(f, t).rows
            assert len(set(rows_s) - set(rows_t)) == 1
            assert len(set(rows_t) - set(rows_s)) == 1
            if f.k == 3:
                differing = sum(1 for a, b in zip(rows_s, rows_t) if a != b)
                assert differing == 1


def test_variable_valuations_columns():
    m = valuation_matrix(F, (2, 3))
    valuations = dict(variable_valuations(m))
    assert valuations[0] == (2, 0, -1)  # x
    assert valuations[1] == (1, 0, 0)  # y
    assert valuations[2] == (1, 1, 0)  # z
    assert valuations[3] == (1, -1, 0)  # w
    # semigroup closure under addition
    assert tuple(a + b for a, b in zip(valuations[1], valuations[2])) == (2, 1, 0)


def test_columns_of_terms_in_s_have_zero_ray_block():
    rng = random.Random(79)
    for f in [F, DP] + [random_disjoint_polynomial(rng) for _ in range(10)]:
        v_f = homogeneity_vector(f)
        for subset in itertools.combinations(range(1, f.k + 1), 2):
            m = valuation_matrix(f, subset)
            columns = m.columns()
            for j, col in enumerate(columns):
                assert col[0] == v_f[j]
            block = f.k - 2  # number of trailing ray rows
            for i in subset:
                for j in f.term(i).support:
                    if block:
                        assert all(x == 0 for x in columns[j][-block:])


def test_terms_of_s_share_their_valuation():
    rng = random.Random(83)
    for f in [F, DP] + [random_disjoint_polynomial(rng) for _ in range(10)]:
        for subset in itertools.combinations(range(1, f.k + 1), 2):
            m = valuation_matrix(f, subset)
            s, t = subset
            val_s = tuple(
                sum(r * e for r, e in zip(row, f.term(s).exponent)) for row in m.rows
            )
            val_t = tuple(
                sum(r * e for r, e in zip(row, f.term(t).exponent)) for row in m.rows
            )
            assert val_s == val_t


def test_grading_image_example():
    image = grading_image(F)
    assert image.degrees == ((2, 0), (1, 0), (1, 1), (1, -1))
    assert set(image.minimal_generators) == {(1, 0), (1, 1), (1, -1)}


def test_grading_image_homogeneous_binomial():
    image = grading_image(parse("x + y", ["x", "y"]))
    assert image.degrees == ((1,), (1,))
    assert image.minimal_generators == ((1,),)


def test_grading_image_with_explicit_rows():
    image = grading_image(DP, rows=[(1, -1, 0, -1, 1), (1, 1, 1, 0, 2)])
    assert image.degrees == ((1, 1), (-1, 1), (0, 1), (-1, 0), (1, 2))


def test_minimal_semigroup_generators():
    gens = minimal_semigroup_generators([(2, 0), (1, 0), (1, 1), (1, -1)])
    assert set(gens) == {(1, 0), (1, 1), (1, -1)}
    assert minimal_semigroup_generators([(1,), (2,), (3,)]) == ((1,),)
    with pytest.raises(PreconditionError):
        minimal_semigroup_generators([(1, 0), (-1, 0)])
    # (1,) is not 1 * (1, 0): generators of two lengths are refused
    with pytest.raises(PreconditionError, match="vector 2 has length 1, expected 2"):
        minimal_semigroup_generators([(1, 0), (1,)])


def test_minimal_semigroup_generators_match_closure_oracle():
    rng = random.Random(31)
    dropped = negative = 0
    for _ in range(60):
        dim = rng.choice([2, 3])
        low = -3 if rng.random() < 0.5 else 0
        # a positive first coordinate makes phi = e_1 positive on every vector
        vectors = [
            (rng.randint(1, 4), *(rng.randint(low, 4) for _ in range(dim - 1)))
            for _ in range(rng.randint(1, 12))
        ]
        gens = minimal_semigroup_generators(vectors)
        expected = minimal_generators_by_closure(vectors, (1,) + (0,) * (dim - 1))
        assert set(gens) == expected
        assert len(gens) == len(expected)
        dropped += len(set(vectors)) - len(gens)
        negative += low < 0 and len(gens) < len(set(vectors))
    assert dropped >= 30 and negative >= 5


def test_minimal_semigroup_generators_slow_instance():
    # the second draw of 14 vectors after random.seed(5): every vector is
    # minimal, so each membership test exhausts its search.  An unpruned
    # search over the coefficients took about 24 s here.
    rng = random.Random(5)
    draws = [
        [(rng.randint(1, 12), rng.randint(0, 12), rng.randint(0, 12)) for _ in range(14)]
        for _ in range(2)
    ]
    start = time.perf_counter()
    gens = minimal_semigroup_generators(draws[1])
    assert time.perf_counter() - start < 2
    assert set(gens) == minimal_generators_by_closure(draws[1], (1, 1, 1)) == set(draws[1])


def test_nok_body_example():
    body = nok_body(F, (2, 1, 1, 1), (2, 3))
    assert set(body.points) == {
        (1, 0, Fraction(-1, 2)),
        (1, 0, 0),
        (1, 1, 0),
        (1, -1, 0),
    }
    assert all(p[0] == 1 for p in body.points)
    # (1, 0, 0) is the midpoint of (1, 1, 0) and (1, -1, 0)
    assert set(body.vertices) == {(1, 0, Fraction(-1, 2)), (1, 1, 0), (1, -1, 0)}
    assert body.area is None and body.boundary is None


def test_nok_body_degenerate_point():
    body = nok_body(parse("x + y", ["x", "y"]), (1, 1), (1, 2))
    assert body.points == ((1,), (1,))
    assert body.vertices == ((1,),)


def test_nok_body_rejects_a_grading_that_is_not_integral():
    # int() would read these as (2, 1, 1, 1), a valid grading of F
    for grading in ([Fraction(5, 2), 1, 1, 1], [2.9, 1, 1, 1]):
        with pytest.raises(PreconditionError, match="grading entries must be positive integers"):
            nok_body(F, grading, (2, 3))
    # integral values of other types are read exactly
    body = nok_body(F, [2.0, Fraction(1), "1", True], (2, 3))
    assert body == nok_body(F, (2, 1, 1, 1), (2, 3))


def test_nok_body_rejects_bad_grading():
    with pytest.raises(PreconditionError):
        nok_body(F, (1, 1, 1, 1), (2, 3))  # weighs x and y^2 differently
    with pytest.raises(PreconditionError):
        nok_body(F, (2, 1, 1), (2, 3))
    with pytest.raises(PreconditionError):
        nok_body(F, (0, 1, 1, 1), (2, 3))


def test_nok_body_is_the_projected_degree_one_simplex(capsys):
    # the simplex {a >= 0 : d . a = 1} comes from double description here, so
    # the check does not lean on the vertices e_j/d_j that nok_body lists
    rng = random.Random(34)
    pairs = planar = 0
    for _ in range(350):
        f = random_disjoint_polynomial(rng, force_gcd_one=True)
        k = rng.randint(1, 3)
        d = tuple(k * v for v in homogeneity_vector(f))
        simplex = equality_polytope_vertices([(d, 1)], f.n)
        for S in itertools.combinations(range(1, f.k + 1), 2):
            body = nok_body(f, d, S)
            image = projected_body(simplex, valuation_matrix(f, S).rows)
            assert (body.vertices, body.boundary, body.area) == (
                image.vertices, image.boundary, image.area
            )
            assert Counter(body.points) == Counter(image.points)
            pairs += 1
            planar += body.area is not None
    assert pairs >= 750 and planar >= 150
    # the same identity on the command line: nok against project of the rows
    # that `matrix --S 2,3` prints
    docs = []
    for argv in (
        ["nok", "x+y^2+z*w", "--vars", "x,y,z,w", "--S", "2,3", "--degree", "2,1,1,1"],
        ["project", "--eq-rows", "2,1,1,1", "--eq-targets", "1", "--dim", "4",
         "--rows", "2,1,1,1;0,0,1,-1;-1,0,0,0"],
    ):
        assert cli.main(argv) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert [{k: doc[k] for k in ("vertices", "boundary", "area")} for doc in docs] == [
        {"vertices": [[1, -1, 0], [1, 0, "-1/2"], [1, 1, 0]], "boundary": None, "area": None}
    ] * 2
    # a Grading is read as the sequence of its entries
    assert nok_body(F, okounkov.Grading((2, 1, 1, 1)), (2, 3)) == nok_body(F, (2, 1, 1, 1), (2, 3))
    assert fan.classify_weight is polynomial.classify_weight is classify_weight


def test_global_nok_cone():
    generators = global_nok_cone(DP, (1, 1, 1, 0, 0))
    assert len(generators) == 5
    assert all(len(g) == 4 for g in generators)
    assert generators == (
        (1, 1, 0, 1),
        (1, -1, 0, 1),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
        (1, 0, -1, 0),
    )
    padded = global_nok_cone(DP, (0, 0, 0, 0, 0))
    assert all(g[-1] == 0 for g in padded)
    with pytest.raises(PreconditionError):
        global_nok_cone(DP, (1, 1))


def test_graded_component_trivial_and_homogeneous_cases():
    assert graded_component([((1, 1), 0)], 2) == [(0, 0)]
    component = graded_component([((2, 1, 1, 1), 2), ((0, 0, 1, -1), 0)], 4)
    assert component == [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 1)]


def test_graded_component_matches_closed_form_oracle():
    component = graded_component(DP_CONSTRAINTS, 5)
    expected = set()
    for a1 in range(7):
        for a2 in range(7 - a1):
            for a5 in range((6 - a1 - a2) // 2 + 1):
                a3 = 6 - a1 - a2 - 2 * a5
                a4 = a1 - a2 + a5
                if a4 >= 0:
                    expected.add((a1, a2, a3, a4, a5))
    assert set(component) == expected
    assert len(component) == 34
    for a in component:
        assert a[0] - a[1] - a[3] + a[4] == 0
        assert a[0] + a[1] + a[2] + 2 * a[4] == 6


def test_graded_component_del_pezzo_quotient_counts():
    # N(0,6n) - N(0,6n-2) = 12n^2 + 6n + 1: the Hilbert growth whose leading
    # coefficient is half the area 24 of the del Pezzo body
    def count(target):
        return len(graded_component([((1, -1, 0, -1, 1), 0), ((1, 1, 1, 0, 2), target)], 5))

    for n in range(1, 9):
        assert count(6 * n) - count(6 * n - 2) == 12 * n**2 + 6 * n + 1


@st.composite
def well_poised_polynomials(draw):
    """Terms on disjoint blocks of 2-4 variables with pairwise coprime
    exponent vectors, now and then with one more variable in no term."""
    used = draw(st.integers(2, 4))
    order = draw(st.permutations(range(used)))
    cuts = sorted(draw(st.sets(st.integers(1, used - 1), min_size=1)))
    n = used + draw(st.integers(0, 1))
    exponents = []
    for block in (order[a:b] for a, b in zip([0, *cuts], [*cuts, used])):
        e = [0] * n
        for j in block:
            e[j] = draw(st.integers(1, 3))
        exponents.append(tuple(e))
    pairs = itertools.combinations(exponents, 2)
    if any(exponent_gcd(a, b) != 1 for a, b in pairs):
        return draw(st.nothing())
    return SparsePolynomial.from_terms((1, e) for e in exponents)


def valuation_counts(f, subset, t):
    """The number of distinct values M_S . a over the a >= 0 of degree t, and
    #{a : d . a = t} - #{a : d . a = t - D}, the dimension of the degree-t
    part of k[x]/f, for the grading d = the homogeneity vector with 1 on
    variables in no term and the degree D of f under it."""
    d = [x or 1 for x in homogeneity_vector(f)]
    degree = sum(e * w for e, w in zip(f.terms[0].exponent, d))
    rows = valuation_matrix(f, subset).rows
    component = graded_component([(d, t)], f.n)
    values = {tuple(sum(r * x for r, x in zip(row, a)) for row in rows) for a in component}
    return len(values), len(component) - len(graded_component([(d, t - degree)], f.n))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(well_poised_polynomials())
def test_valuations_count_the_quotient_in_every_degree(f):
    # M_S has kernel spanned by the primitive difference of the two exponents
    # in S, so its values are the monomials modulo a prime binomial initial
    # form of f, whose quotient has the Hilbert function of k[x]/f
    assert is_well_poised(f).well_poised
    degree = math.lcm(*(sum(term.exponent) for term in f.terms))
    for subset in itertools.combinations(range(1, f.k + 1), 2):
        for t in range(2 * degree + 2):
            values, dimension = valuation_counts(f, subset, t)
            assert values == dimension


def test_valuation_counts_fail_without_well_poisedness():
    # x^2 and z^6 share the factor 2: their difference is not primitive
    f = parse("x^2 + y^3 + z^6", ["x", "y", "z"])
    assert valuation_counts(f, (1, 3), 3) == (2, 3)


def test_graded_component_unbounded_raises():
    for constraints in ([((1, -1), 0)], [((0, 0), 0)]):
        with pytest.raises(PreconditionError):
            graded_component(constraints, 2)
    # a recession ray but no integer point: 2 a1 = 1 and 2 a1 - 2 a2 = 1
    assert graded_component([((2, 0), 1)], 2) == []
    assert graded_component([((2, -2), 1)], 2) == []


def test_graded_component_without_coordinates():
    assert graded_component([((), 0)], 0) == [()]
    assert graded_component([((), 0), ((), 0)], 0) == [()]
    assert graded_component([((), 1)], 0) == []
    assert graded_component([((), 0), ((), Fraction(1, 2))], 0) == []


def test_graded_component_shares_the_vertex_double_descriptions(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = linalg.double_description
    monkeypatch.setattr(linalg, "double_description", counted)
    # bounded, infinite and empty: the one call that finds the vertices and
    # the rays decides, and none runs on the columns
    for constraints, n in ((DP_CONSTRAINTS, 5), ([((1, -1), 0)], 2), ([((1, 0), -1)], 2)):
        calls.clear()
        equality_polytope_vertices(constraints, n)
        expected = list(calls)
        calls.clear()
        try:
            graded_component(constraints, n)
        except PreconditionError:
            pass
        assert len(calls) == 1 and calls == expected


def test_graded_component_reads_its_constraints_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = okounkov._split_constraints
    monkeypatch.setattr(okounkov, "_split_constraints", counted)
    assert len(graded_component(DP_CONSTRAINTS, 5)) == 34
    assert calls == [(DP_CONSTRAINTS, 5)]
    calls.clear()
    equality_polytope_vertices(DP_CONSTRAINTS, 5)
    assert calls == [(DP_CONSTRAINTS, 5)]


def random_rational(rng, bound=3):
    if rng.random() < 0.7:
        return rng.randint(-bound, bound)
    return Fraction(rng.randint(-bound, bound), rng.choice([2, 3]))


def bounded_system(rng, n):
    """Rows with rational entries in which row 0 minus k times row 1 is a
    positive degree row, targets planted at a point a >= 0 and now and then
    moved, and the cap on each coordinate that the degree row gives."""
    degree = [rng.choice([1, 1, 2, 3, Fraction(3, 2)]) for _ in range(n)]
    others = [[random_rational(rng) for _ in range(n)] for _ in range(rng.randint(0, 2))]
    k = rng.choice([0, 1, -2, Fraction(1, 2)]) if others else 0
    first = [d + k * a for d, a in zip(degree, others[0])] if others else degree
    rows = [first, *others]
    point = [rng.randint(0, 2) for _ in range(n)]
    targets = [sum(a * v for a, v in zip(row, point)) for row in rows]
    if rng.random() < 0.3:  # often infeasible
        targets[rng.randrange(len(targets))] += random_rational(rng) or 1
    bound = targets[0] - k * targets[1] if others else targets[0]
    return rows, targets, [math.floor(bound / d) for d in degree]


def unbounded_system(rng, n):
    """Rows with rational entries that vanish on a direction r >= 0, r != 0
    (a zero column when r is a unit vector), a point a >= 0, and r."""
    r = [rng.randint(0, 2) for _ in range(n)] if rng.random() < 0.6 else [0] * n
    r[rng.randrange(n)] = rng.randint(1, 2)
    rows = []
    for _ in range(rng.randint(1, 3)):
        row = [random_rational(rng) for _ in range(n)]
        j = rng.choice([i for i in range(n) if r[i]])
        row[j] = -Fraction(sum(a * x for i, (a, x) in enumerate(zip(row, r)) if i != j), r[j])
        rows.append(row)
    return rows, [rng.randint(0, 2) for _ in range(n)], r


def test_graded_component_matches_box_oracle():
    rng = random.Random(43)
    seen = Counter()
    for _ in range(240):
        n = rng.randint(1, 4)
        kind = rng.choice(["bounded", "bounded", "infinite", "empty"])
        if kind == "bounded":
            rows, targets, caps = bounded_system(rng, n)
            expected = nonnegative_solutions_by_box(rows, targets, caps)
            component = graded_component(list(zip(rows, targets)), n)
            assert component == sorted(expected, key=graded_lex_key)
            seen[kind, bool(expected)] += 1
            continue
        rows, point, r = unbounded_system(rng, n)
        targets = [sum(a * v for a, v in zip(row, point)) for row in rows]
        integer = [primitive_row(row) for row in rows if any(row)]
        if kind == "infinite":
            with pytest.raises(PreconditionError):
                graded_component(list(zip(rows, targets)), n)
        else:
            if integer:
                # the nonzero rows as primitive integer rows M, doubled, at
                # the point a + e_j / 2 for an odd entry M[0][j]: an odd
                # target, so rational solutions along r but no integer one
                j = next(j for j, x in enumerate(integer[0]) if x % 2)
                half = [x + Fraction(int(i == j), 2) for i, x in enumerate(point)]
                doubled = [[2 * x for x in row] for row in integer]
                odd = [sum(a * v for a, v in zip(row, half)) for row in doubled]
                assert odd[0] % 2 == 1
                assert graded_component(list(zip(doubled, odd)), n) == []
                seen["lattice-obstructed"] += 1
            # a row >= 0 that vanishes on r, with a negative target: no
            # solution at all, though the homogeneous system has r
            rows.append([0 if x else rng.randint(0, 2) for x in r])
            targets.append(-1)
            assert graded_component(list(zip(rows, targets)), n) == []
        seen[kind, any(not any(row[j] for row in rows) for j in range(n))] += 1
    assert seen["bounded", True] >= 40 and seen["bounded", False] >= 15
    for kind in ("infinite", "empty"):
        assert seen[kind, True] >= 5 and seen[kind, False] >= 5
    assert seen["lattice-obstructed"] >= 20


def test_rays_are_primitive_and_their_scale_leaves_components_alone(monkeypatch):
    """Every ray of {a >= 0 : R a = t} has gcd 1, and graded_component gives
    the same points or the same error when every ray is tripled: any
    positive multiple of the rays bounds its search box."""

    def outcome(constraints, n):
        try:
            return graded_component(constraints, n)
        except PreconditionError as exc:
            return str(exc)

    rng = random.Random(47)
    systems, outcomes, seen = [], [], Counter()
    for _ in range(800):
        m, n = rng.randint(1, 3), rng.randint(1, 7)
        constraints = [
            ([rng.randint(-2, 3) for _ in range(n)], rng.randint(-2, 3)) for _ in range(m)
        ]
        vertices, rays = okounkov._nonnegative_polyhedron(
            *okounkov._split_constraints(constraints, n)
        )
        assert all(math.gcd(*w) == 1 for w in rays)
        systems.append((constraints, n))
        outcomes.append(outcome(constraints, n))
        seen[bool(vertices), bool(rays), type(outcomes[-1])] += 1

    real = okounkov._nonnegative_polyhedron

    def tripled(rows, targets):
        vertices, rays = real(rows, targets)
        return vertices, [tuple(3 * x for x in w) for w in rays]

    monkeypatch.setattr(okounkov, "_nonnegative_polyhedron", tripled)
    assert [outcome(*system) for system in systems] == outcomes
    # bounded, infinite, and rays with no integer point all occur
    assert seen[True, False, list] >= 80 and seen[True, True, str] >= 80
    assert seen[True, True, list] >= 10


def test_equality_polytope_vertices_del_pezzo():
    vertices = equality_polytope_vertices(DP_CONSTRAINTS, 5)
    assert set(vertices) == {
        (0, 0, 0, 3, 3),
        (0, 0, 6, 0, 0),
        (0, 2, 0, 0, 2),
        (3, 3, 0, 0, 0),
        (6, 0, 0, 6, 0),
    }
    for v in vertices:
        assert all(x >= 0 for x in v)
        assert v[0] - v[1] - v[3] + v[4] == 0
        assert v[0] + v[1] + v[2] + 2 * v[4] == 6


def test_equality_polytope_vertices_match_zero_set_oracle():
    rng = random.Random(37)
    kinds, many_vertices = set(), 0
    for draw in range(130):
        # the last draws have many columns and rows: n up to 12, 4-6 rows
        many = draw >= 120
        n = rng.randint(8, 12) if many else rng.randint(1, 6)
        count = rng.randint(4, 6) if many else rng.randint(1, 3)
        rows = [[rng.randint(-2, 3) for _ in range(n)] for _ in range(count)]
        # a zero target leaves the origin as the only vertex: small draws only
        small_only = [] if many else ["zero target"]
        kind = rng.choice(["planted", "redundant", "zero", *small_only, "any"])
        point = [rng.randint(0, 3) for _ in range(n)]
        if kind == "redundant":
            rows.append([2 * a - b for a, b in zip(rows[0], rows[-1])])
        elif kind == "zero":
            rows.append([0] * n)
        elif kind == "zero target":
            point = [0] * n
        targets = [sum(a * v for a, v in zip(row, point)) for row in rows]
        if kind == "any":  # often infeasible
            targets = [rng.randint(-3, 6) for _ in rows]
        expected = polytope_vertices_by_zero_sets(rows, targets, n)
        vertices = equality_polytope_vertices(list(zip(rows, targets)), n)
        assert set(vertices) == expected
        assert len(vertices) == len(expected)
        kinds.add((kind, bool(expected)))
        many_vertices += many and len(vertices)
    assert ("any", False) in kinds and ("any", True) in kinds
    assert ("zero target", True) in kinds
    assert many_vertices >= 150


def test_projected_bodies_reproduce_planar_figures():
    vertices = equality_polytope_vertices(DP_CONSTRAINTS, 5)
    ones = (1, 1, 1, 1, 1)

    body1 = projected_body(vertices, [ones, (1, 1, 1, 0, 0)])
    assert set(body1.boundary) == {(6, 0), (4, 2), (6, 6), (12, 6)}
    assert set(body1.vertices) == {(6, 0), (4, 2), (6, 6), (12, 6)}
    assert body1.area == 24

    body2 = projected_body(vertices, [ones, (1, 1, 0, 1, 1)])
    assert set(body2.boundary) == {(6, 0), (4, 4), (6, 6), (12, 12)}
    # (6, 6) sits on the edge from (4, 4) to (12, 12): boundary, not a vertex
    assert set(body2.vertices) == {(6, 0), (4, 4), (12, 12)}
    assert body2.area == 24

    body3 = projected_body(vertices, [ones, (0, 0, 1, 1, 1)])
    assert set(body3.boundary) == set(body1.boundary)
    assert body3.vertices == body1.vertices
    assert body3.area == 24


def test_projected_body_needs_a_row():
    with pytest.raises(PreconditionError, match="projection needs at least one row"):
        projected_body([(1, 2), (3, 4)], [])


def test_empty_point_and_constraint_lists_are_refused():
    with pytest.raises(PreconditionError, match="projection needs at least one point"):
        projected_body([], [(1, 0)])
    with pytest.raises(PreconditionError, match="at least one constraint row"):
        graded_component([], 2)


def test_planar_bodies_match_their_hulls():
    # one hull pass with boundary points gives the vertex cycle and the area
    rng = random.Random(97)
    seen = Counter()
    for _ in range(400):
        size = rng.randint(1, 9)
        if rng.random() < 0.2:  # collinear: on a line through a with direction d
            a = (Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])), rng.randint(-4, 4))
            d = (Fraction(rng.randint(-3, 3), rng.choice([1, 2])), rng.randint(-3, 3))
            steps = [rng.randint(-3, 3) for _ in range(size)]
            pts = [(a[0] + t * d[0], a[1] + t * d[1]) for t in steps]
        else:
            pts = [
                (Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])), rng.randint(-3, 3))
                for _ in range(size)
            ]
        pts += rng.sample(pts, rng.randint(0, len(pts)))  # duplicates
        body = projected_body(pts, [(1, 0), (0, 1)])
        assert body.vertices == tuple(convex_hull_2d(pts))
        assert body.boundary == tuple(convex_hull_2d(pts, keep_boundary=True))
        expected = triangulation_area(body.vertices) if len(body.vertices) >= 3 else 0
        assert body.area == expected and type(body.area) is Fraction
        seen[min(len(body.vertices), 3)] += 1
    assert seen[1] >= 30 and seen[2] >= 60 and seen[3] >= 200


def test_projected_body_higher_dimensional_image():
    body = projected_body([(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)])
    assert body.area is None and body.boundary is None
    assert len(body.vertices) == 3


@pytest.mark.parametrize(
    "points, rows",
    [
        ([(1, 2, 3)], [(1, 1)]),  # would project to ((3,),), ignoring a coordinate
        ([(1, 2)], [(1, 1, 1)]),
        ([(1, 2), (1, 2, 3)], [(1, 1)]),  # ragged points
    ],
)
def test_projected_body_rejects_mismatched_lengths(points, rows):
    with pytest.raises(PreconditionError):
        projected_body(points, rows)


def test_shoelace_matches_triangulation():
    rng = random.Random(89)
    for _ in range(30):
        pts = {
            (rng.randint(-6, 6), rng.randint(-6, 6))
            for _ in range(rng.randint(3, 9))
        }
        cycle = convex_hull_2d(pts)
        if len(cycle) < 3:
            continue
        assert shoelace_area(cycle) == triangulation_area(cycle)


# Each call passes a string where a vector is expected; iterated, it would
# be read one character at a time.  PreconditionError is a ValueError.
STRINGS_FOR_VECTORS = {
    "Term": (lambda: Term(1, "12"), ValueError),
    "from_terms": (lambda: SparsePolynomial.from_terms([(1, "10"), (1, "01")]), ValueError),
    "nok_body-grading": (lambda: nok_body(F, "2111", (2, 3)), PreconditionError),
    "nok_body-subset": (lambda: nok_body(F, (2, 1, 1, 1), "23"), PreconditionError),
    "classify_weight": (lambda: classify_weight(F, "1234"), PreconditionError),
    "initial_form": (lambda: initial_form(F, "1234"), PreconditionError),
    "decompose_weight": (lambda: decompose_weight(F, "0011"), PreconditionError),
    "from_points": (lambda: LatticePolytope.from_points(["12", "34"]), ValueError),
    "in_convex_hull": (lambda: in_convex_hull("11", ["00", "22"]), ValueError),
    "in_convex_hull-point": (lambda: in_convex_hull("11", [(0, 0), (2, 2)]), ValueError),
    "in_convex_hull-empty": (lambda: in_convex_hull("11", []), ValueError),
    "contains": (lambda: SQUARE.contains("11"), ValueError),
    "shoelace_area": (lambda: shoelace_area(["00", "20", "02"]), ValueError),
    "generators": (lambda: minimal_semigroup_generators(["10", "01", "11"]), ValueError),
    "global_nok_cone": (lambda: global_nok_cone(DP, "11100"), ValueError),
    "grading_image": (lambda: grading_image(F, ["2111"]), ValueError),
    "projected_body": (lambda: projected_body(["12", "34", "56"], ["10", "01"]), ValueError),
    "graded_component": (lambda: graded_component([("11", 2)], 2), ValueError),
    "cone": (lambda: cone(F, "12"), PreconditionError),
    "valuation_matrix": (lambda: valuation_matrix(F, "23"), PreconditionError),
    "cone-fraction": (lambda: cone(F, [1.5, 2]), PreconditionError),
}


@pytest.mark.parametrize("name", list(STRINGS_FOR_VECTORS))
def test_a_string_is_not_read_as_a_vector(name):
    call, error = STRINGS_FOR_VECTORS[name]
    with pytest.raises(error):  # and neither a value nor a TypeError
        call()


INF = float("inf")

# Each call passes an entry that is neither a finite number nor a numeric
# string; the error names it, where Fraction() would raise TypeError, or
# OverflowError for an infinity.
NON_NUMBER_ENTRIES = {
    "cone": (lambda: cone(F, [None, 2]), PreconditionError, "None"),
    "Term": (lambda: Term(1, [None]), ValueError, "None"),
    "classify_weight": (lambda: classify_weight(F, [None] * 4), PreconditionError, "None"),
    "nok_body-subset": (lambda: nok_body(F, (2, 1, 1, 1), [[2], 3]), PreconditionError, r"\[2\]"),
    "canonical_point": (lambda: canonical_point([None]), ValueError, "None"),
    "Term-coefficient": (lambda: Term(None, [1]), ValueError, "None"),
    "from_terms": (lambda: SparsePolynomial.from_terms([(None, [1])]), ValueError, "None"),
    "Term-inf": (lambda: Term(1, [INF]), ValueError, "inf"),
    "Term-coefficient-inf": (lambda: Term(INF, [1]), ValueError, "inf"),
    "from_terms-inf": (lambda: SparsePolynomial.from_terms([(-INF, [1])]), ValueError, "-inf"),
    "classify_weight-inf": (lambda: classify_weight(F, [INF, 0, 0, 0]), PreconditionError, "inf"),
    "cone-inf": (lambda: cone(F, [INF, 2]), PreconditionError, "inf"),
    "canonical_point-inf": (lambda: canonical_point([INF]), ValueError, "inf"),
    "contains": (lambda: SQUARE.contains((None, 1)), ValueError, "None"),
    "contains-inf": (lambda: SQUARE.contains((INF, 1)), ValueError, "inf"),
    "contains-zero-denominator": (lambda: SQUARE.contains(("1/0", 1)), ValueError, "'1/0'"),
    "in_convex_hull-point": (
        lambda: in_convex_hull((None, 1), [(0, 0), (2, 2)]), ValueError, "None"
    ),
    "in_convex_hull-empty": (lambda: in_convex_hull((None, 1), []), ValueError, "None"),
    "shoelace_area": (lambda: shoelace_area([(None, 1), (0, 0), (1, 0)]), ValueError, "None"),
    "shoelace_area-inf": (lambda: shoelace_area([(INF, 1), (0, 0), (1, 0)]), ValueError, "inf"),
    "shoelace_area-zero-denominator": (
        lambda: shoelace_area([("1/0", 1), (0, 0), (1, 0)]), ValueError, "'1/0'"
    ),
    # "1/0" is a numeric string whose Fraction() raises ZeroDivisionError
    "Term-coefficient-zero-denominator": (lambda: Term("1/0", [1]), ValueError, "'1/0'"),
    "Term-zero-denominator": (lambda: Term(1, ["1/0"]), ValueError, "'1/0'"),
    "canonical_point-zero-denominator": (lambda: canonical_point(["1/0"]), ValueError, "'1/0'"),
    "classify_weight-zero-denominator": (
        lambda: classify_weight(F, ["1/0", 0, 0, 0]), PreconditionError, "'1/0'"
    ),
    "cone-zero-denominator": (lambda: cone(F, ["1/0", 2]), PreconditionError, "'1/0'"),
    # the targets of the constraints are read like their rows
    "graded_component-target": (lambda: graded_component([((1, 1), None)], 2), ValueError, "None"),
    "graded_component-target-inf": (
        lambda: graded_component([((1, 1), INF)], 2), ValueError, "inf"
    ),
    "equality_polytope_vertices-target": (
        lambda: equality_polytope_vertices([((1, 1), None)], 2), ValueError, "None"
    ),
    "equality_polytope_vertices-target-zero-denominator": (
        lambda: equality_polytope_vertices([((1, 1), "1/0")], 2), ValueError, "'1/0'"
    ),
}


@pytest.mark.parametrize("name", list(NON_NUMBER_ENTRIES))
def test_a_non_number_entry_raises_value_error(name):
    call, error, shown = NON_NUMBER_ENTRIES[name]
    with pytest.raises(error, match=f"{shown} is not a number"):
        call()


# Each call passes a ragged list of vectors, or a vector of another length
# than the call expects.  ``canonical_points`` refuses it with one message,
# "vector i has length m, expected n", naming the first vector that differs
# by its 1-based position; a weight's message starts with "weight: ".
MISMATCHED_LENGTHS = {
    "canonical_points": (lambda: canonical_points([(1, 2), (3,)]), 2, 1, 2),
    "canonical_points-n": (lambda: canonical_points([(1, 2)], 3), 1, 2, 3),
    "classify_weight": (lambda: classify_weight(F, (1, 2)), 1, 2, 4),
    "initial_form": (lambda: initial_form(F, (1, 2, 3, 4, 5)), 1, 5, 4),
    "decompose_weight": (lambda: decompose_weight(F, (0, 1)), 1, 2, 4),
    "from_points": (lambda: LatticePolytope.from_points([(0, 0), (1,)]), 2, 1, 2),
    "extreme_points": (lambda: extreme_points([(0, 0, 0), (1, 1)]), 2, 2, 3),
    "contains": (lambda: SQUARE.contains((1, 1, 1)), 1, 3, 2),
    "in_convex_hull": (lambda: in_convex_hull((1, 1), [(0, 0), (2, 2, 2)]), 2, 3, 2),
    "in_convex_hull-point": (lambda: in_convex_hull((1,), [(0, 0), (2, 2)]), 1, 1, 2),
    "convex_hull_2d": (lambda: convex_hull_2d([(0, 0), (1, 0), (0, 1, 1)]), 3, 3, 2),
    "shoelace_area": (lambda: shoelace_area([(0, 0, 0)]), 1, 3, 2),
    "generators": (lambda: minimal_semigroup_generators([(1, 0), (1,)]), 2, 1, 2),
    "grading_image": (lambda: grading_image(F, [(1, 1, 1, 1), (1, 1)]), 2, 2, 4),
    "global_nok_cone": (lambda: global_nok_cone(DP, (1, 1, 1)), 1, 3, 5),
    "graded_component": (lambda: graded_component([((1, 1), 2), ((1, 1, 1), 3)], 2), 2, 3, 2),
    "equality_polytope_vertices": (lambda: equality_polytope_vertices([((1,), 2)], 2), 1, 1, 2),
    "projected_body-points": (lambda: projected_body([(0, 0), (1, 0, 0)], [(1, 0)]), 2, 3, 2),
    "projected_body-rows": (
        lambda: projected_body([(0, 0), (1, 1)], [(1, 0), (1, 1, 0)]), 2, 3, 2
    ),
}


@pytest.mark.parametrize("name", list(MISMATCHED_LENGTHS))
def test_a_vector_of_another_length_raises_precondition_error(name):
    call, i, m, n = MISMATCHED_LENGTHS[name]
    message = f"^(weight: )?vector {i} has length {m}, expected {n}$"
    with pytest.raises(PreconditionError, match=message):
        call()


def test_an_infinite_grading_entry_raises_precondition_error():
    with pytest.raises(PreconditionError, match="grading entries must be positive integers"):
        okounkov.Grading([INF, 1])


def test_a_zero_denominator_grading_entry_raises_precondition_error():
    with pytest.raises(PreconditionError, match="grading entries must be positive integers"):
        okounkov.Grading(["1/0", 1])


def test_numeric_string_targets_are_read_like_numeric_string_rows():
    assert graded_component([((1, 1), "2")], 2) == graded_component([(("1", 1), 2)], 2)
    assert graded_component([((1, 1), "2")], 2) == [(2, 0), (1, 1), (0, 2)]
    assert equality_polytope_vertices([((1, 1), "2")], 2) == [(2, 0), (0, 2)]
