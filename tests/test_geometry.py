import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from wellpoised import (
    LatticePolytope,
    PreconditionError,
    convex_hull_2d,
    faces,
    in_convex_hull,
    initial_form,
    is_simplex,
    is_well_poised,
    lattice_points,
    minkowski_decomposition_witness,
    newton_polytope,
    parse,
    shoelace_area,
)
from wellpoised import cli, linalg
from wellpoised.polynomial import graded_lex_key
from oracles import (
    facets_by_subsets,
    gauss_solve_unique,
    in_hull_caratheodory,
    in_hull_facets,
    in_hull_lp,
    primitive_row,
    random_disjoint_polynomial,
    rank_by_minors,
)

XYZW = ["x", "y", "z", "w"]


def test_newton_polytope_e8():
    p = newton_polytope(parse("x^2 + y^3 + z^5", ["x", "y", "z"]))
    assert p.vertices == ((2, 0, 0), (0, 3, 0), (0, 0, 5))


def test_newton_polytope_drops_interior_point():
    p = newton_polytope(parse("x + x^2 + x^3", ["x"]))
    assert p.vertices == ((1,), (3,))


def test_newton_polytope_disjoint_supports_all_vertices():
    f = parse("T1*T2 + T3^2 + T4*T5", ["T1", "T2", "T3", "T4", "T5"])
    assert set(newton_polytope(f).vertices) == set(f.exponents())


def test_is_simplex():
    assert is_simplex(LatticePolytope.from_points([(2, 0, 0), (0, 3, 0), (0, 0, 5)]))
    assert not is_simplex(LatticePolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert is_simplex(LatticePolytope.from_points([(7, 7)]))


def test_lattice_points_e8():
    p = newton_polytope(parse("x^2 + y^3 + z^5", ["x", "y", "z"]))
    assert lattice_points(p) == [(2, 0, 0), (0, 3, 0), (0, 0, 5)]


def test_lattice_points_segment_with_midpoint():
    seg = LatticePolytope.from_points([(0, 0), (2, 2)])
    assert lattice_points(seg) == [(0, 0), (1, 1), (2, 2)]


def test_lattice_points_plucker_simplex_vs_box_oracle():
    f = parse(
        "p12*p34 - p13*p24 + p14*p23",
        ["p12", "p13", "p14", "p23", "p24", "p34"],
    )
    p = newton_polytope(f)
    found = lattice_points(p)
    # oracle: scan {0,1}^6 deciding membership by a standalone barycentric solve
    verts = p.vertices
    expected = []
    for cand in itertools.product(range(2), repeat=6):
        rows = [[Fraction(v[r]) for v in verts] for r in range(6)]
        rows.append([Fraction(1)] * len(verts))
        sol = gauss_solve_unique(rows, list(cand) + [1])
        if sol is not None and all(x >= 0 for x in sol):
            expected.append(cand)
    assert set(found) == set(expected)
    assert set(found) == set(verts)


def test_lattice_points_del_pezzo_simplex_vs_box_oracle():
    f = parse("T1*T2 + T3^2 + T4*T5", ["T1", "T2", "T3", "T4", "T5"])
    p = newton_polytope(f)
    found = lattice_points(p)
    verts = p.vertices
    expected = []
    for cand in itertools.product(range(3), repeat=5):
        rows = [[Fraction(v[r]) for v in verts] for r in range(5)]
        rows.append([Fraction(1)] * len(verts))
        sol = gauss_solve_unique(rows, list(cand) + [1])
        if sol is not None and all(x >= 0 for x in sol):
            expected.append(cand)
    assert set(found) == set(expected) == set(verts)


def test_lattice_points_random_simplices_vs_box_oracle():
    # vertices anywhere in a box around the origin, so that the barycentric
    # signs, not only the bounding box, decide which points are kept
    rng = random.Random(61)
    checked = 0
    for _ in range(30):
        n = rng.randint(2, 3)
        pts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(2, n + 1))]
        p = LatticePolytope.from_points(pts)
        if not is_simplex(p):
            continue
        verts = p.vertices
        rows = [[Fraction(v[r]) for v in verts] for r in range(n)]
        rows.append([Fraction(1)] * len(verts))
        expected = []
        box = [range(min(c), max(c) + 1) for c in zip(*verts)]
        for cand in itertools.product(*box):
            sol = gauss_solve_unique(rows, list(cand) + [1])
            if sol is not None and all(x >= 0 for x in sol):
                expected.append(cand)
        assert set(lattice_points(p)) == set(expected)
        checked += 1
    assert checked >= 20


def test_lattice_points_non_simplex_square():
    square = LatticePolytope.from_points([(0, 0), (2, 0), (0, 2), (2, 2)])
    assert len(lattice_points(square)) == 9
    # a tilted parallelogram in 3-D: its affine hull z = x + y - 1 and the
    # hull test both cut points from the bounding box
    parallelogram = LatticePolytope.from_points([(1, 0, 0), (3, 1, 3), (2, 2, 3), (4, 3, 6)])
    assert not is_simplex(parallelogram)
    box = itertools.product(range(1, 5), range(4), range(7))
    expected = [pt for pt in box if in_hull_caratheodory(pt, parallelogram.vertices)]
    assert sorted(lattice_points(parallelogram)) == sorted(expected)
    assert len(expected) == 6


def test_faces_count_and_weights():
    f = parse("x + y^2 + z*w", XYZW)
    descriptors = faces(f)
    assert len(descriptors) == 7
    by_subset = {d.term_indices: d for d in descriptors}
    assert by_subset[(1, 2)].supporting_weight == (0, 0, -1, -1)
    for d in descriptors:
        recovered = initial_form(f, d.supporting_weight)
        assert tuple(
            i + 1 for i, t in enumerate(f.terms) if t in recovered.terms
        ) == d.term_indices


def test_faces_of_binomial():
    f = parse("x^2 + y^3", ["x", "y"])
    assert [d.term_indices for d in faces(f)] == [(1,), (2,), (1, 2)]


def test_faces_rejects_out_of_scope():
    with pytest.raises(PreconditionError, match="disjointly supported"):
        faces(parse("x*y + y*z", ["x", "y", "z"]))
    with pytest.raises(PreconditionError, match="pairwise exponent gcd 1; terms 1,2"):
        faces(parse("x^2 + y^2", ["x", "y"]))
    # the supports and the gcd test are checked before the constant term
    with pytest.raises(PreconditionError, match="disjointly supported"):
        faces(parse("1 + x*y + y*z", ["x", "y", "z"]))
    with pytest.raises(PreconditionError, match="pairwise exponent gcd 1"):
        faces(parse("1 + x^2 + y^2", ["x", "y"]))
    # the constant term's ray is zero, so no weight singles out the other term:
    # weight 0 for S = (2,) would give the whole polynomial as initial form
    with pytest.raises(PreconditionError, match="constant term present"):
        faces(parse("1 + x^2*y^3", ["x", "y"]))


def test_faces_weights_support_their_faces():
    rng = random.Random(89)
    for _ in range(30):
        f = random_disjoint_polynomial(rng, force_gcd_one=True)
        descriptors = faces(f)
        assert len(descriptors) == 2**f.k - 1
        for d in descriptors:
            assert initial_form(f, d.supporting_weight) == f.restricted_to(d.term_indices)


def test_minkowski_witness_e8_trivial():
    p = newton_polytope(parse("x^2 + y^3 + z^5", ["x", "y", "z"]))
    report = minkowski_decomposition_witness(p)
    assert report.trivial_only
    assert len(report.census) == 3
    assert report.non_vertex_points == ()


def test_minkowski_witness_segment_nontrivial():
    seg = LatticePolytope.from_points([(0, 0), (2, 2)])
    report = minkowski_decomposition_witness(seg)
    assert not report.trivial_only
    assert report.non_vertex_points == ((1, 1),)


def test_minkowski_witness_plucker_trivial():
    f = parse(
        "p12*p34 - p13*p24 + p14*p23",
        ["p12", "p13", "p14", "p23", "p24", "p34"],
    )
    report = minkowski_decomposition_witness(newton_polytope(f))
    assert report.trivial_only and len(report.census) == 3


def test_minkowski_witness_requires_simplex():
    square = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(PreconditionError):
        minkowski_decomposition_witness(square)


@pytest.mark.parametrize(
    "point, generators",
    [
        ((1,), [(0, 1), (2, 1)]),  # would read as 1 in conv{0, 2}, ignoring a coordinate
        ((0, 0, 5), [(0, 0), (2, 0), (0, 2)]),
        ((0, 0), [(0, 0), (1, 0, 0)]),  # ragged generators
    ],
)
def test_in_convex_hull_rejects_mismatched_lengths(point, generators):
    with pytest.raises(PreconditionError):
        in_convex_hull(point, generators)


def test_contains_rejects_a_point_of_another_dimension():
    triangle = LatticePolytope.from_points([(0, 0), (2, 0), (0, 2)])
    with pytest.raises(PreconditionError):
        triangle.contains((0, 0, 5))


def test_vertices_subset_of_exponents_and_membership():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        exps = {
            tuple(rng.randint(0, 5) for _ in range(n))
            for _ in range(rng.randint(1, 6))
        }
        from wellpoised import SparsePolynomial

        f = SparsePolynomial.from_terms([(1, e) for e in exps])
        p = newton_polytope(f)
        assert set(p.vertices) <= set(f.exponents())
        for e in f.exponents():
            assert p.contains(e)


def test_well_poised_vertices_have_disjoint_supports():
    rng = random.Random(13)
    for _ in range(25):
        f = random_disjoint_polynomial(rng, force_gcd_one=True)
        assert is_well_poised(f).well_poised
        p = newton_polytope(f)
        seen = set()
        for v in p.vertices:
            supp = {j for j, e in enumerate(v) if e}
            assert not (supp & seen)
            seen |= supp
        assert is_simplex(p)
        assert set(lattice_points(p)) == set(p.vertices)


def test_vertex_detection_matches_caratheodory_oracle():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 4)
        pts = list(
            {
                tuple(rng.randint(0, 5) for _ in range(n))
                for _ in range(rng.randint(2, 7))
            }
        )
        p = LatticePolytope.from_points(pts)
        for candidate in pts:
            others = [q for q in pts if q != candidate]
            expected = in_hull_caratheodory(candidate, others)
            assert (candidate not in p.vertices) == expected
            assert in_convex_hull(candidate, others) == expected


def test_in_convex_hull_matches_caratheodory_on_large_clouds():
    # 10-20 generators in 3-D and 4-D.  The Caratheodory oracle tries every
    # subset of up to n+1 generators before it can answer False (about 14 s
    # for 20 generators in 4-D), so it checks the 10-point clouds only; the
    # facet oracle, built once per cloud, checks every cloud.
    rng = random.Random(31)
    answers = {10: set(), 15: set(), 20: set()}
    for n in (3, 4):
        for size in (10, 15, 20):
            cloud = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(size)]
            generators = cloud[1:]
            inside = in_hull_facets(generators)
            a, b = rng.sample(generators, 2)
            midpoint = tuple(Fraction(x + y, 2) for x, y in zip(a, b))
            candidates = [midpoint, cloud[0]]
            candidates += [
                tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(1 if size == 10 else 8)
            ]
            for point in candidates:
                expected = inside(point)
                if size == 10:
                    assert in_hull_caratheodory(point, generators) == expected
                assert in_convex_hull(point, generators) == expected
                answers[size].add(expected)
    assert all(seen == {True, False} for seen in answers.values())


def test_simplex_detection_matches_minor_oracle():
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(1, 4)
        pts = list(
            {
                tuple(rng.randint(0, 5) for _ in range(n))
                for _ in range(rng.randint(1, 5))
            }
        )
        p = LatticePolytope.from_points(pts)
        verts = p.vertices
        if len(verts) == 1:
            assert is_simplex(p)
            continue
        diffs = [
            [v[j] - verts[0][j] for j in range(n)] for v in verts[1:]
        ]
        assert is_simplex(p) == (rank_by_minors(diffs) == len(verts) - 1)


def test_convex_hull_2d_square_cycle():
    cycle = convex_hull_2d([(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)])
    assert cycle == [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert shoelace_area(cycle) == 1


def test_convex_hull_2d_boundary_keeps_edge_points():
    pts = [(0, 0), (2, 0), (1, 0), (2, 2)]
    assert convex_hull_2d(pts) == [(0, 0), (2, 0), (2, 2)]
    assert convex_hull_2d(pts, keep_boundary=True) == [(0, 0), (1, 0), (2, 0), (2, 2)]


def test_convex_hull_2d_refuses_points_that_are_not_planar():
    for pts, message in (
        ([(1,), (0,), (2,)], "vector 1 has length 1, expected 2"),
        ([(1, 2, 3), (0, 0, 0), (1, 1, 1)], "vector 1 has length 3, expected 2"),
        ([(0, 0), (1, 0, 0)], "vector 2 has length 3, expected 2"),
    ):
        with pytest.raises(PreconditionError, match=message):
            convex_hull_2d(pts)
        with pytest.raises(PreconditionError, match=message):
            shoelace_area(pts)


def test_convex_hull_2d_collinear():
    pts = [(0, 0), (1, 1), (3, 3)]
    assert convex_hull_2d(pts) == [(0, 0), (3, 3)]
    assert convex_hull_2d(pts, keep_boundary=True) == [(0, 0), (1, 1), (3, 3)]
    assert shoelace_area(convex_hull_2d(pts)) == 0


def _clouds(rng):
    """Seeded point clouds in 1-4 D: (ambient dimension, points).

    Each dimension gets scattered clouds, clouds with repeated points,
    collinear and coplanar sets, lower-dimensional clouds embedded by an
    integer affine map, clouds of rational points, and in 3-D and 4-D
    subsets of the grid {0, 1, 2}^n, where many points share an edge or a
    face.
    """
    for n in (1, 2, 3, 4):
        top = 3 if n < 4 else 2
        for size in (1, 2, 5, 9):
            yield n, [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(size)]
        pts = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(5)]
        yield n, pts + rng.sample(pts, 3)
        for flat in range(1, n):
            # t_1 d_1 + ... + t_flat d_flat + base: collinear, coplanar, ...
            base = [rng.randint(-1, 1) for _ in range(n)]
            dirs = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(flat)]
            steps = [[rng.randint(-2, 2) for _ in range(flat)] for _ in range(6)]
            yield n, [
                tuple(b + sum(t * d[j] for t, d in zip(ts, dirs)) for j, b in enumerate(base))
                for ts in steps
            ]
        yield n, [
            tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n))
            for _ in range(6)
        ]
        if n >= 3:
            grid = list(itertools.product(range(3), repeat=n))
            for size in (10, 14) if n == 3 else (16, 18, 20, 20):
                yield n, rng.sample(grid, size)


def _full_dimensional(points):
    n = len(points[0])
    return rank_by_minors([[x - y for x, y in zip(p, points[0])] for p in points[1:]]) == n


def test_vertices_match_the_lp_rule_on_random_clouds():
    rng = random.Random(67)
    kinds = set()
    for n, cloud in _clouds(rng):
        p = LatticePolytope.from_points(cloud)
        distinct = sorted(set(cloud))
        kinds.add((n, _full_dimensional(distinct) if len(distinct) > 1 else None))
        for q in distinct:
            others = [o for o in distinct if o != q]
            assert (q in p.vertices) == (not others or not in_hull_lp(q, others))
        assert list(p.vertices) == sorted(p.vertices, key=graded_lex_key)
    # lower-dimensional and full-dimensional clouds in every dimension past 1
    assert {(n, full) for n in (2, 3, 4) for full in (True, False)} <= kinds


def test_contains_matches_the_lp_and_the_facet_oracle_on_a_box():
    # the facet oracle on full-dimensional clouds, the LP oracle on the others
    rng = random.Random(71)
    for n, cloud in _clouds(rng):
        p = LatticePolytope.from_points(cloud)
        distinct = sorted(set(cloud))
        if n >= 2 and len(distinct) > n and _full_dimensional(distinct):
            oracle = in_hull_facets(distinct)
        else:
            oracle = functools.partial(in_hull_lp, generators=distinct)
        box = [range(math.floor(min(c)) - 1, math.ceil(max(c)) + 2) for c in zip(*distinct)]
        halves = [
            tuple(Fraction(x + y, 2) for x, y in zip(a, b)) for a, b in zip(distinct, distinct[1:])
        ]
        for point in [*itertools.product(*box), *halves]:
            assert p.contains(point) == oracle(point)


def test_facets_match_the_subset_oracle_on_full_dimensional_clouds():
    # the same inequalities up to a positive factor, and no redundant one
    rng = random.Random(73)
    checked = 0
    for n, cloud in _clouds(rng):
        distinct = sorted(set(cloud))
        if n < 2 or len(distinct) <= n or not _full_dimensional(distinct):
            continue
        p = LatticePolytope.from_points(cloud)
        assert p.equations == ()
        expected = {
            primitive_row([*(-x for x in normal), offset])
            for normal, offset in facets_by_subsets(distinct)
        }
        found = [primitive_row(f) for f in p.facets]
        assert len(found) == len(set(found)) and set(found) == expected
        checked += 1
    assert checked >= 10


def test_cube_with_apex_census_matches_a_box_scan():
    corners = [tuple(8 * b for b in bits) for bits in itertools.product((0, 1), repeat=3)]
    p = LatticePolytope.from_points(corners + [(4, 4, 12)])
    assert not is_simplex(p) and len(p.vertices) == 9
    box = itertools.product(range(9), range(9), range(13))
    expected = sorted((pt for pt in box if in_hull_lp(pt, p.vertices)), key=graded_lex_key)
    assert lattice_points(p) == expected
    assert len(expected) == 9**3 + 7**2 + 5**2 + 3**2 + 1


def test_polytope_command_runs_no_linear_program(monkeypatch, capsys):
    # one double description per request, and in_convex_hull runs on it too
    calls = []
    kernel = linalg.double_description
    monkeypatch.setattr(
        linalg, "double_description", lambda *args: calls.append(args) or kernel(*args)
    )
    quadrilateral = ["polytope", "x*y^2 + x^2*y + x^2*y^2 + x*y + 3", "--vars", "x,y"]
    for argv, code in [
        ([*quadrilateral, "--lattice"], 0),
        ([*quadrilateral, "--lattice", "--minkowski"], 3),  # not a simplex
        (["polytope", "x^2+y^3+z^5", "--vars", "x,y,z", "--lattice", "--minkowski"], 0),
    ]:
        calls.clear()
        assert cli.run(argv) == code
        assert len(calls) == 1
    capsys.readouterr()
    calls.clear()
    assert in_convex_hull((1,), [(0,), (2,)]) and len(calls) == 1
    assert not in_convex_hull((3,), [(0,), (2,)]) and len(calls) == 2
