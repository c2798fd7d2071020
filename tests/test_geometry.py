import itertools
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
from oracles import (
    gauss_solve_unique,
    in_hull_caratheodory,
    in_hull_facets,
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
    with pytest.raises(PreconditionError):
        faces(parse("x*y + y*z", ["x", "y", "z"]))
    with pytest.raises(PreconditionError):
        faces(parse("x^2 + y^2", ["x", "y"]))


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

        f = SparsePolynomial.from_terms([(1, e) for e in exps], n=n)
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


def test_convex_hull_2d_collinear():
    pts = [(0, 0), (1, 1), (3, 3)]
    assert convex_hull_2d(pts) == [(0, 0), (3, 3)]
    assert convex_hull_2d(pts, keep_boundary=True) == [(0, 0), (1, 1), (3, 3)]
    assert shoelace_area(convex_hull_2d(pts)) == 0
