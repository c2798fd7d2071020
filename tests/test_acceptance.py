"""Acceptance suite: one test per recorded criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  All assertions are exact; no tolerances are involved anywhere.

Check 3b pins the del Pezzo graded components against a closed-form
enumeration: 34 monomials in degree (0, 6) and 23 in degree (0, 5).
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

from wellpoised import (
    CommonFactorWitness,
    LatticePolytope,
    SharedVariableWitness,
    classify_weight,
    cone,
    decompose_weight,
    equality_polytope_vertices,
    exponent_gcd,
    graded_component,
    in_convex_hull,
    initial_form,
    is_simplex,
    is_well_poised,
    lattice_points,
    lineality_basis,
    minkowski_decomposition_witness,
    newton_polytope,
    parse,
    projected_body,
    tropical_variety,
    valuation_matrix,
)
from oracles import (
    in_hull_caratheodory,
    inject_common_factor,
    inject_shared_variable,
    random_disjoint_polynomial,
    rank_by_minors,
    row_space_equal,
    sample_cone_point,
)

E8 = parse("x^2 + y^3 + z^5", ["x", "y", "z"])
PLUCKER = parse(
    "p12*p34 - p13*p24 + p14*p23", ["p12", "p13", "p14", "p23", "p24", "p34"]
)
QUADRIC = parse("x + y^2 + z*w", ["x", "y", "z", "w"])
DEL_PEZZO = parse("T1*T2 + T3^2 + T4*T5", ["T1", "T2", "T3", "T4", "T5"])


def del_pezzo_constraints(target):
    """Equalities of the del Pezzo graded component of degree (0, target)."""
    return [((1, -1, 0, -1, 1), 0), ((1, 1, 1, 0, 2), target)]


DEL_PEZZO_CONSTRAINTS = del_pezzo_constraints(6)


def del_pezzo_component_closed_form(target):
    """Non-negative solutions of a1-a2-a4+a5 = 0, a1+a2+a3+2*a5 = target,
    enumerated by solving for a3 and a4."""
    out = set()
    for a1 in range(target + 1):
        for a2 in range(target + 1 - a1):
            for a5 in range((target - a1 - a2) // 2 + 1):
                a3 = target - a1 - a2 - 2 * a5
                a4 = a1 - a2 + a5
                if a4 >= 0:
                    out.add((a1, a2, a3, a4, a5))
    return out


@contextmanager
def criterion(number, title):
    try:
        yield
    except AssertionError:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_worked_example_classifications():
    with criterion(1, "worked-example classifications"):
        assert is_well_poised(E8).well_poised is True
        assert is_well_poised(PLUCKER).well_poised is True
        assert is_well_poised(DEL_PEZZO).well_poised is True


def test_criterion_2_quadric_matrices_byte_exact():
    with criterion(2, "quadric lineality and valuation matrices"):
        basis = lineality_basis(QUADRIC)
        assert row_space_equal(basis.rows, [(2, 1, 1, 1), (0, 0, 1, -1)])
        assert valuation_matrix(QUADRIC, (1, 2)).rows == (
            (2, 1, 1, 1),
            (0, 0, 1, -1),
            (0, 0, -1, -1),
        )
        assert valuation_matrix(QUADRIC, (1, 3)).rows == (
            (2, 1, 1, 1),
            (0, 0, 1, -1),
            (0, -1, 0, 0),
        )
        assert valuation_matrix(QUADRIC, (2, 3)).rows == (
            (2, 1, 1, 1),
            (0, 0, 1, -1),
            (-1, 0, 0, 0),
        )


def test_criterion_3a_del_pezzo_fan_and_bodies():
    with criterion("3a", "del Pezzo fan, projected bodies, areas"):
        basis = lineality_basis(DEL_PEZZO)
        reference = [(1, 1, 1, 1, 1), (1, -1, 0, -1, 1), (1, 1, 1, 0, 2)]
        assert row_space_equal(basis.rows, reference)

        maximal = [c for c in tropical_variety(DEL_PEZZO) if len(c.S) == 2]
        assert len(maximal) == 3

        vertices = equality_polytope_vertices(DEL_PEZZO_CONSTRAINTS, 5)
        ones = (1, 1, 1, 1, 1)
        body1 = projected_body(vertices, [ones, (1, 1, 1, 0, 0)])
        body2 = projected_body(vertices, [ones, (1, 1, 0, 1, 1)])
        body3 = projected_body(vertices, [ones, (0, 0, 1, 1, 1)])

        assert set(body1.boundary) == {(6, 0), (4, 2), (6, 6), (12, 6)}
        assert set(body2.boundary) == {(6, 0), (4, 4), (6, 6), (12, 12)}
        assert body1.area == 24
        assert body2.area == 24
        assert set(body3.boundary) == set(body1.boundary)
        assert body3.vertices == body1.vertices and body3.area == body1.area


def test_criterion_3b_del_pezzo_graded_component_count():
    with criterion("3b", "del Pezzo graded components (0,6): 34, (0,5): 23"):
        expected = {t: del_pezzo_component_closed_form(t) for t in (4, 5, 6)}
        for t, points in expected.items():
            component = graded_component(del_pezzo_constraints(t), 5)
            assert set(component) == points and len(component) == len(points), (
                f"graded component (0,{t}) differs from the closed-form "
                f"enumeration of a1-a2-a4+a5=0, a1+a2+a3+2a5={t}"
            )

        assert len(graded_component(DEL_PEZZO_CONSTRAINTS, 5)) == 34
        assert len(expected[6]) == 34
        # the recorded reference count of 23 is the (0,5) component
        assert len(expected[5]) == 23
        # quotient count N(0,6) - N(0,4) follows the Hilbert growth
        # 12n^2+6n+1 at n = 1, whose leading coefficient is half the body
        # area 24 checked in 3a
        n = 1
        assert len(expected[6]) - len(expected[4]) == 19 == 12 * n**2 + 6 * n + 1


def test_criterion_4_empty_simplex_property_suite():
    with criterion(4, "lattice census equals vertices; violation witnesses"):
        rng = random.Random(20260808)
        for _ in range(200):
            f = random_disjoint_polynomial(rng, max_n=5, max_exp=6, force_gcd_one=True)
            report = is_well_poised(f)
            assert report.well_poised
            p = newton_polytope(f)
            assert set(p.vertices) == set(f.exponents())
            assert lattice_points(p) == sorted(
                p.vertices, key=lambda v: (sum(v), tuple(-e for e in v))
            )

        gcd_edges = 0
        for k in range(60):
            base = random_disjoint_polynomial(
                rng, max_n=5, max_exp=6, force_gcd_one=True
            )
            if k % 2 == 0:
                bad = inject_shared_variable(rng, base)
            else:
                bad = inject_common_factor(rng, base, rng.choice([2, 3]))
            report = is_well_poised(bad)
            assert not report.well_poised
            witness = report.witness
            if isinstance(witness, SharedVariableWitness):
                i, j = witness.terms
                assert witness.variable in bad.term(i).support
                assert witness.variable in bad.term(j).support
            else:
                assert isinstance(witness, CommonFactorWitness)
                i, j = witness.terms
                a = bad.term(i).exponent
                b = bad.term(j).exponent
                assert exponent_gcd(a, b) == witness.gcd > 1
                # the edge between the offending vertices is not lattice-empty
                edge = LatticePolytope.from_points([a, b])
                edge_report = minkowski_decomposition_witness(edge)
                assert not edge_report.trivial_only
                for point in edge_report.non_vertex_points:
                    assert point not in (a, b)
                    assert in_convex_hull(point, [a, b])
                gcd_edges += 1
        assert gcd_edges >= 25


def test_criterion_5_cone_membership_round_trip():
    with criterion(5, "cone sampling and weight decomposition round-trip"):
        rng = random.Random(41)
        for _ in range(20):
            f = random_disjoint_polynomial(rng, max_k=3)
            for size in range(1, f.k + 1):
                for subset in itertools.combinations(range(1, f.k + 1), size):
                    c = cone(f, subset)
                    f_s = f.restricted_to(subset)
                    for _ in range(100):
                        w = sample_cone_point(rng, c)
                        assert classify_weight(f, w) == subset
                        assert initial_form(f, w) == f_s
            for _ in range(10):
                w = tuple(Fraction(rng.randint(-9, 9)) for _ in range(f.n))
                d = decompose_weight(f, w)
                assert d.S == classify_weight(f, w)
                assert all(lam > 0 for lam in d.ray_coefficients)
                assert d.reconstruct() == w
                assert initial_form(f, w) == f.restricted_to(d.S)


def test_criterion_6_structural_identities():
    with criterion(6, "dimension, rank, and adjacency identities"):
        rng = random.Random(59)
        polys = [QUADRIC, DEL_PEZZO, E8, PLUCKER] + [
            random_disjoint_polynomial(rng) for _ in range(20)
        ]
        for f in polys:
            for size in range(1, f.k + 1):
                for subset in itertools.combinations(range(1, f.k + 1), size):
                    assert cone(f, subset).dim + size == f.n + 1
            pairs = list(itertools.combinations(range(1, f.k + 1), 2))
            for subset in pairs:
                m = valuation_matrix(f, subset)
                assert len(m.rows) == f.n - 1
                assert rank_by_minors(m.rows) == f.n - 1
            for s, t in itertools.combinations(pairs, 2):
                if len(set(s) & set(t)) != 1:
                    continue
                rows_s = set(valuation_matrix(f, s).rows)
                rows_t = set(valuation_matrix(f, t).rows)
                assert len(rows_s - rows_t) == 1 and len(rows_t - rows_s) == 1


def test_criterion_7_oracle_equivalence():
    with criterion(7, "vertex and simplex detection against brute-force oracle"):
        rng = random.Random(101)
        for _ in range(100):
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
                assert (candidate not in p.vertices) == in_hull_caratheodory(
                    candidate, others
                )
            verts = p.vertices
            if len(verts) == 1:
                assert is_simplex(p)
            else:
                diffs = [
                    [v[j] - verts[0][j] for j in range(n)] for v in verts[1:]
                ]
                assert is_simplex(p) == (rank_by_minors(diffs) == len(verts) - 1)
