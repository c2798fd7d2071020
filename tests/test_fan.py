import random
from fractions import Fraction

import pytest

from wellpoised import (
    LinealityBasis,
    PreconditionError,
    classify_weight,
    cone,
    decompose_weight,
    faces,
    homogeneity_vector,
    in_tropical_variety,
    initial_form,
    lineality_basis,
    parse,
    ray_generator,
    tropical_variety,
)
from wellpoised import linalg
from oracles import (
    cones_by_definition,
    random_disjoint_polynomial,
    rank_by_minors,
    row_space_equal,
    sample_cone_point,
    weighted_degrees_by_fractions,
)

XYZW = ["x", "y", "z", "w"]
F = parse("x + y^2 + z*w", XYZW)


def test_homogeneity_vector_examples():
    assert homogeneity_vector(F) == (2, 1, 1, 1)
    dp = parse("T1*T2 + T3^2 + T4*T5", ["T1", "T2", "T3", "T4", "T5"])
    assert homogeneity_vector(dp) == (1, 1, 1, 1, 1)
    assert homogeneity_vector(parse("x + y", ["x", "y"])) == (1, 1)


def test_homogeneity_vector_e8():
    f = parse("x^2 + y^3 + z^5", ["x", "y", "z"])
    v = homogeneity_vector(f)
    assert v == (15, 10, 6)
    assert {sum(a * b for a, b in zip(v, t.exponent)) for t in f.terms} == {30}


def test_homogeneity_vector_rejects():
    with pytest.raises(PreconditionError):
        homogeneity_vector(parse("x + 1", ["x"]))
    with pytest.raises(PreconditionError):
        homogeneity_vector(parse("x*y + y*z", ["x", "y", "z"]))


def test_lineality_basis_examples():
    basis = lineality_basis(F)
    assert basis.v_f == (2, 1, 1, 1)
    assert basis.kernel_vectors == ((0, 0, 1, -1),)

    dp = parse("T1*T2 + T3^2 + T4*T5", ["T1", "T2", "T3", "T4", "T5"])
    dp_basis = lineality_basis(dp)
    assert dp_basis.v_f == (1, 1, 1, 1, 1)
    assert dp_basis.kernel_vectors == ((1, -1, 0, 0, 0), (0, 0, 0, 1, -1))
    paper_m = [(1, 1, 1, 1, 1), (1, -1, 0, -1, 1), (1, 1, 1, 0, 2)]
    assert row_space_equal(dp_basis.rows, paper_m)

    assert lineality_basis(parse("x^2 + y^3 + z^5", ["x", "y", "z"])).kernel_vectors == ()


def test_lineality_rows_are_one_tuple_shared_by_every_cone():
    basis = lineality_basis(F)
    assert basis.rows is basis.rows
    assert basis.rows == (basis.v_f, *basis.kernel_vectors)
    # equality and hash read the two fields only, before and after rows is read
    twin = LinealityBasis(basis.v_f, basis.kernel_vectors)
    assert twin == basis and hash(twin) == hash(basis)
    assert twin.rows == basis.rows and twin.rows is not basis.rows
    assert twin == basis and hash(twin) == hash(basis)
    assert LinealityBasis(basis.v_f, ()) != basis
    cones = tropical_variety(parse("x0*x1 + x2^2*x3 + x4^3*x5 + x6", [f"x{j}" for j in range(7)]))
    assert len(cones) == 11
    assert all(c.lineality is cones[0].lineality for c in cones)
    assert all(c.lineality.rows is cones[0].lineality.rows for c in cones)
    # and one ray object per term, whichever cone holds it
    rays = {}
    assert all(rays.setdefault(r.i, r) is r for c in cones for r in c.rays)
    assert sorted(rays) == [1, 2, 3, 4]


def test_lineality_basis_unused_variable():
    f = parse("x + y^2", ["x", "y", "z"])
    basis = lineality_basis(f)
    assert basis.v_f == (2, 1, 0)
    assert basis.kernel_vectors == ((0, 0, 1),)
    assert basis.dim == 1 + (3 - 2)


def test_lineality_vectors_are_integral_primitive_and_orthogonal():
    rng = random.Random(5)
    for _ in range(25):
        f = random_disjoint_polynomial(rng)
        basis = lineality_basis(f)
        assert len(basis.rows) == 1 + (f.n - f.k)
        assert rank_by_minors(basis.rows) == len(basis.rows)
        for t in f.terms:
            products = {
                sum(a * b for a, b in zip(row, t.exponent)) for row in basis.kernel_vectors
            }
            assert products <= {0}
        for vec in basis.kernel_vectors:
            assert linalg.primitive_integer(vec) == vec


def test_ray_generator_examples():
    assert ray_generator(F, 3).w == (0, 0, -1, -1)
    assert ray_generator(F, 1).w == (-1, 0, 0, 0)
    assert ray_generator(F, 2).w == (0, -1, 0, 0)
    with pytest.raises(PreconditionError):
        ray_generator(F, 4)


def test_cone_assembly():
    full = cone(F, (1, 2, 3))
    assert full.rays == () and full.dim == 2
    c23 = cone(F, (2, 3))
    assert [r.i for r in c23.rays] == [1] and c23.dim == 3
    with pytest.raises(PreconditionError):
        cone(F, ())
    with pytest.raises(PreconditionError):
        cone(F, (0, 1))


def test_classify_weight_examples():
    assert classify_weight(F, homogeneity_vector(F)) == (1, 2, 3)
    assert classify_weight(F, (0, 0, -1, -1)) == (1, 2)
    assert in_tropical_variety(F, (0, 0, -1, -1))
    assert not in_tropical_variety(F, (1, 0, 0, 0))
    with pytest.raises(PreconditionError):
        classify_weight(F, (1, 0))


def test_tropical_variety_structure():
    cones = tropical_variety(F)
    assert [(c.S, c.dim) for c in cones] == [
        ((1, 2), 3),
        ((1, 3), 3),
        ((2, 3), 3),
        ((1, 2, 3), 2),
    ]
    dp = parse("T1*T2 + T3^2 + T4*T5", ["T1", "T2", "T3", "T4", "T5"])
    maximal = [c for c in tropical_variety(dp) if len(c.S) == 2]
    assert len(maximal) == 3

    binom = parse("x^2 + y^3", ["x", "y"])
    cones = tropical_variety(binom)
    assert len(cones) == 1
    only = cones[0]
    assert only.S == (1, 2) and only.dim == 1 and only.rays == ()
    assert only.lineality.rows == ((3, 2),)


def test_cone_lists_follow_their_definition():
    rng = random.Random(71)
    for _ in range(30):
        f = random_disjoint_polynomial(rng, max_n=9, max_k=7)
        basis = lineality_basis(f)
        cones = tropical_variety(f)
        expected = cones_by_definition(f, 2)
        assert [(c.S, tuple(r.w for r in c.rays)) for c in cones] == expected
        assert all(c.lineality == basis for c in cones)
        assert [c.dim for c in cones] == [basis.dim + f.k - len(s) for s, _ in expected]
        assert all(cone(f, c.S) == c for c in cones)
        # one basis object and one ray object per term, whichever cone holds it
        assert len({id(c.lineality) for c in cones}) == 1
        assert len({id(r) for c in cones for r in c.rays}) == (f.k if f.k > 2 else 0)
        for c in cones:
            assert [r.i for r in c.rays] == [i for i in range(1, f.k + 1) if i not in c.S]


def test_face_weights_are_the_sums_of_the_outside_rays():
    rng = random.Random(73)
    for _ in range(20):
        f = random_disjoint_polynomial(rng, max_n=9, max_k=7, force_gcd_one=True)
        zero = (0,) * f.n
        assert [(d.term_indices, d.supporting_weight) for d in faces(f)] == [
            (s, tuple(map(sum, zip(zero, *rays)))) for s, rays in cones_by_definition(f, 1)
        ]


def test_dimension_identity():
    rng = random.Random(17)
    import itertools

    for _ in range(15):
        f = random_disjoint_polynomial(rng)
        for size in range(1, f.k + 1):
            for subset in itertools.combinations(range(1, f.k + 1), size):
                assert cone(f, subset).dim + size == f.n + 1


def test_cone_points_classify_back():
    rng = random.Random(61)
    import itertools

    for _ in range(10):
        f = random_disjoint_polynomial(rng)
        for size in range(1, f.k + 1):
            for subset in itertools.combinations(range(1, f.k + 1), size):
                c = cone(f, subset)
                for _ in range(20):
                    w = sample_cone_point(rng, c)
                    assert classify_weight(f, w) == subset
                    assert initial_form(f, w) == f.restricted_to(subset)


def test_decompose_weight_certificates():
    rng = random.Random(67)
    for _ in range(10):
        f = random_disjoint_polynomial(rng)
        for _ in range(40):
            w = tuple(Fraction(rng.randint(-8, 8)) for _ in range(f.n))
            d = decompose_weight(f, w)
            assert d.S == classify_weight(f, w)
            assert all(lam > 0 for lam in d.ray_coefficients)
            assert {r.i for r in d.rays} == set(range(1, f.k + 1)) - set(d.S)
            assert d.reconstruct() == w


def test_classify_and_decompose_rational_weights_exactly():
    rng = random.Random(71)
    for _ in range(10):
        f = random_disjoint_polynomial(rng, max_n=6, max_k=5)
        for _ in range(30):
            w = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(f.n))
            products, top = weighted_degrees_by_fractions(f, w)
            subset = tuple(i for i, p in enumerate(products, 1) if p == top)
            assert classify_weight(f, w) == subset
            d = decompose_weight(f, w)
            assert d.S == subset
            assert d.ray_coefficients == tuple(
                (top - products[r.i - 1]) / sum(f.term(r.i).exponent) for r in d.rays
            )
            assert all(type(lam) is Fraction for lam in d.ray_coefficients)
            assert d.reconstruct() == w


def test_decompose_weight_rational_inputs():
    d = decompose_weight(F, (Fraction(1, 2), 0, -3, Fraction(2, 3)))
    assert d.reconstruct() == (Fraction(1, 2), 0, -3, Fraction(2, 3))


def test_decompose_weight_with_unused_variable():
    f = parse("x + y^2", ["x", "y", "z"])
    w = (0, 0, 5)
    d = decompose_weight(f, w)
    assert d.S == (1, 2)
    assert d.reconstruct() == w
