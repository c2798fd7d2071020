import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wellpoised import (
    CommonFactorWitness,
    ParseError,
    PreconditionError,
    SharedVariableWitness,
    SparsePolynomial,
    Term,
    exponent_gcd,
    initial_form,
    is_disjointly_supported,
    is_irreducible_binomial,
    is_well_poised,
    parse,
    to_string,
)
from wellpoised.fan import lineality_basis
from wellpoised.polynomial import weighted_degrees
from oracles import (
    inject_shared_variable,
    parse_by_chunks,
    random_disjoint_polynomial,
    random_weight,
    weighted_degrees_by_fractions,
)

XYZW = ["x", "y", "z", "w"]


def test_parse_e8():
    f = parse("x^2 + y^3 + z^5", ["x", "y", "z"])
    assert [(t.coefficient, t.exponent) for t in f.terms] == [
        (1, (2, 0, 0)),
        (1, (0, 3, 0)),
        (1, (0, 0, 5)),
    ]


def test_parse_merges_terms():
    f = parse("x + x - x", ["x"])
    assert [(t.coefficient, t.exponent) for t in f.terms] == [(1, (1,))]


def test_parse_plucker_relation():
    names = ["p12", "p13", "p14", "p23", "p24", "p34"]
    f = parse("p12*p34 - p13*p24 + p14*p23", names)
    assert f.k == 3
    for t in f.terms:
        assert sorted(t.exponent) == [0, 0, 0, 0, 1, 1]
    assert [t.coefficient for t in f.terms] == [1, -1, 1]


def test_parse_rational_coefficients_and_signs():
    f = parse("-3/2*x*y + 2*z - 1", ["x", "y", "z"])
    assert {t.exponent: t.coefficient for t in f.terms} == {
        (1, 1, 0): Fraction(-3, 2),
        (0, 0, 1): 2,
        (0, 0, 0): -1,
    }


def test_parse_multiplies_numbers_and_adds_powers():
    f = parse("2*x*3/4*x^2 - y*2/3*y", ["x", "y"])
    assert [(t.coefficient, t.exponent) for t in f.terms] == [
        (Fraction(-2, 3), (0, 2)),
        (Fraction(3, 2), (3, 0)),
    ]
    assert all(type(t.coefficient) is Fraction for t in f.terms)


@pytest.mark.parametrize(
    "text",
    ["x + q", "x^-2", "x - x", "", "x + ", "2x", "x^2^3", "x*", "2*-x", "x+-y", "--x"],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse(text, ["x", "y"])


PARSER_ALPHABET = list("xyz 0123/^*+-") + ["\t", "\x1c", "\u3000", "\u0663"]


def _parse_outcome(parser, text):
    """The terms, with each coefficient's type, or the ParseError message."""
    try:
        f = parser(text, ["x", "y", "z"])
    except ParseError as exc:
        return str(exc)
    return [(type(t.coefficient), t.coefficient, t.exponent) for t in f.terms]


def test_parse_matches_the_chunk_scanner():
    rng = random.Random(7)
    parsed = 0
    for _ in range(20_000):
        text = "".join(rng.choice(PARSER_ALPHABET) for _ in range(rng.randint(0, 12)))
        expected = _parse_outcome(parse_by_chunks, text)
        assert _parse_outcome(parse, text) == expected, repr(text)
        parsed += not isinstance(expected, str)
    assert parsed > 1000


def test_printer_round_trip_examples():
    for text, names in [
        ("x^2 + y^3 + z^5", ["x", "y", "z"]),
        ("x + y^2 + z*w", XYZW),
        ("p12*p34 - p13*p24 + p14*p23", ["p12", "p13", "p14", "p23", "p24", "p34"]),
        ("-x + 3/2*y - 7", ["x", "y"]),
    ]:
        f = parse(text, names)
        assert parse(to_string(f), names) == f


def test_printer_round_trip_random():
    rng = random.Random(11)
    for _ in range(40):
        f = random_disjoint_polynomial(rng)
        assert parse(to_string(f), f.variables) == f


@st.composite
def sparse_polynomials(draw):
    n = draw(st.integers(1, 4))
    coefficient = st.fractions(-20, 20, max_denominator=12).filter(bool)
    exponent = st.tuples(*[st.integers(0, 6)] * n)
    terms = draw(
        st.lists(
            st.tuples(coefficient, exponent), min_size=1, max_size=6, unique_by=lambda t: t[1]
        )
    )
    return SparsePolynomial.from_terms(terms, variables=XYZW[:n])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sparse_polynomials())
def test_printer_round_trip_property(f):
    assert parse(to_string(f), f.variables) == f


def test_initial_form_examples():
    f = parse("x + y^2 + z*w", XYZW)
    assert initial_form(f, (0, 0, 0, 0)) == f
    assert to_string(initial_form(f, (1, 0, 0, 0))) == "x"
    assert to_string(initial_form(f, (0, 0, -1, -1))) == "x + y^2"


def test_weighted_degrees_match_fraction_sums():
    rng = random.Random(43)
    for _ in range(300):
        f = random_disjoint_polynomial(rng, max_n=6, max_k=5)
        if rng.random() < 0.5:
            f = inject_shared_variable(rng, f)
        w = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(f.n))
        products, top = weighted_degrees(f, w)
        expected, expected_top = weighted_degrees_by_fractions(f, w)
        assert products == expected and top == expected_top
        assert all(type(p) is Fraction for p in products) and type(top) is Fraction
        kept = tuple(t for t, p in zip(f.terms, expected) if p == expected_top)
        assert initial_form(f, w).terms == kept


def test_initial_form_dimension_mismatch():
    f = parse("x + y", ["x", "y"])
    with pytest.raises(PreconditionError):
        initial_form(f, (1, 0, 0))


def test_initial_form_idempotent_and_lineality_invariant():
    rng = random.Random(23)
    for _ in range(30):
        f = random_disjoint_polynomial(rng)
        w = random_weight(rng, f.n)
        g = initial_form(f, w)
        assert initial_form(g, w) == g
        for row in lineality_basis(f).rows:
            lam = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            shifted = tuple(x + lam * r for x, r in zip(w, row))
            assert initial_form(f, shifted) == g


def test_initial_forms_of_well_poised_inherit():
    rng = random.Random(31)
    for _ in range(30):
        f = random_disjoint_polynomial(rng, force_gcd_one=True)
        assert is_well_poised(f).well_poised
        w = random_weight(rng, f.n)
        g = initial_form(f, w)
        report = is_well_poised(g)
        assert report.well_poised
        assert report.monomial or g.k >= 2


def test_is_disjointly_supported():
    assert is_disjointly_supported(parse("x + y^2 + z*w", XYZW))
    assert not is_disjointly_supported(parse("x*y + y*z", ["x", "y", "z"]))
    assert is_disjointly_supported(parse("x^2*y", ["x", "y"]))


def test_exponent_gcd():
    assert exponent_gcd((2, 0, 0), (0, 3, 0)) == 1
    assert exponent_gcd((2, 0), (0, 2)) == 2
    assert exponent_gcd((0, 0), (0, 0)) == 0
    with pytest.raises(PreconditionError):
        exponent_gcd((1, 0), (1, 0, 0))


def test_is_irreducible_binomial():
    assert is_irreducible_binomial(Term(1, (2, 0)), Term(1, (0, 3)))
    assert not is_irreducible_binomial(Term(1, (2, 0)), Term(1, (0, 2)))
    assert not is_irreducible_binomial(Term(1, (1, 1, 0)), Term(1, (0, 1, 1)))
    with pytest.raises(PreconditionError):
        is_irreducible_binomial(Term(1, (1, 0)), Term(2, (1, 0)))


def test_binomial_test_matches_classifier():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = tuple(rng.randint(0, 4) for _ in range(n))
        b = tuple(rng.randint(0, 4) for _ in range(n))
        if a == b:
            continue
        f = SparsePolynomial.from_terms([(1, a), (1, b)])
        assert is_irreducible_binomial(Term(1, a), Term(1, b)) == is_well_poised(f).well_poised


def test_is_well_poised_worked_examples():
    assert is_well_poised(parse("x^2 + y^3 + z^5", ["x", "y", "z"])).well_poised
    names = ["p12", "p13", "p14", "p23", "p24", "p34"]
    assert is_well_poised(parse("p12*p34 - p13*p24 + p14*p23", names)).well_poised
    assert is_well_poised(
        parse("T1*T2 + T3^2 + T4*T5", ["T1", "T2", "T3", "T4", "T5"])
    ).well_poised


def test_is_well_poised_gcd_witness():
    report = is_well_poised(parse("x^2 - y^2", ["x", "y"]))
    assert not report.well_poised
    assert report.witness == CommonFactorWitness(terms=(1, 2), gcd=2)


def test_is_well_poised_shared_witness():
    report = is_well_poised(parse("x*y + y*z", ["x", "y", "z"]))
    assert not report.well_poised
    assert report.witness == SharedVariableWitness(variable=1, terms=(1, 2))


def test_monomial_flag():
    report = is_well_poised(parse("x^2*y", ["x", "y"]))
    assert report.well_poised and report.monomial and report.witness is None


def test_constant_term_pairs():
    # x^2 + 1 factors over a closed field; x + 1 does not
    assert not is_well_poised(parse("x^2 + 1", ["x"])).well_poised
    assert is_well_poised(parse("x + 1", ["x"])).well_poised


def test_well_poised_invariance():
    rng = random.Random(41)
    for _ in range(20):
        f = random_disjoint_polynomial(rng, force_gcd_one=rng.random() < 0.5)
        expected = is_well_poised(f).well_poised
        perm = list(range(f.n))
        rng.shuffle(perm)
        permuted = SparsePolynomial.from_terms(
            [
                (t.coefficient, tuple(t.exponent[perm[j]] for j in range(f.n)))
                for t in f.terms
            ],
            variables=tuple(f.variables[perm[j]] for j in range(f.n)),
        )
        assert is_well_poised(permuted).well_poised == expected
        shuffled = [(t.coefficient, t.exponent) for t in f.terms]
        rng.shuffle(shuffled)
        rescaled = SparsePolynomial.from_terms(
            [(c * Fraction(rng.choice([1, 2, 5]), rng.choice([1, 3])), e) for c, e in shuffled],
            variables=f.variables,
        )
        assert is_well_poised(rescaled).well_poised == expected


def test_canonical_term_order():
    f = parse("z*w + x + y^2", XYZW)
    assert [t.exponent for t in f.terms] == [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 1)]


def test_term_rejects_zero_coefficient_and_negative_exponent():
    with pytest.raises(ValueError, match="nonzero"):
        Term(0, (1,))
    with pytest.raises(ValueError, match="non-negative"):
        Term(1, (-1,))


@pytest.mark.parametrize(
    "terms, variables, message",
    [
        (((0, 1), (1, 0)), ("x", "y"), "canonically ordered"),
        (((1, 0), (1, 0)), ("x", "y"), "canonically ordered"),
        (((1, 0), (0, 1)), ("x", "x"), "distinct variable names"),
        (((1, 0), (1,)), ("x", "y"), "exponent length"),
    ],
    ids=["unsorted", "duplicate", "repeated-name", "short-exponent"],
)
def test_sparse_polynomial_checks_its_terms(terms, variables, message):
    with pytest.raises(ValueError, match=message):
        SparsePolynomial(n=2, terms=tuple(Term(1, e) for e in terms), variables=variables)


def test_from_terms_reads_text_coefficients_and_list_exponents():
    f = SparsePolynomial.from_terms([("3/2", [0, 1]), (1, [1, 0])], variables=("x", "y"))
    assert [(t.coefficient, t.exponent) for t in f.terms] == [
        (1, (1, 0)),
        (Fraction(3, 2), (0, 1)),
    ]
    assert all(type(t.coefficient) is Fraction and type(t.exponent) is tuple for t in f.terms)


def test_terms_hold_fractions_and_int_tuples():
    def assert_types(f):
        assert all(type(t.coefficient) is Fraction for t in f.terms)
        assert all(type(t.exponent) is tuple for t in f.terms)
        assert all(type(e) is int for t in f.terms for e in t.exponent)

    assert_types(parse("2*x - 3/6*y + 4/2*x*y + 1", ["x", "y"]))
    for coefficients in [(2, -1), ("2", "-1/3"), (Fraction(2), Fraction(-1, 3)), (2, "1/2")]:
        terms = zip(coefficients, [[1, 0], (0, 1)])
        assert_types(SparsePolynomial.from_terms(terms, variables=("x", "y")))
    # int and Fraction coefficients of one exponent merge exactly
    f = SparsePolynomial.from_terms([(1, (1,)), (Fraction(1, 2), (1,)), ("1/2", (1,))])
    assert [(t.coefficient, t.exponent) for t in f.terms] == [(2, (1,))]
    assert_types(f)
    term = Term(2, [1, 0])
    assert term == Term(Fraction(2), (1, 0))
    assert type(term.coefficient) is Fraction and type(term.exponent) is tuple
    assert all(type(e) is int for e in term.exponent)
    f = parse("x - x + y", ["x", "y"])
    assert [(t.coefficient, t.exponent) for t in f.terms] == [(1, (0, 1))]
    assert_types(f)
    with pytest.raises(ValueError, match="nonzero"):
        Term(0, (1, 0))


def test_exponents_must_be_exactly_integers():
    # int() would truncate each of these to a different, valid exponent
    with pytest.raises(ValueError, match="not an integer"):
        Term(1, [Fraction(3, 2), 0])
    with pytest.raises(ValueError, match="not an integer"):
        SparsePolynomial.from_terms([(1, (1.7, 0)), (1, (0, 1))])
    with pytest.raises(ValueError, match="not an integer"):
        exponent_gcd((Fraction(9, 2),), (3,))
    # integral values of other types are read exactly
    assert Term(1, [Fraction(3), 2.0, "1", True]).exponent == (3, 2, 1, 1)
    f = SparsePolynomial.from_terms([(1, (Fraction(2), 0)), (1, ("0", 1.0))])
    assert f.exponents() == ((0, 1), (2, 0))
    assert exponent_gcd((Fraction(9),), (3.0,)) == 3


def test_from_terms_rejects_empty():
    with pytest.raises(ValueError):
        SparsePolynomial.from_terms([(1, (1, 0)), (-1, (1, 0))])


def test_term_indexing_is_one_based():
    f = parse("x + y^2 + z*w", XYZW)
    assert f.term(1).exponent == (1, 0, 0, 0)
    assert f.term(3).exponent == (0, 0, 1, 1)
    with pytest.raises(PreconditionError):
        f.term(0)
    assert to_string(f.restricted_to([1, 2])) == "x + y^2"


@pytest.mark.parametrize("indices", [[], [4], [0, 1], [1.5]])
def test_restricted_to_takes_a_term_subset(indices):
    f = parse("x + y^2 + z*w", XYZW)
    with pytest.raises(PreconditionError):
        f.restricted_to(indices)
