"""The value contract of the library's 16 public record types.

Each is built by position and by keyword, compares and hashes by the fields
it shows, shows them in its repr, and refuses assignment and deletion.  The
twelve plain records take an initializer that the shared base compiles from
their fields, so Python binds the arguments and refuses a bad call with its
own TypeError naming the class; only the four that check or derive their
arguments write their own.
"""

import inspect
import pickle
import re
from fractions import Fraction

import pytest

import wellpoised
from wellpoised import (
    CommonFactorWitness,
    FaceDescriptor,
    Grading,
    GradingImage,
    LatticePolytope,
    LinealityBasis,
    MinkowskiReport,
    OkounkovBody,
    RayGenerator,
    SharedVariableWitness,
    SparsePolynomial,
    Term,
    TropicalCone,
    ValuationMatrix,
    WeightDecomposition,
    WellPoisedReport,
)

OTHER = object()  # equal to no field value

TERMS = (Term(Fraction(1), (1, 0)), Term(Fraction(-2), (0, 3)))
BASIS = LinealityBasis((2, 1, 1, 1), ((0, 0, 1, -1),))
RAYS = (RayGenerator(1, (-1, 0, 0, 0)),)
TRIANGLE = LatticePolytope.from_points([(2, 0), (0, 3), (1, 1)])
SEGMENT = LatticePolytope.from_points([(2, 0), (0, 3)])


def row(cls, fields, shown=None, alternatives=None):
    """One table row: the fields in parameter order, the fields that == and
    repr read (all by default), and for each field a value that differs
    (OTHER by default; a class that checks its arguments names valid ones)."""
    if alternatives is None:
        alternatives = dict.fromkeys(fields, OTHER)
    return pytest.param(cls, fields, shown or tuple(fields), alternatives, id=cls.__name__)


VALUES = [
    row(
        Term,
        {"coefficient": Fraction(1), "exponent": (0, 2, 0, 0)},
        alternatives={"coefficient": Fraction(3, 2), "exponent": (1, 0, 0, 0)},
    ),
    row(
        SparsePolynomial,
        {"n": 2, "terms": TERMS, "variables": ("x", "y")},
        alternatives={"terms": TERMS[:1], "variables": ("u", "v")},
    ),
    row(SharedVariableWitness, {"variable": 1, "terms": (1, 2)}),
    row(CommonFactorWitness, {"terms": (1, 2), "gcd": 2}),
    row(WellPoisedReport, {"well_poised": True, "monomial": False, "witness": None}),
    row(LinealityBasis, {"v_f": BASIS.v_f, "kernel_vectors": BASIS.kernel_vectors}),
    row(RayGenerator, {"i": 1, "w": (-1, 0, 0, 0)}),
    row(TropicalCone, {"S": (2, 3), "lineality": BASIS, "rays": RAYS}),
    row(
        WeightDecomposition,
        {
            "S": (2, 3),
            "lineality": BASIS,
            "lineality_coefficients": (Fraction(1, 2), Fraction(0)),
            "rays": RAYS,
            "ray_coefficients": (Fraction(3),),
        },
    ),
    row(
        LatticePolytope,
        {
            "n": 2,
            "vertices": SEGMENT.vertices,
            "equations": SEGMENT.equations,
            "facets": SEGMENT.facets,
        },
        shown=("n", "vertices"),
    ),
    row(FaceDescriptor, {"term_indices": (1, 3), "supporting_weight": (0, -1, 0, 0)}),
    row(
        MinkowskiReport,
        {"trivial_only": True, "census": ((2, 0), (0, 3)), "non_vertex_points": ()},
    ),
    row(ValuationMatrix, {"S": (2, 3), "rows": ((2, 1, 1, 1), (0, 0, 1, -1), (-1, 0, 0, 0))}),
    row(GradingImage, {"degrees": ((1,), (2,)), "minimal_generators": ((1,),)}),
    row(Grading, {"entries": (2, 1, 1, 1)}, alternatives={"entries": (1, 1, 1, 1)}),
    row(
        OkounkovBody,
        {
            "points": ((0, 0), (1, 0), (0, 1)),
            "vertices": ((0, 0), (1, 0), (0, 1)),
            "boundary": ((0, 0), (1, 0), (0, 1)),
            "area": Fraction(1, 2),
        },
    ),
]


def test_the_table_covers_every_public_value_type():
    public = [getattr(wellpoised, name) for name in wellpoised.__all__]
    classes = {obj for obj in public if inspect.isclass(obj) and not issubclass(obj, Exception)}
    assert classes == {param.values[0] for param in VALUES}
    assert len(classes) == 16


@pytest.mark.parametrize("cls, fields, shown, alternatives", VALUES)
def test_construction_by_position_and_keyword_stores_each_field(cls, fields, shown, alternatives):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert pickle.loads(pickle.dumps(by_position)) == by_position


@pytest.mark.parametrize("cls, fields, shown, alternatives", VALUES)
def test_equality_and_hash_read_the_shown_fields_only(cls, fields, shown, alternatives):
    value = cls(**fields)
    for name, other in alternatives.items():
        changed = cls(**{**fields, name: other})
        if name in shown:
            assert changed != value, name
        else:
            assert changed == value and hash(changed) == hash(value), name
    assert value.__eq__(tuple(fields.values())) is NotImplemented
    assert value.__eq__(object()) is NotImplemented
    assert value != tuple(fields.values())


@pytest.mark.parametrize("cls, fields, shown, alternatives", VALUES)
def test_repr_shows_the_shown_fields_in_order(cls, fields, shown, alternatives):
    text = ", ".join(f"{name}={fields[name]!r}" for name in shown)
    assert repr(cls(**fields)) == f"{cls.__name__}({text})"


def test_repr_literals():
    assert repr(Term(1, [0, 2, 0, 0])) == "Term(coefficient=Fraction(1, 1), exponent=(0, 2, 0, 0))"
    assert repr(SEGMENT) == "LatticePolytope(n=2, vertices=((2, 0), (0, 3)))"
    assert SEGMENT == LatticePolytope(2, SEGMENT.vertices, TRIANGLE.equations, TRIANGLE.facets)


@pytest.mark.parametrize("cls, fields, shown, alternatives", VALUES)
def test_assignment_and_deletion_raise_attribute_error(cls, fields, shown, alternatives):
    value = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, OTHER)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert value == cls(**fields)


def test_lineality_rows_are_cached_on_the_instance():
    basis = LinealityBasis(BASIS.v_f, BASIS.kernel_vectors)
    rows = basis.rows
    assert rows == (BASIS.v_f, *BASIS.kernel_vectors)
    assert basis.rows is rows
    assert basis == BASIS and hash(basis) == hash(BASIS)


CHECKING = {Term, SparsePolynomial, Grading, LatticePolytope}
PLAIN = [param for param in VALUES if param.values[0] not in CHECKING]


def test_only_the_checking_records_define_an_initializer():
    assert len(PLAIN) == 12
    for cls in (param.values[0] for param in VALUES):
        written = cls.__init__.__code__.co_filename == inspect.getfile(cls)
        assert written == (cls in CHECKING), cls.__name__
    for cls, fields, *_ in (param.values for param in PLAIN):
        assert tuple(inspect.signature(cls).parameters) == tuple(fields) == cls._fields


def _missing(names):
    """CPython's text for the required arguments a call leaves out: 'a';
    'a' and 'b'; 'a', 'b', and 'c'."""
    quoted = [repr(name) for name in names]
    if len(quoted) > 1:
        quoted[-1] = f"and {quoted[-1]}"
    listed = (", " if len(quoted) > 2 else " ").join(quoted)
    plural = "s" if len(names) > 1 else ""
    return f"missing {len(names)} required positional argument{plural}: {listed}"


@pytest.mark.parametrize("cls, fields, shown, alternatives", PLAIN)
def test_a_bad_call_raises_type_error_naming_the_class(cls, fields, shown, alternatives):
    names, values = list(fields), list(fields.values())
    n = len(names)
    bad_calls = [
        (lambda: cls(*values[:-1]), _missing(names[-1:])),
        (lambda: cls(), _missing(names)),
        (lambda: cls(*values, OTHER), f"takes {n + 1} positional arguments but {n + 2} were given"),
        (lambda: cls(**fields, extra=OTHER), "got an unexpected keyword argument 'extra'"),
        (lambda: cls(*values[:1], **fields), f"got multiple values for argument {names[0]!r}"),
    ]
    for call, problem in bad_calls:
        text = f"{cls.__name__}.__init__() {problem}"
        with pytest.raises(TypeError, match=f"^{re.escape(text)}$"):
            call()
