"""`serialize.dumps` writes the bytes of `json.dumps(doc, indent=2)`.

`json.dumps` with `indent=2`, rendering each `Fraction` by the tests' own
statement of the rule (`oracles.fraction_text`), is the oracle: every test
compares the writer's text with it, on CLI documents, on large cone lists and
on random trees.
"""

import ast
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wellpoised import cli, serialize

from oracles import fraction_text

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def oracle(doc) -> str:
    return json.dumps(doc, indent=2, default=fraction_text) + "\n"


def readme_examples() -> list[list[str]]:
    """The argument lists of the `wellpoised ...` lines in the README's CLI block."""
    block = re.search(r"## CLI.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.strip()]


def chain_argv(k: int) -> list[str]:
    """`trop` of x0*x1 + x2^2*x3 + ... with k terms."""
    terms = [f"x{2 * i}^{i + 1}*x{2 * i + 1}" if i else "x0*x1" for i in range(k)]
    return ["trop", "+".join(terms), "--vars", ",".join(f"x{j}" for j in range(2 * k))]


def documents_written(monkeypatch) -> list:
    """Collects every document the CLI hands to `serialize.dumps`."""
    docs = []
    real = serialize.dumps
    monkeypatch.setattr(serialize, "dumps", lambda doc: docs.append(doc) or real(doc))
    return docs


def test_every_readme_example_is_the_oracle_text(monkeypatch, capsys):
    examples = readme_examples()
    assert len(examples) == 11
    docs = documents_written(monkeypatch)
    for argv in examples:
        assert cli.run(argv) == 0, argv
        out = capsys.readouterr().out
        assert out == oracle(docs[-1]), argv
    assert len(docs) == len(examples)


@pytest.mark.parametrize("k", range(8, 13))
def test_chain_cone_lists_are_the_oracle_text(k, monkeypatch, capsys):
    docs = documents_written(monkeypatch)
    assert cli.run(chain_argv(k)) == 0
    (doc,) = docs
    assert len(doc["cones"]) == 2**k - k - 1
    assert capsys.readouterr().out == oracle(doc)


def test_serialize_imports_no_wellpoised_module():
    """The documents are built in the CLI: the writer knows no library type."""
    tree = ast.parse((ROOT / "src" / "wellpoised" / "serialize.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "json" in imported
    assert [name for name in imported if name.startswith((".", "wellpoised"))] == []


def test_same_int_row_at_two_depths():
    row = [1, -2, 3]
    doc = {"a": row, "b": {"c": row, "d": [row, (1, -2, 3)]}, "e": [[[row]]]}
    assert serialize.dumps(doc) == oracle(doc)


def test_one_tuple_object_at_two_depths():
    row = (1, -2, 3)
    doc = {"a": [row, row, [1, -2, 3]], "b": {"c": [row]}, "d": row}
    assert serialize.dumps(doc) == oracle(doc)


def test_shared_tuple_holding_a_list_a_fraction_and_a_shared_tuple():
    inner = (Fraction(-1, 2), 4)
    outer = ([1, inner, "s"], Fraction(3, 1), inner, None)
    doc = {"a": outer, "b": [outer, {"c": (outer, inner)}], "d": inner}
    assert serialize.dumps(doc) == oracle(doc)


NESTED = (1, [2, (Fraction(1, 3), "a\nb")], Fraction(-5), ())
CENSUS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("t", [(1, -2), NESTED, (NESTED, [NESTED])], ids=["ints", "nested", "inside"])
def test_one_tuple_is_reindented_deeper_and_shallower(t):
    for doc in ({"a": {"b": {"c": t}}, "d": [t]}, {"d": [t], "a": {"b": {"c": t}}}, [t, [[t]], t]):
        assert serialize.dumps(doc) == oracle(doc)


def test_the_census_shape_is_the_oracle_text():
    # the CLI hands one census tuple to lattice_points and to minkowski.census
    doc = {
        "n": 3,
        "lattice_points": CENSUS,
        "minkowski": {"trivial_only": True, "census": CENSUS, "non_vertex_points": ()},
    }
    assert serialize.dumps(doc) == oracle(doc)


def test_equal_but_distinct_tuples_render_apart():
    rows = [(1, True), (1, 1), (1, Fraction(1)), (1, True), (1, 1)]
    assert len({id(row) for row in rows[:3]}) == 3
    for doc in (rows, rows[::-1], {"a": rows, "b": [rows]}):
        assert serialize.dumps(doc) == oracle(doc)
    assert serialize.dumps([(1, True), (1, 1)]) == "[\n  [\n    1,\n    true\n  ],\n  [\n    1,\n    1\n  ]\n]\n"


def test_shared_tuple_holding_a_float_raises():
    shared = (1, 0.5)
    with pytest.raises(TypeError):
        serialize.dumps({"a": [shared, shared], "b": shared})
    with pytest.raises(TypeError):
        serialize.dumps([(1, 1), (1, 1.0)])


def test_bools_never_print_as_ints():
    for doc in ([[1, 1], [1, True]], [[1, True], [1, 1]], [(0, False), (0, 0)], [True, 1]):
        assert serialize.dumps(doc) == oracle(doc)
    assert "true" in serialize.dumps([[1, 1], [1, True]])


@pytest.mark.parametrize(
    "doc", [{"a": 1.0}, [1, 2.0], [[1.5]], {"a": [Fraction(1, 2), 0.5]}, [[1, 1], [1, 1.0]]]
)
def test_non_schema_values_raise_type_error(doc):
    with pytest.raises(TypeError):
        serialize.dumps(doc)


def test_fractions_print_as_numbers_or_strings():
    assert serialize.dumps({"a": Fraction(1, 2)}) == '{\n  "a": "1/2"\n}\n'
    assert serialize.dumps([Fraction(-1, 3)]) == '[\n  "-1/3"\n]\n'
    assert serialize.dumps({"a": [Fraction(4, 2)]}) == '{\n  "a": [\n    2\n  ]\n}\n'
    assert serialize.dumps(Fraction(-2**70, 1)) == f"{-2**70}\n"
    # a row holding a rational next to an all-int row: neither is taken for the other
    half = '[\n    1,\n    "1/2"\n  ]'
    ones = "[\n    1,\n    1\n  ]"
    assert serialize.dumps([[1, Fraction(1, 2)], [1, 1]]) == f"[\n  {half},\n  {ones}\n]\n"
    assert serialize.dumps([[1, 1], (1, Fraction(1, 2))]) == f"[\n  {ones},\n  {half}\n]\n"


TRICKY = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "é", " ", "\U0001f600", "/"])
strings = st.text(alphabet=TRICKY | st.characters(), max_size=8)
ints = st.integers() | st.integers(min_value=2**64, max_value=2**80) | st.integers(max_value=-(2**64))
# Integral, negative, non-integral and huge rationals.
fractions = st.builds(Fraction, ints, st.sampled_from([1, 2, 3, 7]) | st.integers(1, 2**70))
# Few distinct short rows, so the same row recurs at different depths.
rows = st.lists(st.integers(-2, 2), max_size=3)
small = st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2)])
rational_rows = st.lists(st.integers(-2, 2) | small, max_size=3).map(tuple)
leaves = (
    st.none() | st.booleans() | ints | fractions | strings
    | rows | rows.map(tuple) | rational_rows
)
trees = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(strings, children, max_size=4)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(trees)
def test_random_trees_are_the_oracle_text(doc):
    assert serialize.dumps(doc) == oracle(doc)


# The same generated subtree placed at several depths and several times at one.
shared_trees = st.builds(lambda t: [t, {"k": t}, (t, t)], trees)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(shared_trees)
def test_random_shared_subtrees_are_the_oracle_text(doc):
    assert serialize.dumps(doc) == oracle(doc)
