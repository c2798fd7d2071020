import argparse
import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wellpoised import cli
from wellpoised import fan, geometry, okounkov
from wellpoised.polynomial import initial_form, is_well_poised, parse, to_string

from oracles import json_value


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_document(out: str, payload: dict) -> None:
    """The printed document is schema_version, then the payload, keys in order."""
    expected = json_value({"schema_version": cli.SCHEMA_VERSION, **payload})
    doc = json.loads(out)
    assert doc == expected and list(doc) == list(expected)


def body_values(body) -> dict:
    return {
        "points": body.points,
        "vertices": body.vertices,
        "boundary": body.boundary,
        "area": body.area,
    }


def test_check_matches_library(capsys):
    code, out, err = run_cli(capsys, ["check", "x^2+y^3+z^5", "--vars", "x,y,z"])
    assert code == 0 and err == ""
    f = parse("x^2+y^3+z^5", ["x", "y", "z"])
    report = is_well_poised(f)
    assert report.witness is None
    assert_document(out, {
        "well_poised": report.well_poised, "monomial": report.monomial, "witness": None,
    })
    assert json.loads(out)["well_poised"] is True


def test_check_witness_shape(capsys):
    code, out, _ = run_cli(capsys, ["check", "x*y+y*z", "--vars", "x,y,z"])
    assert code == 0
    doc = json.loads(out)
    assert doc["well_poised"] is False
    assert doc["witness"] == {"shared_variable": "y", "terms": [1, 2]}
    code, out, _ = run_cli(capsys, ["check", "x^2+y^2", "--vars", "x,y"])
    assert code == 0
    assert json.loads(out)["witness"] == {"gcd": 2, "terms": [1, 2]}


def test_polytope_matches_library(capsys):
    argv = ["polytope", "x^2+y^3+z^5", "--vars", "x,y,z", "--lattice", "--minkowski"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    f = parse("x^2+y^3+z^5", ["x", "y", "z"])
    p = geometry.newton_polytope(f)
    report = geometry.minkowski_decomposition_witness(p)
    assert_document(out, {
        "n": p.n,
        "vertices": p.vertices,
        "simplex": True,
        "lattice_points": geometry.lattice_points(p),
        "minkowski": {
            "trivial_only": report.trivial_only,
            "census": report.census,
            "non_vertex_points": report.non_vertex_points,
        },
    })
    assert json.loads(out)["minkowski"]["trivial_only"] is True


def test_faces_matches_library(capsys):
    code, out, _ = run_cli(capsys, ["faces", "x+y^2+z*w", "--vars", "x,y,z,w"])
    assert code == 0
    f = parse("x+y^2+z*w", ["x", "y", "z", "w"])
    expected = [
        {
            "S": d.term_indices,
            "weight": d.supporting_weight,
            "initial_form": to_string(initial_form(f, d.supporting_weight)),
        }
        for d in fan.faces(f)
    ]
    assert_document(out, {"faces": expected})


def test_trop_matches_library(capsys):
    code, out, _ = run_cli(capsys, ["trop", "x+y^2+z*w", "--vars", "x,y,z,w"])
    assert code == 0
    f = parse("x+y^2+z*w", ["x", "y", "z", "w"])
    expected = [
        {"S": c.S, "dim": c.dim, "lineality": c.lineality.rows, "rays": [r.w for r in c.rays]}
        for c in fan.tropical_variety(f)
    ]
    assert_document(out, {"cones": expected})


def test_trop_classify(capsys):
    argv = ["trop", "x+y^2+z*w", "--vars", "x,y,z,w", "--classify", "0,0,-1,-1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["S"] == [1, 2] and doc["in_tropical_variety"] is True
    argv[-1] = "1,0,0,0"
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["S"] == [1] and doc["in_tropical_variety"] is False


def test_classify_takes_a_negative_weight_after_equals(capsys):
    f = parse("x+y^2+z*w", ["x", "y", "z", "w"])
    argv = ["trop", "x+y^2+z*w", "--vars", "x,y,z,w", "--classify=-1,0,1,-1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    subset = fan.classify_weight(f, (-1, 0, 1, -1))
    assert subset == (2, 3)
    assert_document(out, {"weight": [-1, 0, 1, -1], "S": subset, "in_tropical_variety": True})
    # without "=" argparse takes the leading "-" for an option: no value
    code, out, err = run_cli(capsys, argv[:-1] + ["--classify", "-1,0,1,-1"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "validation_error"


def test_vectors_parse_to_fractions(capsys):
    parsed = cli._parse_vector(" 6,+2,-3,1/2")
    assert parsed == (6, 2, -3, Fraction(1, 2))
    assert all(type(v) is Fraction for v in parsed)
    # a weight entry past int()'s digit limit is a validation error, not a crash
    argv = ["trop", "x+y", "--vars", "x,y", "--classify=1" + "0" * 4300 + ",0"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "validation_error"


def test_matrix_matches_library(capsys):
    argv = ["matrix", "x+y^2+z*w", "--vars", "x,y,z,w", "--S", "2,3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [[2, 1, 1, 1], [0, 0, 1, -1], [-1, 0, 0, 0]]
    f = parse("x+y^2+z*w", ["x", "y", "z", "w"])
    m = okounkov.valuation_matrix(f, (2, 3))
    valuations = [{"variable": v, "value": col} for v, col in zip(f.variables, m.columns())]
    assert_document(out, {"S": m.S, "rows": m.rows, "valuations": valuations})


def test_nok_body_and_cone(capsys):
    argv = [
        "nok", "x+y^2+z*w", "--vars", "x,y,z,w", "--S", "2,3", "--degree", "2,1,1,1",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == [[1, 0, "-1/2"], [1, 0, 0], [1, 1, 0], [1, -1, 0]]
    assert doc["area"] is None
    f = parse("x+y^2+z*w", ["x", "y", "z", "w"])
    body = okounkov.nok_body(f, (2, 1, 1, 1), (2, 3))
    assert_document(out, {"S": [2, 3], "degree": [2, 1, 1, 1], **body_values(body)})
    # S is printed as the subset the matrix uses: sorted, repeats dropped
    argv[5] = "3,2,3"
    code, repeated, _ = run_cli(capsys, argv)
    assert code == 0 and repeated == out
    assert json.loads(repeated)["S"] == [2, 3]

    argv = [
        "nok", "T1*T2+T3^2+T4*T5", "--vars", "T1,T2,T3,T4,T5",
        "--cone-row", "1,1,1,0,0",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    dp = parse("T1*T2+T3^2+T4*T5", ["T1", "T2", "T3", "T4", "T5"])
    generators = okounkov.global_nok_cone(dp, (1, 1, 1, 0, 0))
    assert len(generators) == 5
    assert_document(out, {"extra_row": [1, 1, 1, 0, 0], "generators": generators})


def test_graded_component(capsys):
    argv = [
        "graded", "--eq-rows", "2,1,1,1;0,0,1,-1", "--eq-targets", "2,0", "--dim", "4",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert doc["exponents"] == [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1]]
    # 2 a1 = 1 holds on a ray of rational points, but at no integer point
    argv = ["graded", "--eq-rows", "2,0", "--eq-targets", "1", "--dim", "2"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["count"] == 0


def test_project_from_equalities(capsys):
    argv = [
        "project",
        "--eq-rows", "1,-1,0,-1,1;1,1,1,0,2",
        "--eq-targets", "0,6",
        "--dim", "5",
        "--rows", "1,1,1,1,1;1,1,1,0,0",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert sorted(map(tuple, doc["vertices"])) == [(4, 2), (6, 0), (6, 6), (12, 6)]
    assert doc["area"] == 24


def test_project_from_points_file(capsys, tmp_path):
    points = [[0, 0, 0, 3, 3], [0, 0, 6, 0, 0], [0, 2, 0, 0, 2], [3, 3, 0, 0, 0], [6, 0, 0, 6, 0]]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    argv = [
        "project", "--points", str(path), "--rows", "1,1,1,1,1;1,1,0,1,1",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert sorted(map(tuple, doc["boundary"])) == [(4, 4), (6, 0), (6, 6), (12, 12)]
    assert doc["area"] == 24
    body = okounkov.projected_body(points, [(1, 1, 1, 1, 1), (1, 1, 0, 1, 1)])
    assert_document(out, body_values(body))


def test_project_rejects_ragged_points_file(capsys, tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps([[1, 2], [1, 2, 3]]))
    code, _, err = run_cli(capsys, ["project", "--points", str(path), "--rows", "1,0"])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "validation_error"


def test_output_is_deterministic(capsys):
    argv = ["trop", "x+y^2+z*w", "--vars", "x,y,z,w"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_run_repeats_alternating_commands(capsys):
    # the parser is built once per process and reused by every run
    argvs = [
        ["check", "x*y+y*z", "--vars", "x,y,z"],
        ["trop", "x+y^2+z*w", "--vars", "x,y,z,w"],
        ["graded", "--eq-rows", "1,1,1", "--eq-targets", "2", "--dim", "3"],
        ["matrix", "x+y^2+z*w", "--vars", "x,y,z,w", "--S", "1,2"],
        ["check", "x+", "--vars", "x"],
        ["polytope", "x^2+y^3+z^5", "--vars", "x,y,z", "--lattice"],
    ]
    first = [(cli.run(argv), capsys.readouterr()) for argv in argvs]
    second = [(cli.run(argv), capsys.readouterr()) for argv in argvs]
    assert first == second
    assert [code for code, _ in first] == [0, 0, 0, 0, 2, 0]
    assert all(out for code, (out, _) in first if code == 0)


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    argv = ["check", "x+y", "--vars", "x,y", "--output", str(target)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["well_poised"] is True


def test_table_format_smoke(capsys):
    code, out, _ = run_cli(capsys, ["check", "x+y", "--vars", "x,y", "--format", "table"])
    assert code == 0
    assert "well_poised: True" in out


# The --format table text of three documents: rational points and a null
# area, a flat weight vector, and an integer matrix.
TABLES = {
    "nok": (
        ["nok", "x+y^2+z*w", "--vars", "x,y,z,w", "--S", "2,3", "--degree", "2,1,1,1"],
        """\
schema_version: 1
S: [2, 3]
degree: [2, 1, 1, 1]
points:
  [1   0  -1/2]
  [1   0     0]
  [1   1     0]
  [1  -1     0]
vertices:
  [1  -1     0]
  [1   0  -1/2]
  [1   1     0]
boundary: None
area: None
""",
    ),
    "trop": (
        ["trop", "x+y^2+z*w", "--vars", "x,y,z,w", "--classify", "0,0,-1,-1"],
        """\
schema_version: 1
weight: [0, 0, -1, -1]
S: [1, 2]
in_tropical_variety: True
""",
    ),
    "graded": (
        ["graded", "--eq-rows", "1,-1,0,-1,1;1,1,1,0,2", "--eq-targets", "0,2", "--dim", "5"],
        """\
schema_version: 1
n: 5
count: 5
exponents:
  [1  1  0  0  0]
  [0  0  2  0  0]
  [0  0  0  1  1]
  [1  0  1  1  0]
  [2  0  0  2  0]
""",
    ),
}


@pytest.mark.parametrize("command", TABLES)
def test_table_format_text(capsys, command):
    argv, text = TABLES[command]
    code, out, err = run_cli(capsys, argv + ["--format", "table"])
    assert code == 0 and err == ""
    assert out == text


def test_parse_error_exit_code(capsys):
    # int() refuses more than 4300 digits: over-long numbers are parse errors too
    for argv in (
        ["check", "x^2+q", "--vars", "x,y"],
        ["check", "3/0*x", "--vars", "x"],
        ["check", "x^" + "9" * 5000, "--vars", "x"],
        ["check", "1" * 5000 + "*x", "--vars", "x"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["code"] == "parse_error"


def test_validation_error_exit_code(capsys, tmp_path):
    unwritable = str(tmp_path / "missing" / "out.json")
    long_points = tmp_path / "long.json"
    long_points.write_text(f"[[{'1' * 5000}, 0], [0, 1]]", encoding="utf-8")
    latin1_points = tmp_path / "latin1.json"
    latin1_points.write_bytes(b"[[1, 0], [0, 1]] \xff")
    for argv in (
        # each leaves out an option its command cannot run without
        ["check", "x"],
        ["matrix", "x+y", "--vars", "x,y"],
        ["project", "--eq-rows", "1", "--eq-targets", "1", "--dim", "1"],
        ["graded", "--eq-rows", "1,1", "--eq-targets", "2"],
        ["nok", "x+y", "--vars", "x,y", "--S", "1,2"],
        ["check", "x", "--vars", "x", "--output", unwritable],
        ["project", "--points", str(long_points), "--rows", "1,0;0,1"],
        ["project", "--points", str(latin1_points), "--rows", "1,0;0,1"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["code"] == "validation_error"


def test_precondition_exit_code(capsys):
    for argv in (
        ["trop", "x+y^2+1", "--vars", "x,y,z"],
        # the constant term's ray is zero: no weight singles out x^2*y^3
        ["faces", "1+x^2*y^3", "--vars", "x,y"],
        # a square is not a simplex: no witness, and no census printed either
        ["polytope", "1+x+y+x*y", "--vars", "x,y", "--lattice", "--minkowski"],
        # x + y = -1 has no non-negative solution: the polytope is empty
        ["project", "--rows", "1,1", "--eq-rows", "1,1", "--eq-targets", "-1", "--dim", "2"],
        # x = y holds on the ray of (1, 1): no polytope to project
        ["project", "--rows", "1,1", "--eq-rows", "1,-1", "--eq-targets", "0", "--dim", "2"],
        # x = y has the non-negative solutions (t, t) for every t: infinitely many
        ["graded", "--eq-rows", "1,-1", "--eq-targets", "0", "--dim", "2"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["code"] == "precondition_violation"


def test_bad_subcommand_is_validation_error(capsys):
    code, _, err = run_cli(capsys, ["frobnicate"])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "validation_error"


MALFORMED = st.sampled_from(["", "a", "1/0", "1,,2", ";"])


def mostly(tokens):
    """Seven draws in eight from tokens, the rest malformed."""
    return st.sampled_from([True] * 7 + [False]).flatmap(lambda ok: tokens if ok else MALFORMED)


def joined(tokens, sep: str, sizes):
    return mostly(sizes.flatmap(lambda m: st.lists(tokens, min_size=m, max_size=m)).map(sep.join))


polynomials = joined(
    st.lists(
        st.sampled_from(["x", "y^2", "z", "w^3", "x^2", "z*w", "2", "1/2", "q", "-3"]),
        min_size=1,
        max_size=2,
    ).map("*".join),
    "+",
    st.integers(1, 4),
)
# Each command with the flags it takes (an unknown command takes none), and
# whether it takes a polynomial.
COMMANDS = {
    "check": ([], True),
    "polytope": (["--lattice", "--minkowski"], True),
    "faces": ([], True),
    "trop": (["--classify"], True),
    "matrix": (["--S"], True),
    "nok": (["--S", "--degree", "--cone-row"], True),
    "graded": (["--eq-rows", "--eq-targets", "--dim"], False),
    "project": (["--rows", "--eq-rows", "--eq-targets", "--dim"], False),
    "frobnicate": ([], False),
}


def test_the_fuzzed_flags_are_every_option_of_each_command():
    # help and the options every command shares (--vars: each polynomial one), and
    # --points, which needs a file
    drawn_apart = {"-h", "--help", "--vars", "--format", "--output", "--points"}
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMANDS) - {"frobnicate"}
    for name, parser in sub.choices.items():
        declared = {flag for action in parser._actions for flag in action.option_strings}
        assert declared - drawn_apart == set(COMMANDS[name][0]), name


def flag_values(dim: int, n: int, k: int) -> dict:
    """The value strategy of each flag (None for a switch).  Vectors mostly
    have n entries and row lists k rows; graded targets stay at most 6 and
    --dim at most 5, so every enumeration stays small."""
    entries = st.sampled_from(["1", "0", "2", "1", "3", "1/2", "-1"])
    vectors = joined(entries, ",", st.sampled_from([n, n, n, 1, 5]))
    rows = joined(vectors, ";", st.sampled_from([k, k, 1, 3]))
    indices = st.sampled_from(["1", "2", "3", "2", "0", "5"])
    return {
        "--vars": mostly(st.sampled_from(["x,y,z,w", "x,y,z", "w,z,y,x", "x,x"])),
        "--format": st.sampled_from(["json", "xml"]),
        "--lattice": None,
        "--minkowski": None,
        "--classify": vectors,
        "--S": joined(indices, ",", st.sampled_from([2, 2, 2, 1, 3])),
        "--degree": joined(indices, ",", st.sampled_from([n, n, 2])),
        "--cone-row": vectors,
        "--eq-rows": rows,
        "--eq-targets": joined(st.integers(-1, 6).map(str), ",", st.sampled_from([k, k, 3])),
        "--dim": mostly(st.just(str(dim))),
        "--rows": rows,
    }


@st.composite
def argument_lists(draw) -> list[str]:
    """Mostly the shape a command takes, with values that may be malformed,
    now and then with a flag of another command."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    own, polynomial = COMMANDS[command]
    dim = draw(st.integers(-1, 5))
    values = flag_values(dim, 4 if polynomial else max(dim, 1), draw(st.integers(1, 2)))
    argv = [command]
    shaped = draw(st.sampled_from([True] * 7 + [False]))  # or one list in eight breaks it
    if polynomial == shaped:
        argv.append(draw(polynomials))
    flags = [flag for flag in own if draw(st.sampled_from([True] * 7 + [False]))]
    if polynomial and shaped:
        flags.append("--vars")
    if draw(st.sampled_from([False] * 3 + [True])):
        flags.append(draw(st.sampled_from(sorted(values))))
    for flag in flags:
        argv.append(flag)
        if values[flag] is not None:
            argv.append(draw(values[flag]))
    return argv


EXIT_CODES = {2: {"validation_error", "parse_error"}, 3: {"precondition_violation"}}


# -h/--help is never drawn: argparse answers it with SystemExit(0) by design.
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(argument_lists())
# Random lists seldom get every flag of these right; one success each.
@example(["graded", "--eq-rows", "1,1,1;0,1,-1", "--eq-targets", "4,0", "--dim", "3"])
@example(["project", "--eq-rows", "1,1,2", "--eq-targets", "2", "--dim", "3", "--rows", "1,0,0;0,1,0"])
@example(["matrix", "x+y^2+z*w", "--vars", "x,y,z,w", "--S", "1,3"])
def test_every_argument_list_keeps_the_error_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        doc = json.loads(out)
        assert isinstance(doc, dict) and "schema_version" in doc and err == ""
        return
    assert out == "" and err.endswith("\n") and err.count("\n") == 1
    doc = json.loads(err)
    assert set(doc) == {"error"} and set(doc["error"]) == {"code", "message"}
    assert doc["error"]["code"] in EXIT_CODES[code]
    assert isinstance(doc["error"]["message"], str)


def parsed(parse, argv):
    """vars() of the Namespace that parse makes of argv, or its UsageError message."""
    try:
        return vars(parse(list(argv)))
    except cli.UsageError as exc:
        return str(exc)


FULL_PARSER = cli.build_parser()


# run reads a command's arguments with that command's parser alone; the full
# parser is the reference.
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(argument_lists())
@example([])
@example(["frobnicate"])
@example(["check"])
@example(["trop", "x+y", "--vars", "x,y", "--classify", "-1,0"])
@example(["check", "--", "x"])
@example(["check", "x+y", "--vars", "x,y", "extra"])
def test_the_command_parser_reads_argv_as_the_full_parser_does(argv):
    assert parsed(cli._parse, argv) == parsed(FULL_PARSER.parse_args, argv)


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "wellpoised.cli", "check", "x^2+y^3+z^5", "--vars", "x,y,z"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["well_poised"] is True
