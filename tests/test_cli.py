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
from test_serialize import chain_argv


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
    # the CLI reads the fan's sweep itself; the library builds the cones
    argvs = [["trop", "x+y^2+z*w", "--vars", "x,y,z,w"], *map(chain_argv, range(3, 11))]
    for argv in argvs:
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        f = parse(argv[1], argv[3].split(","))
        expected = [
            {"S": c.S, "dim": c.dim, "lineality": c.lineality.rows, "rays": [r.w for r in c.rays]}
            for c in fan.tropical_variety(f)
        ]
        assert_document(out, {"cones": expected})


def test_trop_checks_the_fan_input_when_there_is_no_cone(capsys):
    # the lineality basis carries the check and is built before the first cone
    for argv in (["trop", "5", "--vars", "x"], ["trop", "x+x*y", "--vars", "x,y"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["code"] == "precondition_violation"
    code, out, _ = run_cli(capsys, ["trop", "x", "--vars", "x"])
    assert code == 0
    assert_document(out, {"cones": []})


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
    # the library's canonical form: int when integral, else Fraction
    parsed = cli._parse_vector(" 6,+2,-3,1/2", "--classify")
    assert parsed == (6, 2, -3, Fraction(1, 2))
    assert [type(v) for v in parsed] == [int, int, int, Fraction]
    # a weight entry past int()'s digit limit is a validation error, not a crash
    argv = ["trop", "x+y", "--vars", "x,y", "--classify=1" + "0" * 4300 + ",0"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "validation_error"


def test_integer_options_follow_the_library_integer_rule(capsys):
    matrix = ["matrix", "x+y^2+z*w", "--vars", "x,y,z,w", "--S"]
    code, out, err = run_cli(capsys, matrix + ["2,3"])
    assert code == 0 and err == ""
    # any exact spelling of an integer is that integer; the subset is sorted
    for spelling in ("3.0,2", "6/2,2", " 2 , +3 "):
        assert run_cli(capsys, matrix + [spelling]) == (0, out, "")
    nok = ["nok", "x+y^2+z*w", "--vars", "x,y,z,w", "--S", "2,3", "--degree"]
    code, out, _ = run_cli(capsys, nok + ["2,1,1,1"])
    assert code == 0 and run_cli(capsys, nok + ["4/2,1.0,1,1"]) == (0, out, "")
    # a value that is not exactly an integer is never truncated
    for argv in (matrix + ["5/2,3"], nok + ["2,1.5,1,1"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "validation_error" and "is not an integer" in error["message"]
    # past int()'s digit limit, in digits or by exponent: one JSON line naming
    # the option, not a traceback
    huge = "1" + "0" * 4999
    for option, argv in (
        ("--S", matrix + [huge + ",2"]),
        ("--S", matrix + ["1e5000,2"]),
        ("--degree", nok + ["1e5000,1,1,1"]),
        ("--classify", ["trop", "x+y", "--vars", "x,y", f"--classify={huge},0"]),
        ("--classify", ["trop", "x+y", "--vars", "x,y", "--classify=1e999999999,0"]),
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["code"] == "validation_error" and error["message"].startswith(option + ":")
    # a malformed value is reported with the option it came from
    messages = set()
    for argv in (nok[:4] + ["--S", "a,3", "--degree", "2,1,1,1"], nok + ["a,1,1,1"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        messages.add(json.loads(err)["error"]["message"].split(":")[0])
    assert messages == {"--S", "--degree"}
    # --dim follows the same rule
    graded = ["graded", "--eq-rows", "1,1", "--eq-targets", "2", "--dim"]
    code, out, err = run_cli(capsys, graded + ["2"])
    assert code == 0 and err == ""
    for spelling in ("4/2", "2.0"):
        assert run_cli(capsys, graded + [spelling]) == (0, out, "")
    code, out, err = run_cli(capsys, graded + ["5/2"])
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "validation_error" and error["message"].startswith("--dim:")
    # an empty list reaches the library, which refuses it
    for argv in (matrix + [","], nok[:4] + ["--S", ",", "--degree", ","]):
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and json.loads(err)["error"]["code"] == "precondition_violation"


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


def test_nok_cone_row_excludes_the_body_options(capsys):
    base = ["nok", "x+y^2+z*w", "--vars", "x,y,z,w", "--cone-row", "1,1,1,1"]
    for extra in (["--S", "2,3"], ["--degree", "2,1,1,1"], ["--S", "2,3", "--degree", "2,1,1,1"]):
        code, out, err = run_cli(capsys, [*base, *extra])
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == {
            "code": "validation_error",
            "message": "--cone-row excludes --S and --degree",
        }, extra


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
    error = json.loads(err)["error"]
    assert error["code"] == "validation_error"
    assert error["message"] == "--points: vector 2 has length 3, expected 2"


def test_project_points_exclude_the_equality_options(capsys, tmp_path):
    path = tmp_path / "points.json"
    path.write_text("[[0, 0], [1, 0], [0, 1]]")
    points = ["project", "--points", str(path), "--rows", "1,0;0,1"]
    eq = ["--eq-rows", "1,1", "--eq-targets", "5", "--dim", "2"]
    # each equality option, and all three
    for extra in (eq[0:2], eq[2:4], eq[4:6], eq):
        code, out, err = run_cli(capsys, [*points, *extra])
        assert code == 2 and out == "" and err.count("\n") == 1, extra
        assert json.loads(err)["error"] == {
            "code": "validation_error",
            "message": "--points excludes --eq-rows, --eq-targets and --dim",
        }
    # either source alone prints its body, byte for byte
    triangle = [[0, 0], [1, 0], [0, 1]]
    segment = [[0, 5], [5, 0]]
    for argv, body in (
        (points, {"points": triangle, "vertices": triangle, "boundary": triangle, "area": "1/2"}),
        (
            ["project", "--rows", "1,0;0,1", *eq],
            {"points": segment[::-1], "vertices": segment, "boundary": segment, "area": 0},
        ),
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert out == json.dumps({"schema_version": 1, **body}, indent=2) + "\n"


def test_vectors_of_another_length_name_their_option(capsys, tmp_path):
    eq = ["--eq-rows", "1,1", "--eq-targets", "1", "--dim", "2"]
    path = tmp_path / "points.json"
    path.write_text("[[0, 0], [1, 0], [0, 1]]")
    for option, argv in (
        # a row of another length than --dim, or than the other rows
        ("--eq-rows", ["graded", "--eq-rows", "1,1,1", "--eq-targets", "2", "--dim", "2"]),
        ("--eq-rows", ["graded", "--eq-rows", "1,1;1", "--eq-targets", "2,1", "--dim", "2"]),
        # one target per row
        ("--eq-targets", ["graded", "--eq-rows", "1,1", "--eq-targets", "2,1", "--dim", "2"]),
        # projection rows of another length than the points, or than each other
        ("--rows", ["project", "--rows", "1,1,1", *eq]),
        ("--rows", ["project", "--rows", "1,1;1", *eq]),
        ("--rows", ["project", "--rows", "1,1,1", "--points", str(path)]),
        # a weight or an extra cone row of another length than the variables
        ("--classify", ["trop", "x+y^2+z*w", "--vars", "x,y,z,w", "--classify=1,2,3"]),
        ("--classify", ["trop", "x+y", "--vars", "x,y", "--classify=1,2,3"]),
        ("--cone-row", ["nok", "x+y^2+z*w", "--vars", "x,y,z,w", "--cone-row", "1,1"]),
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["code"] == "validation_error"
        assert error["message"].startswith(option + ": vector "), argv
    # the rows are held to the length of the file's points
    _, _, err = run_cli(capsys, ["project", "--rows", "1,1,1", "--points", str(path)])
    assert json.loads(err)["error"]["message"] == "--rows: vector 1 has length 3, expected 2"


def test_empty_vectors_name_their_option(capsys):
    graded, eq = ["graded", "--dim", "2"], ["--eq-rows", "1,1", "--eq-targets", "1", "--dim", "2"]
    for message, argv in (
        # _parse_rows: a row with no entry, and no row at all
        ("--eq-rows: empty vector", [*graded, "--eq-rows", "1,1;,", "--eq-targets", "2,1"]),
        ("--eq-rows: empty row list", [*graded, "--eq-rows", ";", "--eq-targets", "2"]),
        ("--rows: empty row list", ["project", "--rows", " ; ", *eq]),
        # _parse_vector
        ("--eq-targets: empty vector", [*graded, "--eq-rows", "1,1", "--eq-targets", ","]),
        ("--classify: empty vector", ["trop", "x+y", "--vars", "x,y", "--classify=,"]),
        ("--cone-row: empty vector", ["nok", "x+y", "--vars", "x,y", "--cone-row", " "]),
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == {"code": "validation_error", "message": message}, argv


def test_project_reads_each_points_file_value_exactly(capsys, tmp_path):
    path = tmp_path / "points.json"
    # a float is read as its decimal text, a string as a number of its own
    path.write_text('[[0, 0], [0.1, 0], ["1/2", 2], [0, 3]]')
    points = cli._load_points(str(path))
    assert points == [(0, 0), (Fraction(1, 10), 0), (Fraction(1, 2), 2), (0, 3)]
    assert [type(x) for p in points for x in p].count(int) == 6
    code, out, err = run_cli(capsys, ["project", "--points", str(path), "--rows", "1,0;0,1"])
    assert code == 0 and err == ""
    assert json.loads(out)["points"] == [[0, 0], ["1/10", 0], ["1/2", 2], [0, 3]]
    # "1,2" is one malformed value, not two numbers; "1e5000" is past the digit limit
    for bad in ('"1,2"', '"1e5000"'):
        path.write_text(f'[[{bad}, 0], [0, 1]]')
        code, out, err = run_cli(capsys, ["project", "--points", str(path), "--rows", "1,0"])
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["code"] == "validation_error" and error["message"].startswith("--points:")


def test_points_file_floats_are_read_as_their_decimal_text(capsys, tmp_path):
    path = tmp_path / "points.json"
    # a double would print 12345678901234567000, and 1e400 would overflow to inf
    path.write_text("[[12345678901234567890.5, 0], [0, 1], [1e400, 0]]")
    code, out, err = run_cli(capsys, ["project", "--points", str(path), "--rows", "1,0;0,1"])
    assert code == 0 and err == ""
    assert json.loads(out)["points"] == [["24691357802469135781/2", 0], [0, 1], [10**400, 0]]


A, B = 10**2200 + 1, 10**2200 + 3  # coprime, so the homogeneity vector holds A*B: 4401 digits
NINES = "9" * 3000


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", f"x^{A}+y^{B}+z", "--vars", "x,y,z", "--S", "1,2"],
        ["trop", f"x^{A}+y^{B}+z", "--vars", "x,y,z"],
        # the one point is 1000 times 4299 nines
        ["graded", "--eq-rows", "1/1000", "--eq-targets", "9" * 4299, "--dim", "1"],
        # the coefficient NINES^2 is written inside the handler, by to_string
        ["faces", f"{NINES}*{NINES}*x+y", "--vars", "x,y"],
    ],
    ids=["matrix", "trop", "graded", "faces"],
)
def test_a_result_number_past_the_digit_limit_is_a_precondition_error(capsys, argv):
    for fmt in ("json", "table"):
        code, out, err = run_cli(capsys, [*argv, "--format", fmt])
        assert code == 3 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == {
            "code": "precondition_violation",
            "message": "a result number exceeds the limit of 4300 digits",
        }


def test_any_other_value_error_is_not_an_exit_code(monkeypatch):
    # a ValueError that the library did not name is a bug, so it propagates
    def broken(f):
        raise ValueError("not a digit-limit error")

    monkeypatch.setattr(cli, "is_well_poised", broken)
    with pytest.raises(ValueError, match="not a digit-limit error"):
        cli.run(["check", "x", "--vars", "x"])


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


# The --format table text of six documents: rational points and a null
# area, a flat weight vector, an integer matrix, a nested witness, a nested
# census, and a list of faces, with a blank line after each face but the last.
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
    "check": (
        ["check", "x*y+y*z", "--vars", "x,y,z"],
        """\
schema_version: 1
well_poised: False
monomial: False
witness:
  shared_variable: y
  terms: [1, 2]
""",
    ),
    "polytope": (
        ["polytope", "x^2+y^3", "--vars", "x,y", "--minkowski"],
        """\
schema_version: 1
n: 2
vertices:
  [2  0]
  [0  3]
simplex: True
minkowski:
  trivial_only: True
  census:
    [2  0]
    [0  3]
  non_vertex_points: []
""",
    ),
    "faces": (
        ["faces", "x+y^2+z*w", "--vars", "x,y,z,w"],
        """\
schema_version: 1
faces:
  S: [1]
  weight: [0, -1, -1, -1]
  initial_form: x

  S: [2]
  weight: [-1, 0, -1, -1]
  initial_form: y^2

  S: [3]
  weight: [-1, -1, 0, 0]
  initial_form: z*w

  S: [1, 2]
  weight: [0, 0, -1, -1]
  initial_form: x + y^2

  S: [1, 3]
  weight: [0, -1, 0, 0]
  initial_form: x + z*w

  S: [2, 3]
  weight: [-1, 0, 0, 0]
  initial_form: y^2 + z*w

  S: [1, 2, 3]
  weight: [0, 0, 0, 0]
  initial_form: x + y^2 + z*w
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
    flat_points, no_points = tmp_path / "flat.json", tmp_path / "none.json"
    flat_points.write_text("[1, 0]")
    no_points.write_text("[]")
    deep_points = tmp_path / "deep.json"  # deeper than the JSON reader recurses
    deep_points.write_text("[" * 100000 + "]" * 100000)
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
        # a points file that cannot be read, holds no list of lists, or no point
        ["project", "--points", str(tmp_path / "absent.json"), "--rows", "1,0;0,1"],
        ["project", "--points", str(flat_points), "--rows", "1,0;0,1"],
        ["project", "--points", str(no_points), "--rows", "1,0;0,1"],
        ["project", "--points", str(deep_points), "--rows", "1,0;0,1"],
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
    _, parsers = cli._parsers()
    assert set(parsers) == set(COMMANDS) - {"frobnicate"}
    for name, parser in parsers.items():
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
# Exponent notation past int()'s digit limit is refused, not built and printed.
@example(["matrix", "x+y", "--vars", "x,y", "--S", "1e5000,2"])
@example(["trop", "x+y", "--vars", "x,y", "--classify=1e5000,0"])
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
