"""Command-line front end.

The parser declares each command: its subparser names the handler that runs
it and marks the options it cannot run without as required, so argparse
reports a missing one.  Each handler is a thin adapter: ``polynomial`` reads
the numbers in its option values and holds each list of vectors to one
length, so they reach the library already canonical; it runs one library
operation, and builds that operation's JSON document from the library's
values, with its keys in a fixed order.  ``trop`` reads the fan's sweep of
the term subsets itself, so it builds no cone object only to read it back.
``run`` puts ``schema_version`` first and prints the document with
``serialize.dumps`` (or as a human table with --format table).  Exit
status: 0 on success, 2 for input or validation errors, 3 for violated
operation preconditions and for a result number past int()'s digit limit.
Errors are reported as one-line JSON documents on standard error.

``run`` builds the parser once per process.  When the first argument names
a command, that command's own parser reads the rest, as the full parser
would hand it over; anything else (no argument, -h, an unknown command)
goes through the full parser.

The module itself loads only ``polynomial`` and ``serialize``; each command
imports the layer it calls when it runs, so ``check`` starts without the
geometry, fan, okounkov and linalg layers.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import polynomial, serialize
from .polynomial import (
    ParseError,
    PreconditionError,
    SharedVariableWitness,
    SparsePolynomial,
    is_well_poised,
    parse,
    to_string,
)

if TYPE_CHECKING:
    from . import okounkov

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3


class UsageError(ValueError):
    """Bad command line flags or malformed option values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through our JSON path
        raise UsageError(message)


def _read(values, name: str, reader, *args):
    """Option ``name``'s values read by ``reader(values, *args)``; a ValueError is a UsageError."""
    try:
        return reader(values, *args)
    except ValueError as exc:
        raise UsageError(f"{name}: {exc}") from exc


def _split(text: str) -> list[str]:
    return [p for p in text.split(",") if p.strip()]


def _parse_vector(text: str, name: str, n: Optional[int] = None) -> tuple:
    parts = _split(text)
    if not parts:
        raise UsageError(f"{name}: empty vector")
    return _read([parts], name, polynomial.canonical_points, n)[0]


def _parse_rows(text: str, name: str, n: Optional[int] = None) -> list[tuple]:
    rows = [_split(r) for r in text.split(";") if r.strip()]
    if not rows:
        raise UsageError(f"{name}: empty row list")
    if not all(rows):
        raise UsageError(f"{name}: empty vector")
    return _read(rows, name, polynomial.canonical_points, n)


def _load_points(path: str) -> list[tuple]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # a float is kept as its text, so 0.1 is 1/10 and 1e400 is 10**400, not a double
            data = json.load(handle, parse_float=str)
    except OSError as exc:
        raise UsageError(f"cannot read points file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, too long for int()
        raise UsageError(f"points file is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not all(isinstance(p, list) for p in data):
        raise UsageError("points file must hold a JSON list of point lists")
    # every value is read as its text, so a string is a number of its own and true is none
    points = _read([[str(x) for x in p] for p in data], "--points", polynomial.canonical_points)
    if not points:
        raise UsageError("points file must hold at least one point")
    return points


def _polynomial(args) -> SparsePolynomial:
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    return parse(args.polynomial, names)


def _constraints(args) -> tuple[list, int]:
    if args.eq_rows is None or args.eq_targets is None or args.dim is None:
        raise UsageError("--eq-rows, --eq-targets and --dim are required together")
    (n,) = _read([args.dim], "--dim", polynomial._exact_ints)
    rows = _parse_rows(args.eq_rows, "--eq-rows", n)
    targets = _parse_vector(args.eq_targets, "--eq-targets", len(rows))
    return list(zip(rows, targets)), n


def _cmd_check(args) -> dict:
    f = _polynomial(args)
    report = is_well_poised(f)
    witness = report.witness
    if isinstance(witness, SharedVariableWitness):
        witness = {"shared_variable": f.variables[witness.variable], "terms": witness.terms}
    elif witness is not None:
        witness = {"gcd": witness.gcd, "terms": witness.terms}
    return {"well_poised": report.well_poised, "monomial": report.monomial, "witness": witness}


def _cmd_polytope(args) -> dict:
    from . import geometry

    f = _polynomial(args)
    p = geometry.newton_polytope(f)
    doc = {"n": p.n, "vertices": p.vertices, "simplex": geometry.is_simplex(p)}
    # The witness's census is the lattice census, in the same order.
    report = geometry.minkowski_decomposition_witness(p) if args.minkowski else None
    if args.lattice:
        points = geometry.lattice_points(p) if report is None else report.census
        doc["lattice_points"] = points
    if report is not None:
        doc["minkowski"] = {
            "trivial_only": report.trivial_only,
            "census": report.census,
            "non_vertex_points": report.non_vertex_points,
        }
    return doc


def _cmd_faces(args) -> dict:
    from . import fan

    f = _polynomial(args)
    return {"faces": [
        {
            "S": face.term_indices,
            "weight": face.supporting_weight,
            "initial_form": to_string(f.restricted_to(face.term_indices)),
        }
        for face in fan.faces(f)
    ]}


def _cmd_trop(args) -> dict:
    from . import fan

    f = _polynomial(args)
    if args.classify is not None:
        weight = _parse_vector(args.classify, "--classify", f.n)
        subset = fan.classify_weight(f, weight)
        return {
            "weight": weight,
            "S": subset,
            "in_tropical_variety": len(subset) >= 2,
        }
    # the cones of fan.tropical_variety, read straight from the fan's sweep
    basis, pairs = fan._sweep(f, range(2, f.k + 1))
    rows, dim = basis.rows, basis.dim
    return {"cones": [
        {"S": s, "dim": dim + len(rays), "lineality": rows, "rays": [ray.w for ray in rays]}
        for s, rays in pairs
    ]}


def _cmd_matrix(args) -> dict:
    from . import okounkov

    f = _polynomial(args)
    m = okounkov.valuation_matrix(f, _read(_split(args.S), "--S", polynomial._exact_ints))
    return {
        "S": m.S,
        "rows": m.rows,
        "valuations": [
            {"variable": f.variables[j], "value": col} for j, col in enumerate(m.columns())
        ],
    }


def _body(body: okounkov.OkounkovBody) -> dict:
    return {
        "points": body.points,
        "vertices": body.vertices,
        "boundary": body.boundary,
        "area": body.area,
    }


def _cmd_nok(args) -> dict:
    from . import okounkov

    f = _polynomial(args)
    if args.cone_row is not None:
        if args.S is not None or args.degree is not None:
            raise UsageError("--cone-row excludes --S and --degree")
        row = _parse_vector(args.cone_row, "--cone-row", f.n)
        return {"extra_row": row, "generators": okounkov.global_nok_cone(f, row)}
    if args.S is None or args.degree is None:
        raise UsageError("either --cone-row or both --S and --degree are required")
    subset = _read(_split(args.S), "--S", polynomial._exact_ints)
    degree = _read(_split(args.degree), "--degree", polynomial._exact_ints)
    body = okounkov.nok_body(f, degree, subset)
    # after nok_body, so that a bad grading is reported before a bad subset
    return {"S": polynomial._term_subset(f, subset), "degree": degree, **_body(body)}


def _cmd_graded(args) -> dict:
    from . import okounkov

    constraints, n = _constraints(args)
    component = okounkov.graded_component(constraints, n)
    return {
        "n": n,
        "count": len(component),
        "exponents": component,
    }


def _cmd_project(args) -> dict:
    from . import okounkov

    rows = _parse_rows(args.rows, "--rows")
    if args.points is not None:
        points = _load_points(args.points)
    else:
        constraints, n = _constraints(args)
        points, rays = okounkov._nonnegative_polyhedron(
            *okounkov._split_constraints(constraints, n)
        )
        if not points:
            raise PreconditionError("the equality polytope is empty")
        if rays:
            raise PreconditionError("the equality polytope is unbounded")
    rows = _read(rows, "--rows", polynomial.canonical_points, len(points[0]))
    return _body(okounkov.projected_body(points, rows))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wellpoised",
        description="Exact well-poised hypersurface toolkit with JSON output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, polynomial=True):
        p.set_defaults(handler=handler)
        if polynomial:
            p.add_argument("polynomial", help="polynomial text, e.g. 'x^2+y^3+z^5'")
            p.add_argument("--vars", required=True, help="comma-separated variable names, in order")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--output", help="write the document to this path")

    common(sub.add_parser("check", help="well-poised classification"), _cmd_check)

    p = sub.add_parser("polytope", help="Newton polytope vertices")
    common(p, _cmd_polytope)
    p.add_argument("--lattice", action="store_true", help="include the lattice census")
    p.add_argument(
        "--minkowski", action="store_true", help="include the decomposition witness"
    )

    common(sub.add_parser("faces", help="faces as term subsets with weights"), _cmd_faces)

    p = sub.add_parser("trop", help="tropical cones, or classify one weight")
    common(p, _cmd_trop)
    p.add_argument("--classify", help="weight vector to classify, e.g. '0,0,-1,-1'")

    p = sub.add_parser("matrix", help="valuation matrix for a 2-element subset")
    common(p, _cmd_matrix)
    p.add_argument("--S", required=True, help="two 1-based term indices, e.g. '2,3'")

    p = sub.add_parser("nok", help="Newton-Okounkov body or global cone generators")
    common(p, _cmd_nok)
    p.add_argument("--S", help="two 1-based term indices")
    p.add_argument("--degree", help="positive integer grading, e.g. '2,1,1,1'")
    p.add_argument(
        "--cone-row",
        dest="cone_row",
        help="extra row for the global cone; excludes --S and --degree",
    )

    p = sub.add_parser("graded", help="enumerate a graded component exactly")
    common(p, _cmd_graded, polynomial=False)
    p.add_argument("--eq-rows", dest="eq_rows", help="rows 'a,b,...;c,d,...'")
    p.add_argument("--eq-targets", dest="eq_targets", help="one target per row")
    p.add_argument("--dim", help="number of variables")

    p = sub.add_parser("project", help="project polytope vertices to a planar body")
    common(p, _cmd_project, polynomial=False)
    p.add_argument("--points", help="JSON file with a list of points")
    p.add_argument("--rows", required=True, help="projection rows 'a,b,...;c,d,...'")
    p.add_argument("--eq-rows", dest="eq_rows", help="equality rows defining P")
    p.add_argument("--eq-targets", dest="eq_targets", help="equality targets")
    p.add_argument("--dim", help="ambient dimension of P")

    return parser


def _emit_error(code: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, built on the first run and reused by later runs, and
    each command's own parser, taken from it."""
    parser = build_parser()
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, action.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    # The full parser hands every argument after the command to that
    # command's parser, which raises the same UsageError; parsing with it
    # alone skips the top-level pass.
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def run(argv: Sequence[str]) -> int:
    try:
        args = _parse(list(argv))
        doc = {"schema_version": SCHEMA_VERSION, **args.handler(args)}
        text = serialize.dumps(doc) if args.format == "json" else serialize.render_table(doc)
    except UsageError as exc:
        _emit_error("validation_error", str(exc))
        return EXIT_VALIDATION
    except ParseError as exc:
        _emit_error("parse_error", str(exc))
        return EXIT_VALIDATION
    except PreconditionError as exc:
        _emit_error("precondition_violation", str(exc))
        return EXIT_PRECONDITION
    except ValueError as exc:  # int() writes no more than 4300 digits as text
        if "integer string conversion" not in str(exc):
            raise
        message = f"a result number exceeds the limit of {polynomial._DIGIT_LIMIT} digits"
        _emit_error("precondition_violation", message)
        return EXIT_PRECONDITION
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            _emit_error("validation_error", f"cannot write output file: {exc}")
            return EXIT_VALIDATION
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
