"""Command-line front end.

The parser declares each command: its subparser names the handler that runs
it and marks the options it cannot run without as required, so argparse
reports a missing one.  Each handler is a thin adapter: it parses its option
values, runs one library operation, and builds that operation's JSON
document from the library's values, with its keys in a fixed order; ``run``
puts ``schema_version`` first and prints the document with
``serialize.dumps`` (or as a human table with --format table).  Exit
status: 0 on success, 2 for input or validation errors, 3 for violated
operation preconditions.  Errors are reported as one-line JSON documents on
standard error.

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
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import serialize
from .polynomial import (
    ParseError,
    PreconditionError,
    SharedVariableWitness,
    SparsePolynomial,
    initial_form,
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


def _fraction(token: str) -> Fraction:
    text = token.strip()
    digits = text[1:] if text[:1] in "+-" else text
    try:  # int() raises ValueError past sys.get_int_max_str_digits()
        if digits.isascii() and digits.isdigit():
            return Fraction(int(text))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {token!r}") from exc


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise UsageError("empty vector")
    return tuple(_fraction(p) for p in parts)


def _parse_rows(text: str) -> list[tuple[Fraction, ...]]:
    rows = [r for r in text.split(";") if r.strip()]
    if not rows:
        raise UsageError("empty row list")
    return [_parse_vector(r) for r in rows]


_SUBSET_ERROR = "subset must be comma-separated integers"


def _parse_ints(text: str, message: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise UsageError(f"{message}: {text!r}") from exc


def _load_points(path: str) -> list[tuple[Fraction, ...]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read points file: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer too long for int()
        raise UsageError(f"points file is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not all(isinstance(p, list) for p in data):
        raise UsageError("points file must hold a JSON list of point lists")
    points = [tuple(_fraction(str(x)) for x in p) for p in data]
    if not points or len({len(p) for p in points}) != 1:
        raise UsageError("points file must hold same-length, nonempty points")
    return points


def _polynomial(args) -> SparsePolynomial:
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    return parse(args.polynomial, names)


def _constraints(args) -> tuple[list, int]:
    if args.eq_rows is None or args.eq_targets is None or args.dim is None:
        raise UsageError("--eq-rows, --eq-targets and --dim are required together")
    rows = _parse_rows(args.eq_rows)
    targets = _parse_vector(args.eq_targets)
    if len(rows) != len(targets):
        raise UsageError("one target per constraint row is required")
    if any(len(r) != args.dim for r in rows):
        raise UsageError("constraint rows must have --dim entries")
    return list(zip(rows, targets)), args.dim


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
            "initial_form": to_string(initial_form(f, face.supporting_weight)),
        }
        for face in fan.faces(f)
    ]}


def _cmd_trop(args) -> dict:
    from . import fan

    f = _polynomial(args)
    if args.classify is not None:
        weight = _parse_vector(args.classify)
        subset = fan.classify_weight(f, weight)
        return {
            "weight": weight,
            "S": subset,
            "in_tropical_variety": len(subset) >= 2,
        }
    return {"cones": [
        {
            "S": c.S,
            "dim": c.dim,
            "lineality": c.lineality.rows,
            "rays": [ray.w for ray in c.rays],
        }
        for c in fan.tropical_variety(f)
    ]}


def _cmd_matrix(args) -> dict:
    from . import okounkov

    f = _polynomial(args)
    m = okounkov.valuation_matrix(f, _parse_ints(args.S, _SUBSET_ERROR))
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
        row = _parse_vector(args.cone_row)
        return {"extra_row": row, "generators": okounkov.global_nok_cone(f, row)}
    if args.S is None or args.degree is None:
        raise UsageError("either --cone-row or both --S and --degree are required")
    subset = _parse_ints(args.S, _SUBSET_ERROR)
    degree = _parse_ints(args.degree, "expected comma-separated integers")
    body = okounkov.nok_body(f, degree, subset)
    return {"S": sorted(set(subset)), "degree": degree, **_body(body)}


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

    rows = _parse_rows(args.rows)
    if args.points is not None:
        points = _load_points(args.points)
    else:
        constraints, n = _constraints(args)
        points, rays = okounkov._nonnegative_polyhedron(constraints, n)
        if not points:
            raise PreconditionError("the equality polytope is empty")
        if rays:
            raise PreconditionError("the equality polytope is unbounded")
    if any(len(r) != len(points[0]) for r in rows):
        raise UsageError("projection rows must match the point dimension")
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
    p.add_argument("--cone-row", dest="cone_row", help="extra row for the global cone")

    p = sub.add_parser("graded", help="enumerate a graded component exactly")
    common(p, _cmd_graded, polynomial=False)
    p.add_argument("--eq-rows", dest="eq_rows", help="rows 'a,b,...;c,d,...'")
    p.add_argument("--eq-targets", dest="eq_targets", help="one target per row")
    p.add_argument("--dim", type=int, help="number of variables")

    p = sub.add_parser("project", help="project polytope vertices to a planar body")
    common(p, _cmd_project, polynomial=False)
    p.add_argument("--points", help="JSON file with a list of points")
    p.add_argument("--rows", required=True, help="projection rows 'a,b,...;c,d,...'")
    p.add_argument("--eq-rows", dest="eq_rows", help="equality rows defining P")
    p.add_argument("--eq-targets", dest="eq_targets", help="equality targets")
    p.add_argument("--dim", type=int, help="ambient dimension of P")

    return parser


def _emit_error(code: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first run and reused by later runs."""
    return build_parser()


@functools.cache
def _commands() -> dict[str, argparse.ArgumentParser]:
    """Each command's own parser, taken from the cached full parser."""
    (action,) = (
        a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    # The full parser hands every argument after the command to that
    # command's parser, which raises the same UsageError; parsing with it
    # alone skips the top-level pass.
    command = _commands().get(argv[0]) if argv else None
    if command is None:
        return _parser().parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def run(argv: Sequence[str]) -> int:
    try:
        args = _parse(list(argv))
        doc = {"schema_version": SCHEMA_VERSION, **args.handler(args)}
    except UsageError as exc:
        _emit_error("validation_error", str(exc))
        return EXIT_VALIDATION
    except ParseError as exc:
        _emit_error("parse_error", str(exc))
        return EXIT_VALIDATION
    except PreconditionError as exc:
        _emit_error("precondition_violation", str(exc))
        return EXIT_PRECONDITION
    text = (
        serialize.dumps(doc)
        if args.format == "json"
        else serialize.render_table(doc)
    )
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
