"""Canonical JSON encoding of the library's result types.

Integers are emitted as bare JSON numbers; non-integral rationals become
"p/q" strings so nothing is ever rounded.  Key order is fixed so identical
inputs always produce byte-identical documents.  The text is byte for byte
that of ``json.dumps(doc, indent=2)``, written by a writer that handles only
the value types documents hold.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .fan import TropicalCone
from .geometry import FaceDescriptor, LatticePolytope, MinkowskiReport
from .okounkov import OkounkovBody, ValuationMatrix
from .polynomial import (
    CommonFactorWitness,
    SharedVariableWitness,
    SparsePolynomial,
    WellPoisedReport,
    initial_form,
    to_string,
)

SCHEMA_VERSION = 1
_INT = {int}


def encode_scalar(x):
    if type(x) is int:
        return x
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def encode_vector(v: Sequence) -> list:
    if set(map(type, v)) <= _INT:  # exact types: a bool is not an int here
        return list(v)
    return [encode_scalar(x) for x in v]


def encode_matrix(rows: Sequence[Sequence]) -> list[list]:
    return [encode_vector(r) for r in rows]


def report_json(report: WellPoisedReport, variables: Sequence[str]) -> dict:
    witness = None
    if isinstance(report.witness, SharedVariableWitness):
        witness = {
            "shared_variable": variables[report.witness.variable],
            "terms": list(report.witness.terms),
        }
    elif isinstance(report.witness, CommonFactorWitness):
        witness = {
            "gcd": report.witness.gcd,
            "terms": list(report.witness.terms),
        }
    return {
        "well_poised": report.well_poised,
        "monomial": report.monomial,
        "witness": witness,
    }


def polytope_json(p: LatticePolytope) -> dict:
    return {"n": p.n, "vertices": encode_matrix(p.vertices)}


def minkowski_json(report: MinkowskiReport) -> dict:
    return {
        "trivial_only": report.trivial_only,
        "census": encode_matrix(report.census),
        "non_vertex_points": encode_matrix(report.non_vertex_points),
    }


def face_json(face: FaceDescriptor, f: SparsePolynomial) -> dict:
    return {
        "S": list(face.term_indices),
        "weight": encode_vector(face.supporting_weight),
        "initial_form": to_string(initial_form(f, face.supporting_weight)),
    }


def cone_json(c: TropicalCone) -> dict:
    return {
        "S": list(c.S),
        "dim": c.dim,
        "lineality": encode_matrix(c.lineality.rows),
        "rays": encode_matrix(ray.w for ray in c.rays),
    }


def matrix_json(m: ValuationMatrix, variables: Sequence[str]) -> dict:
    return {
        "S": list(m.S),
        "rows": encode_matrix(m.rows),
        "valuations": [
            {"variable": variables[j], "value": encode_vector(col)}
            for j, col in enumerate(m.columns())
        ],
    }


def body_json(body: OkounkovBody) -> dict:
    return {
        "points": encode_matrix(body.points),
        "vertices": encode_matrix(body.vertices),
        "boundary": None if body.boundary is None else encode_matrix(body.boundary),
        "area": None if body.area is None else encode_scalar(body.area),
    }


def document(payload: dict) -> dict:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    return doc


def dumps(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, indent=2) + "\\n"``.

    Handles dicts with str keys, lists, tuples, str, exact int, bool and
    None; anything else (float and Fraction included) raises TypeError.
    A list of exact ints is rendered once per call and depth: a cone list
    repeats the same lineality rows and rays in every cone.
    """
    memo: dict[tuple, str] = {}

    def write(value, pad: str) -> str:
        t = type(value)
        if t is str:
            return encode_basestring_ascii(value)
        if t is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if t is not dict and t is not list and t is not tuple:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
        if not value:
            return "{}" if t is dict else "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        if t is dict:
            body = sep.join(
                f"{encode_basestring_ascii(k)}: {write(v, inner)}" for k, v in value.items()
            )
            return f"{{\n{inner}{body}\n{pad}}}"
        if set(map(type, value)) <= _INT:
            key = (tuple(value), pad)
            text = memo.get(key)
            if text is None:
                text = memo[key] = f"[\n{inner}{sep.join(map(int.__repr__, value))}\n{pad}]"
            return text
        return f"[\n{inner}{sep.join(write(v, inner) for v in value)}\n{pad}]"

    return write(doc, "") + "\n"


def render_table(doc: dict) -> str:
    """Human-oriented rendering; not covered by byte-stability guarantees."""
    lines: list[str] = []

    def emit(key: Optional[str], value, indent: int) -> None:
        pad = "  " * indent
        label = f"{key}: " if key is not None else ""
        if isinstance(value, dict):
            if key is not None:
                lines.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, indent + (key is not None))
        elif isinstance(value, list) and value and all(
            isinstance(r, list) for r in value
        ):
            lines.append(f"{pad}{key}:")
            cells = [[str(x) for x in row] for row in value]
            widths = [
                max(len(row[c]) for row in cells) for c in range(len(cells[0]))
            ] if cells and cells[0] else []
            for row in cells:
                padded = "  ".join(x.rjust(w) for x, w in zip(row, widths))
                lines.append(f"{pad}  [{padded}]")
        elif isinstance(value, list) and value and all(
            isinstance(r, dict) for r in value
        ):
            lines.append(f"{pad}{key}:")
            for item in value:
                emit(None, item, indent + 1)
                lines.append("")
        else:
            lines.append(f"{pad}{label}{value}")

    emit(None, doc, 0)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"
