"""The bytes of JSON documents: ``dumps`` and a human table view.

The CLI builds each document, keys in order; this module knows no library
type and writes what it is given.  Documents hold library values as they
are: tuples, ints and ``Fraction``s.  The writer prints integers and
integral rationals as bare JSON numbers and other rationals as "p/q"
strings, so nothing is ever rounded.  The text is byte for byte that of
``json.dumps(doc, indent=2)``, written by a writer that handles only the
value types documents hold.  A tuple the document holds more than once is
rendered once per call and re-indented wherever it recurs at another depth.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

_INT = {int}


def dumps(doc: dict) -> str:
    """The bytes of ``json.dumps(doc, indent=2) + "\\n"``, Fractions rendered.

    Handles dicts with str keys, lists, tuples, str, exact int, bool, None
    and Fraction: its numerator when the denominator is 1, else the string
    "numerator/denominator" (sign on the numerator).  Anything else, float
    included, raises TypeError.
    The writer appends pieces to one list and joins the text once.  A tuple
    is rendered once per call, found by identity (the document keeps it
    alive), and its text, the join of its own pieces, is reused: a cone list
    hands over the same lineality rows and rays in every cone, and a census
    document holds one census tuple at two depths.  Met again at another
    depth, the text is re-indented by replacing each newline and the pad it
    was written at with a newline and the new pad: every line of a rendered
    array starts with at least its pad, and strings never hold a raw
    newline.  Equal tuples such as (1, 1) and (1, True) stay apart.
    """
    pieces: list[str] = []
    emit = pieces.append
    memo: dict[int, tuple[str, str]] = {}

    def write(value, pad: str) -> None:
        t = type(value)
        if t is str:
            emit(encode_basestring_ascii(value))
        elif t is int:
            emit(int.__repr__(value))
        elif t is Fraction:
            num = int.__repr__(value.numerator)
            emit(num if value.denominator == 1 else f'"{num}/{value.denominator}"')
        elif value is None:
            emit("null")
        elif value is True:
            emit("true")
        elif value is False:
            emit("false")
        elif t is tuple:
            hit = memo.get(id(value))
            if hit is None:
                start = len(pieces)
                text = write_array(value, pad)
                if text is None:
                    text = "".join(pieces[start:])
                    del pieces[start:]
                memo[id(value)] = pad, text
            else:
                at, text = hit
                if at != pad:
                    text = text.replace("\n" + at, "\n" + pad)
            emit(text)
        elif t is list:
            text = write_array(value, pad)
            if text is not None:
                emit(text)
        elif t is dict:
            if not value:
                emit("{}")
                return
            inner = pad + "  "
            lead, sep = "{\n" + inner, ",\n" + inner
            for k, v in value.items():
                emit(f"{lead}{encode_basestring_ascii(k)}: ")
                write(v, inner)
                lead = sep
            emit(f"\n{pad}}}")
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    def write_array(value, pad: str) -> Optional[str]:
        # An empty array or a row of plain ints comes back as its text (one
        # piece, never joined); any other array emits its pieces.
        if not value:
            return "[]"
        inner = pad + "  "
        lead, sep = "[\n" + inner, ",\n" + inner
        if set(map(type, value)) <= _INT:
            return f"{lead}{sep.join(map(int.__repr__, value))}\n{pad}]"
        for v in value:
            emit(lead)
            write(v, inner)
            lead = sep
        emit(f"\n{pad}]")
        return None

    write(doc, "")
    emit("\n")
    return "".join(pieces)


def render_table(doc: dict) -> str:
    """Human-oriented rendering; not covered by byte-stability guarantees."""
    doc = json.loads(dumps(doc))
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
