"""Seeded request lists for the benchmark workloads, and their invariants.

Every request is drawn from a fixed pool that is generated from a constant
seed, so that each one has an answer recorded in ``reference.json``.  The
run's own seed picks which pool entries a run uses and in what order.  Each
size class contributes a fixed number of requests, so runs on different
seeds do comparable amounts of work.

This module imports nothing from the program: it only builds argument
vectors and checks JSON documents, so it can be imported before the timed
interpreter has loaded ``wellpoised``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shlex
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("hull", "census", "session")

POOL_SEED = 2008_00060

# (dimension, points per cloud, largest exponent, requests per run).  Nine
# points in 3-D is just below the Fourier-Motzkin cliff: ten points take
# seconds per request.
HULL_CLASSES = (
    (2, 8, 9, 15),
    (2, 9, 9, 15),
    (3, 7, 6, 20),
    (3, 8, 6, 20),
    (3, 9, 6, 12),
    (4, 8, 5, 15),
    (4, 9, 5, 10),
)
HULL_LATTICE = 10
SIMPLEX_REQUESTS = 96
GRADED_DEGREES = (2, 4, 6, 8, 10, 12)
DEL_PEZZO_ROWS = "1,-1,0,-1,1;1,1,1,0,2"
README_REPEATS = 6
CHAIN_TERMS = (8, 9, 10)
CLASSIFY_REQUESTS = 30

VARS = ("x", "y", "z", "w")

README_EXAMPLES = (
    ("check", "x^2+y^3+z^5", "--vars", "x,y,z"),
    ("check", "x*y+y*z", "--vars", "x,y,z"),
    ("polytope", "x^2+y^3+z^5", "--vars", "x,y,z", "--lattice", "--minkowski"),
    ("faces", "x+y^2+z*w", "--vars", "x,y,z,w"),
    ("trop", "x+y^2+z*w", "--vars", "x,y,z,w"),
    ("trop", "x+y^2+z*w", "--vars", "x,y,z,w", "--classify", "0,0,-1,-1"),
    ("matrix", "x+y^2+z*w", "--vars", "x,y,z,w", "--S", "2,3"),
    ("nok", "x+y^2+z*w", "--vars", "x,y,z,w", "--S", "2,3", "--degree", "2,1,1,1"),
    ("nok", "T1*T2+T3^2+T4*T5", "--vars", "T1,T2,T3,T4,T5", "--cone-row", "1,1,1,0,0"),
    ("graded", "--eq-rows", DEL_PEZZO_ROWS, "--eq-targets", "0,6", "--dim", "5"),
    (
        "project", "--eq-rows", DEL_PEZZO_ROWS, "--eq-targets", "0,6", "--dim", "5",
        "--rows", "1,1,1,1,1;1,1,1,0,0",
    ),
)

# The README promises exit 2 or 3 with one JSON error line for any input;
# these two currently escape as tracebacks.
MALFORMED = (
    ("check", "3/0*x", "--vars", "x"),
    ("project", "--rows", "1,1", "--eq-rows", "1,1", "--eq-targets", "-1", "--dim", "2"),
)

STARTUP_ARGV = README_EXAMPLES[0]

# A few fixed requests in each workload touch the layers its main requests
# leave idle (fan, okounkov), so that no layer's time reads 0 on every run.
HULL_BODIES = tuple(
    ("nok", "x+y^2+z*w", "--vars", "x,y,z,w", "--S", s, "--degree", "2,1,1,1")
    for s in ("1,2", "1,3", "2,3")
)
CENSUS_BODIES = README_EXAMPLES[8], README_EXAMPLES[10]


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str
    # Held to the README error contract instead of a recorded answer.
    contract_only: bool = False
    # What the invariants need: exponent vectors, simplex exponents, a degree.
    data: tuple = ()

    @property
    def key(self) -> str:
        return shlex.join(self.argv)


# ---------------------------------------------------------------- generators


def _monomial(rng: random.Random, exponent, names) -> str:
    magnitude = rng.choice((1, 2, 3, 5, 7))
    factors = [f"{v}^{e}" if e > 1 else v for v, e in zip(names, exponent) if e]
    if magnitude != 1 or not factors:
        factors.insert(0, str(magnitude))
    return rng.choice("+-") + "*".join(factors)


def _polynomial(rng: random.Random, points, names) -> str:
    # The first sign is dropped: a leading '-' would read as a flag.
    return "".join(_monomial(rng, p, names) for p in sorted(points))[1:]


def _cloud(rng: random.Random, dim: int, size: int, top: int) -> list[tuple[int, ...]]:
    points: set[tuple[int, ...]] = set()
    while len(points) < size:
        points.add(tuple(rng.randint(0, top) for _ in range(dim)))
    return sorted(points)


def _polytope_request(rng, points, kind, *flags) -> Request:
    names = VARS[: len(points[0])]
    return Request(
        ("polytope", _polynomial(rng, points, names), "--vars", ",".join(names), *flags),
        kind,
        data=tuple(points),
    )


def _pool_size(n: int) -> int:
    return n + max(2, n // 4)


# Each workload is a list of request groups, each with the number of its
# requests a run draws (None: all of them, in every run).
Groups = list[tuple[list[Request], int | None]]


def _hull_groups() -> Groups:
    rng = random.Random(POOL_SEED)
    groups: Groups = []
    for dim, size, top, n in HULL_CLASSES:
        group = [
            _polytope_request(rng, _cloud(rng, dim, size, top), f"hull{dim}d")
            for _ in range(_pool_size(n))
        ]
        groups.append((group, n))
    lattice = []
    while len(lattice) < _pool_size(HULL_LATTICE):
        points = _cloud(rng, 2, 6, 5)
        if len(monotone_chain(points)) >= 4:  # not a simplex
            lattice.append(_polytope_request(rng, points, "lattice2d", "--lattice"))
    groups.append((lattice, HULL_LATTICE))
    groups.append(([Request(argv, "body") for argv in HULL_BODIES], None))
    return groups


def _census_groups() -> Groups:
    rng = random.Random(POOL_SEED + 1)
    graded = [
        Request(
            ("graded", "--eq-rows", DEL_PEZZO_ROWS, "--eq-targets", f"0,{d}", "--dim", "5"),
            "graded",
            data=(d,),
        )
        for d in GRADED_DEGREES
    ]
    simplices = []
    seen = set()
    while len(simplices) < _pool_size(SIMPLEX_REQUESTS):
        exps = tuple(rng.randint(2, 9) for _ in range(4))
        if exps in seen:
            continue
        seen.add(exps)
        text = "+".join(f"{v}^{e}" for v, e in zip(VARS, exps))
        argv = ("polytope", text, "--vars", "x,y,z,w", "--lattice", "--minkowski")
        simplices.append(Request(argv, "simplex", data=exps))
    bodies = [Request(argv, "body") for argv in CENSUS_BODIES]
    # Census time grows with the scanned box, and the draw sets the p90: so
    # the pool is cut, by box size, into strata that each give the same share.
    simplices.sort(key=lambda r: (math.prod(a + 1 for a in r.data), r.data))
    width = len(simplices) // (len(simplices) - SIMPLEX_REQUESTS)
    strata = [
        (simplices[i : i + width], width - 1) for i in range(0, len(simplices), width)
    ]
    return [(graded, None), *strata, (bodies, None)]


def chain_polynomial(k: int) -> tuple[str, str]:
    """x0*x1 + x2^2*x3 + ... with k terms: disjoint supports, pairwise gcd 1."""
    terms = [f"x{2 * i}^{i + 1}*x{2 * i + 1}" if i else "x0*x1" for i in range(k)]
    names = ",".join(f"x{j}" for j in range(2 * k))
    return "+".join(terms), names


def _session_groups() -> Groups:
    rng = random.Random(POOL_SEED + 2)
    readme = [Request(argv, "readme") for argv in README_EXAMPLES] * README_REPEATS
    chains = []
    for k in CHAIN_TERMS:
        text, names = chain_polynomial(k)
        chains.append(Request(("trop", text, "--vars", names), "chain"))
    malformed = [Request(argv, "malformed", contract_only=True) for argv in MALFORMED]
    classify = []
    for _ in range(_pool_size(CLASSIFY_REQUESTS)):
        text, names = chain_polynomial(rng.randint(3, 6))
        weight = ",".join(str(rng.randint(-3, 3)) for _ in names.split(","))
        classify.append(Request(("trop", text, "--vars", names, "--classify", weight), "classify"))
    return [(readme, None), (chains, None), (malformed, None), (classify, CLASSIFY_REQUESTS)]


_GROUPS = {"hull": _hull_groups, "census": _census_groups, "session": _session_groups}


def pool(workload: str) -> list[Request]:
    """Every request a run of this workload can draw, each once, in a fixed order."""
    return list(dict.fromkeys(r for group, _ in _GROUPS[workload]() for r in group))


def requests(workload: str, seed: int) -> list[Request]:
    """The run's request list: a seeded draw from each group, in seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    chosen = []
    for group, draw in _GROUPS[workload]():
        chosen.extend(group if draw is None else rng.sample(group, draw))
    rng.shuffle(chosen)
    return chosen


# ---------------------------------------------------------------- invariants


def monotone_chain(points) -> list[tuple[int, ...]]:
    """Vertices of a planar hull (collinear points dropped), as a sorted list."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return sorted(set(half(pts)[:-1] + half(pts[::-1])[:-1]))


def simplex_census(exps) -> int:
    """Integer points x >= 0 with sum x_i / a_i == 1, counted directly."""
    scale = math.lcm(*exps)
    weights = [scale // a for a in exps]
    count = 0

    def walk(i: int, room: int) -> None:
        nonlocal count
        if i == len(weights) - 1:
            count += room % weights[i] == 0
            return
        for x in range(room // weights[i] + 1):
            walk(i + 1, room - x * weights[i])

    walk(0, scale)
    return count


def del_pezzo_quotient(n: int) -> int:
    return 12 * n * n + 6 * n + 1


def check_invariants(reqs: list[Request], outputs: list) -> list[str]:
    """Answers checked against the benchmark's own oracles.

    ``outputs[i]`` is the stdout text of ``reqs[i]`` (None when it failed).
    Returns one message per violated invariant.
    """
    problems = []
    graded_counts = {}
    for req, out in zip(reqs, outputs):
        if out is None:
            continue
        doc = json.loads(out)
        if req.kind in ("hull2d", "lattice2d"):
            got = sorted(tuple(v) for v in doc["vertices"])
            if got != monotone_chain(req.data):
                problems.append(f"2-D vertices differ from monotone chain: {req.key}")
        elif req.kind == "simplex":
            want = simplex_census(req.data)
            if len(doc["lattice_points"]) != want or len(doc["minkowski"]["census"]) != want:
                problems.append(f"simplex census differs from {want}: {req.key}")
        elif req.kind == "graded":
            graded_counts[req.data[0]] = doc["count"]
            if doc["count"] != len(doc["exponents"]):
                problems.append(f"graded count disagrees with its list: {req.key}")
    for n in (1, 2):
        a, b = graded_counts.get(6 * n), graded_counts.get(6 * n - 2)
        if a is not None and b is not None and a - b != del_pezzo_quotient(n):
            problems.append(
                f"del Pezzo N(0,{6 * n}) - N(0,{6 * n - 2}) = {a - b}, "
                f"expected {del_pezzo_quotient(n)}"
            )
    return problems


def box_size(lows, highs) -> int:
    """Integer points of the box [lows, highs], rounding inward."""
    size = 1
    for lo, hi in zip(lows, highs):
        size *= max(0, math.floor(Fraction(hi)) - math.ceil(Fraction(lo)) + 1)
    return size


# ---------------------------------------------------------------- the gate


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def error_code(stderr: str):
    """The ``error.code`` of a one-line JSON error document, else None."""
    lines = stderr.splitlines()
    if len(lines) != 1:
        return None
    try:
        doc = json.loads(lines[0])
    except ValueError:
        return None
    error = doc.get("error") if isinstance(doc, dict) else None
    code = error.get("code") if isinstance(error, dict) else None
    return code if isinstance(code, str) else None


def verdict(req: Request, ref, code, stdout: str, stderr: str):
    """None when the request passes the gate, else why it failed.

    ``code`` is the exit status ``cli.run`` returned, or the exception it
    raised.  ``ref`` is the request's entry in ``reference.json``.
    """
    if isinstance(code, BaseException):
        return f"raised {type(code).__name__}"
    if code not in (0, 2, 3):
        return f"exit {code}"
    if req.contract_only:
        if code == 0:
            return "exit 0 on malformed input"
        return None if error_code(stderr) else "error is not one JSON line with a code"
    if ref is None:
        return "no recorded reference"
    if code == 0:
        return None if ref.get("sha256") == digest(stdout) else "stdout differs from reference"
    if "code" not in ref:
        return f"exit {code}, reference exit {ref.get('exit')}"
    got = error_code(stderr)
    return None if got == ref["code"] else f"error code {got!r}, reference {ref['code']!r}"
