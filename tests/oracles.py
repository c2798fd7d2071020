"""Independent reference implementations used as test oracles.

Deliberately separate from the library code paths: hull membership goes
through exhaustive Caratheodory subsets or a linear program, rank through
explicit minors, solving through a standalone elimination routine, linear
programs through a simplex over a Fraction tableau, polytope vertices
through every subset of zero coordinates, non-negative integer solutions
through a scan of an explicitly capped box, minimal semigroup generators
through the closure of {0} under adding generators, primitive integer
rows through a gcd of the scaled entries, and the JSON text of a document
through the standard ``json`` module with the rational rule of
``fraction_text``, polynomial text through a character scanner that
splits signed chunks and reads each number with ``Fraction(str)``,
weighted degrees through sums of ``Fraction`` products, and the cones of
the tropical fan through a scan of the bit masks of the term subsets.
Only the ``rref`` helper (and ``row_space_equal`` on it) reads the
library's ``echelon``; sympy checks it.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

from wellpoised import ParseError, SparsePolynomial, exponent_gcd, linalg


def fraction_text(value):
    """The JSON value of a Fraction: its numerator when integral, else "p/q".

    Meant as the ``default`` of ``json.dumps``: any other type the encoder
    cannot handle raises TypeError.  The encoder prints floats itself, so
    the oracle is only for documents without them.
    """
    if type(value) is not Fraction:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if value.denominator == 1:
        return value.numerator
    return f"{value.numerator}/{value.denominator}"


def json_value(doc):
    """A document as ``json.loads`` reads it back: lists for tuples, rationals as text."""
    return json.loads(json.dumps(doc, default=fraction_text))


_NUMBER_RE = re.compile(r"\d+(?:/\d+)?")
_FACTOR_RE = re.compile(r"([A-Za-z_]\w*)(?:\^(-?\d+))?")


def _split_signed_chunks(text):
    # '+'/'-' separate monomials except right after '^', '*', '/' or a sign
    chunks = []
    sign = 1
    buf = []
    prev = ""
    for char in text:
        if char in "+-" and prev not in "^*/+-" and prev != "":
            chunks.append((sign, "".join(buf)))
            sign = 1 if char == "+" else -1
            buf = []
        elif char in "+-" and prev == "":
            if buf:
                raise ParseError(f"unexpected sign after {''.join(buf)!r}")
            sign = sign if char == "+" else -sign
        else:
            buf.append(char)
        if not char.isspace():
            prev = char
    chunks.append((sign, "".join(buf)))
    return chunks


def parse_by_chunks(text, variables):
    """``polynomial.parse`` by a character scan: the same terms or ParseError message."""
    names = tuple(variables)
    if not names or len(set(names)) != len(names):
        raise ParseError("variable list must be nonempty and duplicate-free")
    index = {name: j for j, name in enumerate(names)}
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty polynomial text")
    raw_terms = []
    for sign, chunk in _split_signed_chunks(stripped):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty monomial between signs")
        coeff = Fraction(sign)
        exponent = [0] * len(names)
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"malformed token in {chunk!r}")
            if _NUMBER_RE.fullmatch(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError as exc:
                    raise ParseError(f"zero denominator in {factor!r}") from exc
                continue
            m = _FACTOR_RE.fullmatch(factor)
            if m is None:
                raise ParseError(f"malformed token {factor!r}")
            name, power = m.group(1), m.group(2)
            if name not in index:
                raise ParseError(f"unknown variable {name!r}")
            e = 1 if power is None else int(power)
            if e < 0:
                raise ParseError(f"negative exponent in {factor!r}")
            exponent[index[name]] += e
        raw_terms.append((coeff, tuple(exponent)))
    try:
        return SparsePolynomial.from_terms(raw_terms, variables=names)
    except ValueError as exc:
        raise ParseError("polynomial is empty after merging") from exc


def gauss_solve_unique(rows, rhs):
    """Unique exact solution of A x = b, or None (inconsistent/underdetermined)."""
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    where = [-1] * ncols
    row = 0
    for col in range(ncols):
        pivot = None
        for i in range(row, len(m)):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[row])]
        where[col] = row
        row += 1
    for r in m[row:]:
        if r[-1] != 0:
            return None
    if any(w == -1 for w in where):
        return None
    return tuple(m[where[c]][-1] for c in range(ncols))


def rref(rows):
    """Reduced row echelon form over Fraction: (nonzero rows, pivot columns).

    Each integer row of ``linalg.echelon`` divided by its pivot entry; a
    helper for the tests that compare row spaces or order points by their
    free coordinates, itself checked against sympy.
    """
    m, pivots = linalg.echelon(rows)
    return [tuple(Fraction(x, row[c]) for x in row) for row, c in zip(m, pivots)], pivots


def row_space_equal(a, b) -> bool:
    """Exact equality of the rational row spaces of two matrices."""
    return rref(a)[0] == rref(b)[0]


def simplex_fraction(cost, rows, rhs):
    """Bland's-rule two-phase simplex over a Fraction tableau, the reference
    LP for the library's cone membership, positive functionals and vertices.

    Same contract: minimise cost . x over rows . x = rhs, x >= 0, returning
    ("optimal", vertex), ("infeasible", None) or ("unbounded", None).  Each
    pivot scales the pivot row to 1 and clears its column with Fraction
    arithmetic.
    """

    def pivot(m, r, c):
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c] != 0:
                f = row[c]
                m[i] = [x - f * y for x, y in zip(row, m[r])]

    def bland(m, basis):
        while True:
            enter = next((j for j, d in enumerate(m[-1][:-1]) if d < 0), None)
            if enter is None:
                return True
            leave = None
            for i in range(len(m) - 1):
                a = m[i][enter]
                if a > 0:
                    ratio = m[i][-1] / a
                    if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        leave, best = i, ratio
            if leave is None:
                return False
            pivot(m, leave, enter)
            basis[leave] = enter

    n = len(cost)
    m = []
    for row, b in zip(rows, rhs):
        sign = -1 if b < 0 else 1
        m.append([Fraction(sign * x) for x in row] + [Fraction(sign * b)])
    m.append([-sum(col) for col in zip(*m)] if m else [Fraction(0)] * (n + 1))
    basis = list(range(n, n + len(m) - 1))
    bland(m, basis)
    if m.pop()[-1] != 0:
        return "infeasible", None
    for i in reversed(range(len(m))):
        if basis[i] >= n:
            j = next((c for c in range(n) if m[i][c] != 0), None)
            if j is None:
                del m[i], basis[i]
            else:
                pivot(m, i, j)
                basis[i] = j
    costs = [Fraction(c) for c in cost] + [Fraction(0)]
    for row, b in zip(m, basis):
        if costs[b] != 0:
            f = costs[b]
            costs = [x - f * y for x, y in zip(costs, row)]
    m.append(costs)
    if not bland(m, basis):
        return "unbounded", None
    x = [Fraction(0)] * n
    for row, b in zip(m, basis):
        x[b] = row[-1]
    return "optimal", tuple(x)


def in_hull_lp(point, generators) -> bool:
    """Membership in conv(generators): is the barycentric system feasible
    for ``simplex_fraction``?"""
    rows = [[g[r] for g in generators] for r in range(len(point))]
    rows.append([1] * len(generators))
    return simplex_fraction([0] * len(generators), rows, [*point, 1])[0] != "infeasible"


def det(matrix):
    """Determinant by cofactor expansion (exact, tiny matrices only).

    Integer entries give an int, rational ones a Fraction.
    """
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    if size == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    total = 0
    for c in range(size):
        if matrix[0][c] == 0:
            continue
        minor = [row[:c] + row[c + 1 :] for row in matrix[1:]]
        total += (-1) ** c * matrix[0][c] * det(minor)
    return total


def rank_by_minors(vectors) -> int:
    """Largest size of a nonsingular square minor."""
    rows = [list(map(Fraction, v)) for v in vectors]
    if not rows:
        return 0
    ncols = len(rows[0])
    for size in range(min(len(rows), ncols), 0, -1):
        for rsel in itertools.combinations(range(len(rows)), size):
            for csel in itertools.combinations(range(ncols), size):
                minor = [[rows[r][c] for c in csel] for r in rsel]
                if det(minor) != 0:
                    return size
    return 0


def in_hull_caratheodory(point, generators) -> bool:
    """Membership in conv(generators) by exhausting small barycentric systems."""
    gens = [tuple(g) for g in generators]
    if not gens:
        return False
    n = len(gens[0])
    for size in range(1, min(len(gens), n + 1) + 1):
        for subset in itertools.combinations(gens, size):
            rows = [[Fraction(v[r]) for v in subset] for r in range(n)]
            rows.append([Fraction(1)] * size)
            sol = gauss_solve_unique(rows, list(point) + [1])
            if sol is not None and all(x >= 0 for x in sol):
                return True
    return False


def facets_by_subsets(generators):
    """The facets of conv(generators), for a cloud in R^n (n >= 2) of full
    dimension, as pairs (normal, offset) with normal . x <= offset; a facet
    through more than n points may appear once per length of its normal.

    Every n-subset of the cloud spans a hyperplane whose normal holds the
    signed cofactors of the differences from its first point.  When the whole
    cloud lies on one side of it, and some point strictly on that side, it
    supports a facet.
    """
    gens = [tuple(g) for g in generators]
    n = len(gens[0])
    facets = set()
    for subset in itertools.combinations(gens, n):
        diffs = [[x - y for x, y in zip(p, subset[0])] for p in subset[1:]]
        normal = [(-1) ** j * det([row[:j] + row[j + 1 :] for row in diffs]) for j in range(n)]
        offset = sum(a * x for a, x in zip(normal, subset[0]))
        values = [sum(a * x for a, x in zip(normal, g)) - offset for g in gens]
        low, high = min(values), max(values)
        if low < 0 and high == 0:
            facets.add((tuple(normal), offset))
        elif low == 0 and high > 0:
            facets.add((tuple(-a for a in normal), -offset))
    if not facets:
        raise ValueError("the cloud is not full-dimensional")
    return facets


def in_hull_facets(generators):
    """Membership in conv(generators) by the facet inequalities of
    ``facets_by_subsets``, found once; the returned predicate tests a point
    against each of them."""
    facets = facets_by_subsets(generators)

    def contains(point) -> bool:
        return all(sum(a * x for a, x in zip(normal, point)) <= offset for normal, offset in facets)

    return contains


def polytope_vertices_by_zero_sets(rows, targets, n):
    """Vertices of {a >= 0 : rows . a = targets}, by pinning every subset of
    coordinates to zero in turn: a unique non-negative solution of the
    remaining system is a vertex.  A unique solution has at most as many
    coordinates off the pinned ones as there are rows."""
    found = set()
    for size in range(max(n - len(rows), 0), n + 1):
        for zeros in itertools.combinations(range(n), size):
            free = [j for j in range(n) if j not in zeros]
            point = [Fraction(0)] * n
            if free:
                sol = gauss_solve_unique([[row[j] for j in free] for row in rows], targets)
                if sol is None or any(x < 0 for x in sol):
                    continue
                for j, value in zip(free, sol):
                    point[j] = value
            elif any(t != 0 for t in targets):
                continue
            found.add(tuple(point))
    return found


def nonnegative_solutions_by_box(rows, targets, caps):
    """Every integer a with 0 <= a[j] <= caps[j] and rows . a == targets, in
    lexicographic order: all non-negative integer solutions once the caps
    bound them."""
    return [
        a
        for a in itertools.product(*(range(cap + 1) for cap in caps))
        if all(sum(Fraction(x) * v for x, v in zip(row, a)) == t for row, t in zip(rows, targets))
    ]


def minimal_generators_by_closure(generators, phi):
    """The generators that are no sum of two or more generators.

    phi must be positive on every generator.  {0} is closed under adding
    generators, keeping the sums whose phi value stays at most the largest
    phi of a generator; g is redundant when g - h is a nonzero sum for some
    generator h.
    """
    gens = {tuple(Fraction(x) for x in g) for g in generators}

    def value(v):
        return sum(Fraction(p) * x for p, x in zip(phi, v))

    limit = max(value(g) for g in gens)
    zero = tuple(Fraction(0) for _ in next(iter(gens)))
    sums, frontier = {zero}, [zero]
    while frontier:
        grown = {tuple(a + b for a, b in zip(s, g)) for s in frontier for g in gens}
        frontier = [s for s in grown if s not in sums and value(s) <= limit]
        sums.update(frontier)
    return {
        g
        for g in gens
        if not any(
            (d := tuple(a - b for a, b in zip(g, h))) != zero and d in sums for h in gens
        )
    }


def primitive_row(row) -> tuple[int, ...]:
    """The positive multiple of a rational row with coprime integer entries
    (the zero row stays zero)."""
    d = math.lcm(*(Fraction(x).denominator for x in row))
    ints = [int(x * d) for x in row]
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


def sample_cone_point(rng, c):
    """Random rational point of C_S: lineality combination plus positive rays."""
    n = len(c.lineality.v_f)
    point = [Fraction(0)] * n
    for row in c.lineality.rows:
        lam = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
        for j in range(n):
            point[j] += lam * row[j]
    for ray in c.rays:
        lam = Fraction(rng.randint(1, 6), rng.choice([1, 2, 3]))
        for j in range(n):
            point[j] += lam * ray.w[j]
    return tuple(point)


def triangulation_area(cycle) -> Fraction:
    """Polygon area as a fan of triangles from the first cycle vertex."""
    total = Fraction(0)
    anchor = cycle[0]
    for a, b in zip(cycle[1:], cycle[2:]):
        tri = [
            [Fraction(a[0]) - Fraction(anchor[0]), Fraction(a[1]) - Fraction(anchor[1])],
            [Fraction(b[0]) - Fraction(anchor[0]), Fraction(b[1]) - Fraction(anchor[1])],
        ]
        total += abs(det(tri)) / 2
    return total


def random_disjoint_polynomial(
    rng, max_n=5, max_exp=6, force_gcd_one=False, max_k=4
) -> SparsePolynomial:
    """Random polynomial whose terms partition the variables into blocks."""
    n = rng.randint(2, max_n)
    k = rng.randint(2, min(n, max_k))
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    blocks = [order[s:e] for s, e in zip([0] + cuts, cuts + [n])]
    while True:
        exps = []
        for block in blocks:
            e = [0] * n
            for j in block:
                e[j] = rng.randint(1, max_exp)
            exps.append(tuple(e))
        if not force_gcd_one or all(
            exponent_gcd(a, b) == 1
            for i, a in enumerate(exps)
            for b in exps[i + 1 :]
        ):
            break
    coeffs = [
        Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        for _ in exps
    ]
    return SparsePolynomial.from_terms(zip(coeffs, exps))


def inject_shared_variable(rng, f: SparsePolynomial) -> SparsePolynomial:
    """Copy f with one variable of one term leaked into another term."""
    i, j = rng.sample(range(f.k), 2)
    var = rng.choice(f.terms[i].support)
    exponent = list(f.terms[j].exponent)
    exponent[var] += rng.randint(1, 3)
    terms = [(t.coefficient, t.exponent) for t in f.terms]
    terms[j] = (f.terms[j].coefficient, tuple(exponent))
    return SparsePolynomial.from_terms(terms, variables=f.variables)


def inject_common_factor(rng, f: SparsePolynomial, d: int) -> SparsePolynomial:
    """Copy f with two terms' exponent vectors scaled by d."""
    i, j = rng.sample(range(f.k), 2)
    terms = [(t.coefficient, t.exponent) for t in f.terms]
    for idx in (i, j):
        terms[idx] = (
            f.terms[idx].coefficient,
            tuple(e * d for e in f.terms[idx].exponent),
        )
    return SparsePolynomial.from_terms(terms, variables=f.variables)


def random_weight(rng, n, bound=9):
    return tuple(
        Fraction(rng.randint(-bound, bound), rng.choice([1, 1, 2, 3])) for _ in range(n)
    )


def weighted_degrees_by_fractions(f: SparsePolynomial, weight):
    """The inner product of the weight with each exponent of f, as a sum of
    Fraction products, and their maximum."""
    products = [sum(Fraction(w) * e for w, e in zip(weight, t.exponent)) for t in f.terms]
    return products, max(products)


def cones_by_definition(f: SparsePolynomial, smallest: int):
    """(S, ray vectors of the terms outside S) for every term subset S with at
    least ``smallest`` terms, by decreasing cone dimension, then lex.

    The subsets come from the 2^K bit masks; C_S has dimension
    dim(lineality) + K - |S|, so decreasing dimension is increasing size.
    The ray of term i is -1 on that term's support, in term order.
    """
    subsets = (
        tuple(i + 1 for i in range(f.k) if mask >> i & 1) for mask in range(1 << f.k)
    )
    return [
        (s, tuple(
            tuple(-1 if e else 0 for e in t.exponent)
            for i, t in enumerate(f.terms, 1)
            if i not in s
        ))
        for s in sorted(subsets, key=lambda s: (len(s), s))
        if len(s) >= smallest
    ]
