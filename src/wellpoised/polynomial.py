"""Sparse multivariate polynomials over Q and the well-poised classification.

A polynomial is a merged set of terms with exact rational coefficients and
non-negative integer exponent vectors.  Initial forms use the maximum
convention: in_w(f) keeps the terms whose exponent has the largest inner
product with the weight w.  Whether every non-monomial initial form of f is
irreducible is decided purely combinatorially: f qualifies exactly when its
terms have pairwise disjoint supports and every pair of exponent vectors has
joint gcd 1.  No factoring over any field is ever attempted.

Every number or vector that a caller passes to a library operation is read
here, by ``_fraction`` and ``canonical_point``: a finite number or numeric
string is read exactly, and anything else, a bare string given for a vector
included, raises ValueError naming it.

The value types of every layer derive from ``_Frozen``, defined here because
every other layer imports this one.  A subclass names its fields in
``_fields``, and its ``__init__`` checks its arguments and writes each field
once into the instance dict.  ``==``, ``hash`` and ``repr`` read the named
fields in order; ``==`` between instances of two classes is NotImplemented.
Assigning or deleting an attribute raises AttributeError.  There are no
``__slots__``, so a ``functools.cached_property`` can keep its value in the
instance dict.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul, neg
from typing import Iterable, Optional, Sequence, Union

Exponent = tuple[int, ...]


class ParseError(ValueError):
    """Polynomial text that does not follow the input grammar."""


class PreconditionError(ValueError):
    """An operation was invoked outside its contract."""


class _Frozen:
    """Immutable record compared, hashed and shown by the fields it names."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def graded_lex_key(vector: Sequence) -> tuple:
    """Canonical sort key: total degree first, larger-in-lex first within a degree.

    This ordering numbers the terms of every worked example the way their
    standard presentations do (e.g. x before y^2 before z*w).
    """
    return (sum(vector), tuple(map(neg, vector)))


def support(exponent: Sequence[int]) -> tuple[int, ...]:
    """Indices of the nonzero entries."""
    return tuple(j for j, e in enumerate(exponent) if e != 0)


def total_degree(exponent: Sequence[int]) -> int:
    return sum(exponent)


def _fraction(value) -> Fraction:
    """Fraction(value), with ValueError naming a value that is not a finite
    number, such as None, inf or "1/0", where Fraction() raises TypeError,
    OverflowError or ZeroDivisionError."""
    try:
        return Fraction(value)
    except (TypeError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"{value!r} is not a number") from exc


def canonical_point(point: Iterable) -> tuple:
    """The entries of a vector from a caller: int when integral, Fraction
    otherwise.

    A bare string is refused: read as a vector it would give one entry per
    character.  An entry that is not a finite number raises ValueError.
    """
    if isinstance(point, (str, bytes)):
        raise ValueError(f"expected a vector, not the string {point!r}")
    out = []
    for x in point:
        if type(x) is not int:
            q = _fraction(x)
            x = q.numerator if q.denominator == 1 else q
        out.append(x)
    return tuple(out)


def _exact_ints(values: Iterable) -> tuple[int, ...]:
    """The values as a tuple of ints; a tuple of ints comes back as it is.

    Raises ValueError where ``canonical_point`` does, and for a value that is
    not exactly an integer, such as 5/2 or 2.9, which int() would truncate.
    """
    if type(values) is tuple and all(type(v) is int for v in values):
        return values
    ints = canonical_point(values)
    for x in ints:
        if type(x) is not int:
            raise ValueError(f"{x} is not an integer")
    return ints


def exponent_gcd(a: Sequence[int], b: Sequence[int]) -> int:
    """gcd of all entries of both vectors jointly; 0 when all entries vanish."""
    if len(a) != len(b):
        raise PreconditionError("exponent vectors have different lengths")
    return math.gcd(*_exact_ints(a), *_exact_ints(b))


class Term(_Frozen):
    """A nonzero rational coefficient times the monomial with this exponent."""

    _fields = ("coefficient", "exponent")

    def __init__(self, coefficient: Union[int, Fraction, str], exponent: Sequence[int]):
        if type(coefficient) is not Fraction:
            coefficient = _fraction(coefficient)
        exponent = _exact_ints(exponent)
        if coefficient == 0:
            raise ValueError("term coefficient must be nonzero")
        if any(e < 0 for e in exponent):
            raise ValueError("exponents must be non-negative")
        d = self.__dict__
        d["coefficient"], d["exponent"] = coefficient, exponent

    @property
    def support(self) -> tuple[int, ...]:
        return support(self.exponent)


class SparsePolynomial(_Frozen):
    """Immutable merged term list in a fixed ambient variable order."""

    _fields = ("n", "terms", "variables")

    def __init__(self, n: int, terms: tuple[Term, ...], variables: tuple[str, ...]):
        if n < 1:
            raise ValueError("ambient variable count must be positive")
        if len(variables) != n or len(set(variables)) != n:
            raise ValueError("need n distinct variable names")
        if not terms:
            raise ValueError("polynomial must have at least one term")
        exps = [t.exponent for t in terms]
        if any(len(e) != n for e in exps):
            raise ValueError("exponent length differs from ambient dimension")
        keys = [graded_lex_key(e) for e in exps]
        if sorted(set(keys)) != keys:
            raise ValueError("terms must be distinct and canonically ordered")
        d = self.__dict__
        d["n"], d["terms"], d["variables"] = n, terms, variables

    @classmethod
    def from_terms(
        cls,
        terms: Iterable[tuple[Union[int, Fraction, str], Sequence[int]]],
        variables: Optional[Sequence[str]] = None,
        n: Optional[int] = None,
    ) -> "SparsePolynomial":
        """Merge (coefficient, exponent) pairs, drop exact zeros, sort canonically.

        int and Fraction coefficients add as they are, others pass through
        Fraction first; each surviving term then holds one Fraction.
        """
        merged: dict[Exponent, Union[int, Fraction]] = {}
        for coeff, exp in terms:
            e = _exact_ints(exp)
            if type(coeff) is not int and type(coeff) is not Fraction:
                coeff = _fraction(coeff)
            merged[e] = merged.get(e, 0) + coeff
        merged = {e: c for e, c in merged.items() if c != 0}
        if not merged:
            raise ValueError("no terms remain after merging")
        if n is None:
            n = len(next(iter(merged)))
        names = tuple(variables) if variables is not None else tuple(
            f"x{j + 1}" for j in range(n)
        )
        ordered = sorted(merged, key=graded_lex_key)
        return cls(n=n, terms=tuple(Term(merged[e], e) for e in ordered), variables=names)

    @property
    def k(self) -> int:
        """Number of terms."""
        return len(self.terms)

    def exponents(self) -> tuple[Exponent, ...]:
        return tuple(t.exponent for t in self.terms)

    def term(self, i: int) -> Term:
        """The i-th term, indexed 1..K like the subsets S used throughout."""
        if not 1 <= i <= self.k:
            raise PreconditionError(f"term index {i} out of range 1..{self.k}")
        return self.terms[i - 1]

    def restricted_to(self, indices: Iterable[int]) -> "SparsePolynomial":
        """The sub-sum f_S of the terms named by 1-based indices."""
        terms = tuple(self.terms[i - 1] for i in _term_subset(self, indices))
        return SparsePolynomial(n=self.n, terms=terms, variables=self.variables)

    def __str__(self) -> str:
        return to_string(self)


def _term_subset(f: SparsePolynomial, indices: Iterable[int]) -> tuple[int, ...]:
    """The term subset S of f: sorted, duplicate-free 1-based indices in 1..K."""
    try:
        s = tuple(sorted(set(_exact_ints(indices))))
    except ValueError as exc:
        raise PreconditionError(f"subset S: {exc}") from exc
    if not s:
        raise PreconditionError("subset S must be nonempty")
    if s[0] < 1 or s[-1] > f.k:
        raise PreconditionError(f"subset {s} not contained in 1..{f.k}")
    return s


_NUMBER_RE = re.compile(r"(\d+)(?:/(\d+))?")
_FACTOR_RE = re.compile(r"([A-Za-z_]\w*)(?:\^(-?\d+))?")
# a sign starts a monomial unless the last non-space character before it is '^', '*', '/' or a sign
_MONOMIAL_START_RE = re.compile(r"(?<=[^\s^*/+-])\s*(?=[+-])")


def _int(digits: str, factor: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"number too long in {factor!r}") from exc


def parse(text: str, variables: Sequence[str]) -> SparsePolynomial:
    """Parse a +/- separated sum of monomials like ``3/2*x^2*y - z``.

    Coefficients are integers or rationals p/q; variables come from the
    declared ordered list, which fixes the coordinate indices.
    """
    names = tuple(variables)
    if not names or len(set(names)) != len(names):
        raise ParseError("variable list must be nonempty and duplicate-free")
    index = {name: j for j, name in enumerate(names)}
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty polynomial text")
    raw_terms = []
    for chunk in _MONOMIAL_START_RE.split(stripped):
        num, den = (-1 if chunk[0] == "-" else 1), 1
        if chunk[0] in "+-":
            chunk = chunk[1:].strip()
        if not chunk:
            raise ParseError("empty monomial between signs")
        exponent = [0] * len(names)
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"malformed token in {chunk!r}")
            m = _NUMBER_RE.fullmatch(factor)
            if m is not None:
                num *= _int(m.group(1), factor)
                den *= 1 if m.group(2) is None else _int(m.group(2), factor)
                if den == 0:
                    raise ParseError(f"zero denominator in {factor!r}")
                continue
            m = _FACTOR_RE.fullmatch(factor)
            if m is None:
                raise ParseError(f"malformed token {factor!r}")
            name, power = m.group(1), m.group(2)
            if name not in index:
                raise ParseError(f"unknown variable {name!r}")
            e = 1 if power is None else _int(power, factor)
            if e < 0:
                raise ParseError(f"negative exponent in {factor!r}")
            exponent[index[name]] += e
        raw_terms.append((num if den == 1 else Fraction(num, den), tuple(exponent)))
    try:
        return SparsePolynomial.from_terms(raw_terms, variables=names)
    except ValueError as exc:
        raise ParseError("polynomial is empty after merging") from exc


def to_string(f: SparsePolynomial) -> str:
    """Round-trippable text with explicit '*' and '^', terms in canonical order."""
    pieces: list[str] = []
    for k, term in enumerate(f.terms):
        mag = abs(term.coefficient)
        factors = []
        if mag != 1 or not any(term.exponent):
            factors.append(str(mag))
        for j, e in enumerate(term.exponent):
            if e == 1:
                factors.append(f.variables[j])
            elif e > 1:
                factors.append(f"{f.variables[j]}^{e}")
        body = "*".join(factors)
        if k == 0:
            pieces.append(body if term.coefficient > 0 else f"-{body}")
        else:
            pieces.append(("+ " if term.coefficient > 0 else "- ") + body)
    return " ".join(pieces)


def weight_vector(values: Sequence, n: int) -> tuple:
    try:
        w = canonical_point(values)
    except ValueError as exc:
        raise PreconditionError(f"weight: {exc}") from exc
    if len(w) != n:
        raise PreconditionError(f"weight has length {len(w)}, expected {n}")
    return w


def weighted_degrees(f: SparsePolynomial, weight: Sequence) -> tuple[list[Fraction], Fraction]:
    """Inner products of the weight with every exponent of f, and their maximum.

    The weight is scaled to integers by the lcm d of its denominators once;
    each product is an integer dot product over d.
    """
    w = weight_vector(weight, f.n)
    d = math.lcm(*(wi.denominator for wi in w))
    iw = [wi.numerator * (d // wi.denominator) for wi in w]
    sums = [sum(map(mul, iw, t.exponent)) for t in f.terms]
    return [Fraction(p, d) for p in sums], Fraction(max(sums), d)


def initial_form(f: SparsePolynomial, weight: Sequence) -> SparsePolynomial:
    """The sub-sum of terms whose weight inner product is maximal."""
    products, top = weighted_degrees(f, weight)
    kept = tuple(t for t, p in zip(f.terms, products) if p == top)
    return SparsePolynomial(n=f.n, terms=kept, variables=f.variables)


def is_disjointly_supported(f: SparsePolynomial) -> bool:
    """True when no variable index occurs in two distinct terms' supports."""
    seen: set[int] = set()
    for term in f.terms:
        for j in term.support:
            if j in seen:
                return False
            seen.add(j)
    return True


class SharedVariableWitness(_Frozen):
    """A variable index occurring in the supports of both named terms (1-based)."""

    _fields = ("variable", "terms")

    def __init__(self, variable: int, terms: tuple[int, int]):
        d = self.__dict__
        d["variable"], d["terms"] = variable, terms


class CommonFactorWitness(_Frozen):
    """A term pair (1-based) whose joint exponent gcd exceeds 1."""

    _fields = ("terms", "gcd")

    def __init__(self, terms: tuple[int, int], gcd: int):
        d = self.__dict__
        d["terms"], d["gcd"] = terms, gcd


Witness = Union[SharedVariableWitness, CommonFactorWitness]


class WellPoisedReport(_Frozen):
    """The classification of f, with the first offending pair when it fails."""

    _fields = ("well_poised", "monomial", "witness")

    def __init__(self, well_poised: bool, monomial: bool, witness: Optional[Witness]):
        d = self.__dict__
        d["well_poised"], d["monomial"], d["witness"] = well_poised, monomial, witness


def _pair_witness(a: Term, b: Term, terms: tuple[int, int]) -> Optional[Witness]:
    """Why the pair of terms named by ``terms`` fails the criterion: a
    variable both supports share, else a joint exponent gcd above 1; None
    when it passes."""
    shared = set(a.support) & set(b.support)
    if shared:
        return SharedVariableWitness(min(shared), terms)
    g = exponent_gcd(a.exponent, b.exponent)
    return CommonFactorWitness(terms, g) if g != 1 else None


def is_irreducible_binomial(t1: Term, t2: Term) -> bool:
    """Combinatorial irreducibility test for a two-term polynomial.

    Over an algebraically closed field the binomial is irreducible exactly
    when the supports are disjoint and the joint exponent gcd is 1.
    """
    if t1.exponent == t2.exponent:
        raise PreconditionError("binomial terms must have distinct exponents")
    return _pair_witness(t1, t2, (1, 2)) is None


def is_well_poised(f: SparsePolynomial) -> WellPoisedReport:
    """Classify f; on failure the witness names the first offending pair.

    Single-term polynomials pass vacuously and are flagged as monomials.
    """
    monomial = f.k == 1
    for i in range(1, f.k + 1):
        for j in range(i + 1, f.k + 1):
            witness = _pair_witness(f.term(i), f.term(j), (i, j))
            if witness is not None:
                return WellPoisedReport(False, monomial, witness)
    return WellPoisedReport(True, monomial, None)
