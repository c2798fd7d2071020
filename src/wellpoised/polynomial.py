"""Sparse multivariate polynomials over Q and the well-poised classification.

A polynomial is a merged set of terms with exact rational coefficients and
non-negative integer exponent vectors.  Initial forms use the maximum
convention: in_w(f) keeps the terms whose exponent has the largest inner
product with the weight w.  Whether every non-monomial initial form of f is
irreducible is decided purely combinatorially: f qualifies exactly when its
terms have pairwise disjoint supports and every pair of exponent vectors has
joint gcd 1.  No factoring over any field is ever attempted.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, neg
from typing import Iterable, Optional, Sequence, Union

Exponent = tuple[int, ...]
Weight = tuple[Fraction, ...]


class ParseError(ValueError):
    """Polynomial text that does not follow the input grammar."""


class PreconditionError(ValueError):
    """An operation was invoked outside its contract."""


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


def _exact_ints(values: Iterable) -> tuple[int, ...]:
    """The values as a tuple of ints; a tuple of ints comes back as it is.

    Raises ValueError for a value that is not exactly an integer, such as
    5/2 or 2.9, which int() would truncate.
    """
    if type(values) is tuple and all(type(v) is int for v in values):
        return values
    ints = []
    for v in values:
        q = Fraction(v)
        if q.denominator != 1:
            raise ValueError(f"{v!r} is not an integer")
        ints.append(q.numerator)
    return tuple(ints)


def exponent_gcd(a: Sequence[int], b: Sequence[int]) -> int:
    """gcd of all entries of both vectors jointly; 0 when all entries vanish."""
    if len(a) != len(b):
        raise PreconditionError("exponent vectors have different lengths")
    return math.gcd(*_exact_ints(a), *_exact_ints(b))


@dataclass(frozen=True)
class Term:
    coefficient: Fraction
    exponent: Exponent

    def __post_init__(self):
        if type(self.coefficient) is not Fraction:
            object.__setattr__(self, "coefficient", Fraction(self.coefficient))
        if type(self.exponent) is not tuple or any(type(e) is not int for e in self.exponent):
            object.__setattr__(self, "exponent", _exact_ints(self.exponent))
        if self.coefficient == 0:
            raise ValueError("term coefficient must be nonzero")
        if any(e < 0 for e in self.exponent):
            raise ValueError("exponents must be non-negative")

    @property
    def support(self) -> tuple[int, ...]:
        return support(self.exponent)


@dataclass(frozen=True)
class SparsePolynomial:
    """Immutable merged term list in a fixed ambient variable order."""

    n: int
    terms: tuple[Term, ...]
    variables: tuple[str, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient variable count must be positive")
        if len(self.variables) != self.n or len(set(self.variables)) != self.n:
            raise ValueError("need n distinct variable names")
        if not self.terms:
            raise ValueError("polynomial must have at least one term")
        exps = [t.exponent for t in self.terms]
        if any(len(e) != self.n for e in exps):
            raise ValueError("exponent length differs from ambient dimension")
        keys = [graded_lex_key(e) for e in exps]
        if sorted(set(keys)) != keys:
            raise ValueError("terms must be distinct and canonically ordered")

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
                coeff = Fraction(coeff)
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
        picked = sorted(set(indices))
        if not picked:
            raise PreconditionError("index subset must be nonempty")
        terms = tuple(self.term(i) for i in picked)
        return SparsePolynomial(n=self.n, terms=terms, variables=self.variables)

    def __str__(self) -> str:
        return to_string(self)


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


def weight_vector(values: Sequence, n: int) -> Weight:
    w = tuple(Fraction(v) for v in values)
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


def is_irreducible_binomial(t1: Term, t2: Term) -> bool:
    """Combinatorial irreducibility test for a two-term polynomial.

    Over an algebraically closed field the binomial is irreducible exactly
    when the supports are disjoint and the joint exponent gcd is 1.
    """
    if t1.exponent == t2.exponent:
        raise PreconditionError("binomial terms must have distinct exponents")
    if set(t1.support) & set(t2.support):
        return False
    return exponent_gcd(t1.exponent, t2.exponent) == 1


@dataclass(frozen=True)
class SharedVariableWitness:
    """A variable index occurring in the supports of both named terms (1-based)."""

    variable: int
    terms: tuple[int, int]


@dataclass(frozen=True)
class CommonFactorWitness:
    """A term pair (1-based) whose joint exponent gcd exceeds 1."""

    terms: tuple[int, int]
    gcd: int


Witness = Union[SharedVariableWitness, CommonFactorWitness]


@dataclass(frozen=True)
class WellPoisedReport:
    well_poised: bool
    monomial: bool
    witness: Optional[Witness]


def is_well_poised(f: SparsePolynomial) -> WellPoisedReport:
    """Classify f; on failure the witness names the first offending pair.

    Single-term polynomials pass vacuously and are flagged as monomials.
    """
    monomial = f.k == 1
    for i in range(1, f.k + 1):
        for j in range(i + 1, f.k + 1):
            a, b = f.term(i), f.term(j)
            shared = sorted(set(a.support) & set(b.support))
            if shared:
                return WellPoisedReport(
                    False, monomial, SharedVariableWitness(shared[0], (i, j))
                )
            g = exponent_gcd(a.exponent, b.exponent)
            if g != 1:
                return WellPoisedReport(False, monomial, CommonFactorWitness((i, j), g))
    return WellPoisedReport(True, monomial, None)
