"""Cone decomposition of the tropical hypersurface of a disjointly supported
polynomial.

Every weight space decomposes into cones C_S = L + sum of open rays, where L
is the common homogeneity (lineality) space and the ray for term i is -1 on
that term's support.  A weight lands in C_S exactly when S is the set of
terms maximizing its inner products, and C_S belongs to the tropical variety
when |S| >= 2 (the initial form is not a monomial).  Every nonempty S is also
a face of the Newton polytope, supported by the sum of the rays of C_S.
The cone list and the face list come from one sweep over the term subsets,
which pairs each S with the rays outside it and shares one lineality basis
and one ray per term among all of them.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import linalg
from .polynomial import (
    PreconditionError,
    _Frozen,
    SharedVariableWitness,
    SparsePolynomial,
    _term_subset,
    is_disjointly_supported,
    is_well_poised,
    total_degree,
    weight_vector,
    weighted_degrees,
)

IntVector = tuple[int, ...]


def homogeneity_vector(f: SparsePolynomial) -> IntVector:
    """The integer weight assigning lcm(degrees) to every term of f.

    Entry lcm/deg(term i) on the support of term i; variables appearing in no
    term get entry 0.  Every cone of the fan starts here, so this is where its
    input contract is checked.
    """
    if any(not any(t.exponent) for t in f.terms):
        raise PreconditionError("constant term present; cones are undefined")
    if not is_disjointly_supported(f):
        raise PreconditionError("overlapping supports; cones are undefined")
    degrees = [total_degree(t.exponent) for t in f.terms]
    ell = math.lcm(*degrees)
    v = [0] * f.n
    for term, deg in zip(f.terms, degrees):
        for j in term.support:
            v[j] = ell // deg
    return tuple(v)


class LinealityBasis(_Frozen):
    """Basis of the common homogeneity space of all cones.

    kernel_vectors holds, for each term with support s_1 < ... < s_k and
    entries a_1, ..., a_k, the primitive vectors a_j*e(s_1) - a_1*e(s_j) for
    j = 2..k (term by term, in canonical term order), followed by one unit
    vector for every variable that appears in no term.
    """

    _fields = ("v_f", "kernel_vectors")

    @cached_property
    def rows(self) -> tuple[IntVector, ...]:
        """v_f then the kernel vectors; one tuple object per basis, so every
        cone sharing the basis hands the JSON writer the same rows."""
        return (self.v_f, *self.kernel_vectors)

    @property
    def dim(self) -> int:
        return 1 + len(self.kernel_vectors)


def lineality_basis(f: SparsePolynomial) -> LinealityBasis:
    v_f = homogeneity_vector(f)  # first: it rejects the constant term the loop cannot take
    kernel: list[IntVector] = []
    used: set[int] = set()
    for term in f.terms:
        supp = term.support
        used.update(supp)
        first = supp[0]
        for j in supp[1:]:
            vec = [0] * f.n
            vec[first] = term.exponent[j]
            vec[j] = -term.exponent[first]
            kernel.append(linalg.primitive_integer(vec))
    for c in range(f.n):
        if c not in used:
            unit = [0] * f.n
            unit[c] = 1
            kernel.append(tuple(unit))
    return LinealityBasis(v_f, tuple(kernel))


class RayGenerator(_Frozen):
    """Extremal ray attached to term i: entry -1 on its support, 0 elsewhere."""

    _fields = ("i", "w")


def ray_generator(f: SparsePolynomial, i: int) -> RayGenerator:
    term = f.term(i)
    w = [0] * f.n
    for j in term.support:
        w[j] = -1
    return RayGenerator(i, tuple(w))


class TropicalCone(_Frozen):
    """C_S in generator form: lineality basis plus one open ray per term not in S."""

    _fields = ("S", "lineality", "rays")

    @property
    def dim(self) -> int:
        return self.lineality.dim + len(self.rays)


def _sweep(f: SparsePolynomial, sizes: Iterable[int]) -> tuple[LinealityBasis, Iterator]:
    """The lineality basis of f, and a lazy stream of (S, rays of the terms
    outside S) for every term subset S of each size, lex within a size.

    The basis is built first, so the fan's input check runs even when no
    subset follows.  The complements of one size's lex-ordered subsets are
    the other size's lex-ordered subsets, backwards, so no S filters the
    rays.  The pairs share one ray object per term, so the JSON writer,
    which memoises tuples by identity, renders each row once.
    """
    basis = lineality_basis(f)
    terms = range(1, f.k + 1)
    rays = [ray_generator(f, i) for i in terms]
    pairs = (
        zip(
            itertools.combinations(terms, size),
            reversed([*itertools.combinations(rays, f.k - size)]),
        )
        for size in sizes
    )
    return basis, itertools.chain.from_iterable(pairs)


def cone(f: SparsePolynomial, subset: Iterable[int]) -> TropicalCone:
    s = _term_subset(f, subset)
    rays = tuple(ray_generator(f, i) for i in range(1, f.k + 1) if i not in s)
    return TropicalCone(s, lineality_basis(f), rays)


def classify_weight(f: SparsePolynomial, weight: Sequence) -> tuple[int, ...]:
    """The 1-based set of terms whose weight inner product is maximal."""
    products, top = weighted_degrees(f, weight)
    return tuple(i + 1 for i, p in enumerate(products) if p == top)


def in_tropical_variety(f: SparsePolynomial, weight: Sequence) -> bool:
    """True when the initial form at this weight is not a monomial."""
    return len(classify_weight(f, weight)) >= 2


def tropical_variety(f: SparsePolynomial) -> list[TropicalCone]:
    """All cones C_S with |S| >= 2, by decreasing dimension then lex subset.

    The maximal cones are exactly the two-element subsets: K*(K-1)/2 of them.
    """
    basis, pairs = _sweep(f, range(2, f.k + 1))
    return [TropicalCone(s, basis, rays) for s, rays in pairs]


class FaceDescriptor(_Frozen):
    """A face of the Newton polytope, as the 1-based term subset it carries."""

    _fields = ("term_indices", "supporting_weight")


def faces(f: SparsePolynomial) -> list[FaceDescriptor]:
    """One descriptor per nonempty term subset S, 2^K - 1 in total.

    The supporting weight is the sum of the rays of the cone C_S: entry -1 on
    each variable supporting a term outside S, and 0 elsewhere.  Only the
    empty-simplex case (f well-poised: disjoint supports, pairwise gcd 1) is
    supported, and, as in the rest of the fan, no constant term: its ray
    would be zero.
    """
    witness = is_well_poised(f).witness
    if isinstance(witness, SharedVariableWitness):
        raise PreconditionError("faces requires disjointly supported terms")
    if witness is not None:
        i, j = witness.terms
        raise PreconditionError(f"faces requires pairwise exponent gcd 1; terms {i},{j} violate it")
    _, pairs = _sweep(f, range(1, f.k + 1))
    zero = (0,) * f.n
    return [
        FaceDescriptor(s, tuple(map(sum, zip(zero, *(r.w for r in rays))))) for s, rays in pairs
    ]


class WeightDecomposition(_Frozen):
    """Exact certificate that a weight lies in the cone of its classified S.

    weight = sum(lineality_coefficients * basis rows)
           + sum(ray_coefficients * rays),   all ray coefficients > 0.
    """

    _fields = ("S", "lineality", "lineality_coefficients", "rays", "ray_coefficients")

    def reconstruct(self) -> tuple[Fraction, ...]:
        rows = (*self.lineality.rows, *(ray.w for ray in self.rays))
        coeffs = (*self.lineality_coefficients, *self.ray_coefficients)
        return tuple(sum(map(mul, coeffs, column), Fraction(0)) for column in zip(*rows))


def decompose_weight(f: SparsePolynomial, weight: Sequence) -> WeightDecomposition:
    """Split a weight into lineality part plus positive ray combination.

    The weight lies in C_S, for S the terms maximising its inner products,
    so one exact solve over the lineality rows and the rays of C_S together
    gives every coefficient.  The solution is unique, as the rows are
    independent: dotted with an exponent a_j, v_f reads lcm(degrees), the
    kernel rows read 0 and ray i reads -deg_i if i = j, else 0.  So a
    relation among the rows has coefficient 0 on v_f (take j in S), then on
    each ray j (j outside S), and is left within the kernel basis.  Ray j's
    coefficient reads (top - product_j)/deg_j, positive as j is outside S.
    """
    w = weight_vector(weight, f.n)
    c = cone(f, classify_weight(f, w))
    rows = (*c.lineality.rows, *(ray.w for ray in c.rays))
    coeffs = linalg.solve_unique(list(zip(*rows)), w)
    if coeffs is None:
        raise PreconditionError("weight does not decompose; input violates contract")
    split = c.lineality.dim
    return WeightDecomposition(c.S, c.lineality, coeffs[:split], c.rays, coeffs[split:])
