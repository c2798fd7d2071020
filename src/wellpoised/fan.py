"""Cone decomposition of the tropical hypersurface of a disjointly supported
polynomial.

Every weight space decomposes into cones C_S = L + sum of open rays, where L
is the common homogeneity (lineality) space and the ray for term i is -1 on
that term's support.  A weight lands in C_S exactly when S is the set of
terms maximizing its inner products, and C_S belongs to the tropical variety
when |S| >= 2 (the initial form is not a monomial).  Every nonempty S is also
a face of the Newton polytope, supported by the sum of the rays of C_S.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

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

    def __init__(self, v_f: IntVector, kernel_vectors: tuple[IntVector, ...]):
        d = self.__dict__
        d["v_f"], d["kernel_vectors"] = v_f, kernel_vectors

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

    def __init__(self, i: int, w: IntVector):
        d = self.__dict__
        d["i"], d["w"] = i, w


def ray_generator(f: SparsePolynomial, i: int) -> RayGenerator:
    term = f.term(i)
    w = [0] * f.n
    for j in term.support:
        w[j] = -1
    return RayGenerator(i, tuple(w))


class TropicalCone(_Frozen):
    """C_S in generator form: lineality basis plus one open ray per term not in S."""

    _fields = ("S", "lineality", "rays")

    def __init__(
        self, S: tuple[int, ...], lineality: LinealityBasis, rays: tuple[RayGenerator, ...]
    ):
        d = self.__dict__
        d["S"], d["lineality"], d["rays"] = S, lineality, rays

    @property
    def dim(self) -> int:
        return self.lineality.dim + len(self.rays)


def _cones(f: SparsePolynomial, subsets: Iterable[tuple[int, ...]]) -> list[TropicalCone]:
    """C_S for each sorted subset S, from one lineality basis and one ray per term.

    Every cone holds the same basis object and the same ray objects, so the
    JSON writer, which memoises tuples by identity, renders each row once.
    """
    basis = lineality_basis(f)
    rays = [ray_generator(f, i) for i in range(1, f.k + 1)]
    return [TropicalCone(s, basis, tuple(ray for ray in rays if ray.i not in s)) for s in subsets]


def cone(f: SparsePolynomial, subset: Iterable[int]) -> TropicalCone:
    return _cones(f, [_term_subset(f, subset)])[0]


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
    terms, sizes = range(1, f.k + 1), range(2, f.k + 1)
    return _cones(f, (s for size in sizes for s in itertools.combinations(terms, size)))


class FaceDescriptor(_Frozen):
    """A face of the Newton polytope, as the 1-based term subset it carries."""

    _fields = ("term_indices", "supporting_weight")

    def __init__(self, term_indices: tuple[int, ...], supporting_weight: tuple[int, ...]):
        d = self.__dict__
        d["term_indices"], d["supporting_weight"] = term_indices, supporting_weight


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
    terms = range(1, f.k + 1)
    cones = _cones(f, (s for size in terms for s in itertools.combinations(terms, size)))
    zero = (0,) * f.n
    return [FaceDescriptor(c.S, tuple(map(sum, zip(zero, *(r.w for r in c.rays))))) for c in cones]


class WeightDecomposition(_Frozen):
    """Exact certificate that a weight lies in the cone of its classified S.

    weight = sum(lineality_coefficients * basis rows)
           + sum(ray_coefficients * rays),   all ray coefficients > 0.
    """

    _fields = ("S", "lineality", "lineality_coefficients", "rays", "ray_coefficients")

    def __init__(
        self,
        S: tuple[int, ...],
        lineality: LinealityBasis,
        lineality_coefficients: tuple[Fraction, ...],
        rays: tuple[RayGenerator, ...],
        ray_coefficients: tuple[Fraction, ...],
    ):
        d = self.__dict__
        d["S"], d["lineality"], d["rays"] = S, lineality, rays
        d["lineality_coefficients"] = lineality_coefficients
        d["ray_coefficients"] = ray_coefficients

    def reconstruct(self) -> tuple[Fraction, ...]:
        n = len(self.lineality.v_f)
        out = [Fraction(0)] * n
        for coeff, row in zip(self.lineality_coefficients, self.lineality.rows):
            for j in range(n):
                out[j] += coeff * row[j]
        for coeff, ray in zip(self.ray_coefficients, self.rays):
            for j in range(n):
                out[j] += coeff * ray.w[j]
        return tuple(out)


def decompose_weight(f: SparsePolynomial, weight: Sequence) -> WeightDecomposition:
    """Split a weight into lineality part plus positive ray combination.

    Subtracting (top - product_i)/degree_i times ray i for every term i
    outside the argmax set leaves a vector weighting all terms equally, which
    is then expressed in the lineality basis by an exact linear solve.
    """
    w = weight_vector(weight, f.n)
    products, top = weighted_degrees(f, w)
    c = cone(f, (i + 1 for i, p in enumerate(products) if p == top))
    ray_coeffs = []
    residual = list(w)
    for ray in c.rays:
        lam = Fraction(top - products[ray.i - 1], total_degree(f.term(ray.i).exponent))
        ray_coeffs.append(lam)
        for j in range(f.n):
            residual[j] -= lam * ray.w[j]
    coeffs = linalg.solve_unique(list(zip(*c.lineality.rows)), residual)
    if coeffs is None:
        raise PreconditionError("weight does not decompose; input violates contract")
    return WeightDecomposition(c.S, c.lineality, coeffs, c.rays, tuple(ray_coeffs))
