"""Exact toolkit for well-poised hypersurfaces.

Classifies sparse polynomials over Q by the combinatorial well-poisedness
criterion, computes Newton polytopes and their lattice data, decomposes the
tropical hypersurface into explicit cones, and builds the valuation matrices
and Newton-Okounkov bodies attached to maximal prime cones.  All arithmetic
is exact rational.

Every public name lives in one layer module (``_EXPORTS``).  A layer is
imported on the first use of one of its names or of the layer itself
(PEP 562), so ``import wellpoised`` alone loads none of them and a command
pays only for the layers it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "fan": (
        "FaceDescriptor", "LinealityBasis", "RayGenerator", "TropicalCone",
        "WeightDecomposition", "classify_weight", "cone", "decompose_weight", "faces",
        "homogeneity_vector", "in_tropical_variety", "lineality_basis", "ray_generator",
        "tropical_variety",
    ),
    "geometry": (
        "LatticePolytope", "MinkowskiReport", "convex_hull_2d", "extreme_points",
        "in_convex_hull", "is_simplex", "lattice_points", "minkowski_decomposition_witness",
        "newton_polytope", "shoelace_area",
    ),
    "okounkov": (
        "Grading", "GradingImage", "OkounkovBody", "ValuationMatrix",
        "equality_polytope_vertices", "global_nok_cone", "graded_component",
        "grading_image", "minimal_semigroup_generators", "nok_body", "projected_body",
        "valuation_matrix", "variable_valuations",
    ),
    "polynomial": (
        "CommonFactorWitness", "ParseError", "PreconditionError",
        "SharedVariableWitness", "SparsePolynomial", "Term", "WellPoisedReport",
        "exponent_gcd", "graded_lex_key", "initial_form", "is_disjointly_supported",
        "is_irreducible_binomial", "is_well_poised", "parse", "support", "to_string",
        "total_degree",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
# The layer modules themselves, reachable as attributes after ``import wellpoised``.
_LAYERS = ("fan", "geometry", "linalg", "okounkov", "polynomial")

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    if name in _LAYER_OF:
        value = getattr(import_module(f".{_LAYER_OF[name]}", __name__), name)
    elif name in _LAYERS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAYERS})
