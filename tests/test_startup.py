"""Start-up: the package surface resolves lazily, and each command loads only its layers."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wellpoised
from wellpoised import cli

SRC = str(Path(wellpoised.__file__).resolve().parent.parent)
LAYERS = ("fan", "geometry", "linalg", "okounkov", "polynomial")

# wellpoised.__all__ as it was when the package imported every layer eagerly.
PUBLIC_NAMES = [
    "CommonFactorWitness", "FaceDescriptor", "Grading", "GradingImage",
    "LatticePolytope", "LinealityBasis", "MinkowskiReport", "OkounkovBody",
    "ParseError", "PreconditionError", "RayGenerator", "SharedVariableWitness",
    "SparsePolynomial", "Term", "TropicalCone", "ValuationMatrix",
    "WeightDecomposition", "WellPoisedReport", "classify_weight", "cone",
    "convex_hull_2d", "decompose_weight", "equality_polytope_vertices",
    "exponent_gcd", "extreme_points", "faces", "global_nok_cone",
    "graded_component", "graded_lex_key", "grading_image", "homogeneity_vector",
    "in_convex_hull", "in_tropical_variety", "initial_form",
    "is_disjointly_supported", "is_irreducible_binomial", "is_simplex",
    "is_well_poised", "lattice_points", "lineality_basis",
    "minimal_semigroup_generators", "minkowski_decomposition_witness",
    "newton_polytope", "nok_body", "parse", "projected_body", "ray_generator",
    "shoelace_area", "support", "to_string", "total_degree", "tropical_variety",
    "valuation_matrix", "variable_valuations",
]

# Runs one command the way ``python -m wellpoised.cli`` does, then writes the
# sorted modules it loaded to stderr as one JSON line.  runpy runs the command
# module as __main__, so ``wellpoised.cli`` itself is not among them.
FOOTPRINT = """
import json, runpy, sys
try:
    runpy.run_module("wellpoised.cli", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
sys.stderr.write(json.dumps(sorted(sys.modules)))
"""

# What an interpreter that runs nothing has loaded, written the same way.
BARE = "import json, sys; sys.stderr.write(json.dumps(sorted(sys.modules)))"

# Standard modules that cost start-up time and that no command needs.
HEAVY = {"dataclasses", "inspect"}


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=True
    )


CHECK = {"wellpoised", "wellpoised.polynomial", "wellpoised.serialize"}
FAN = CHECK | {"wellpoised.fan", "wellpoised.linalg"}
GEOMETRY = CHECK | {"wellpoised.geometry", "wellpoised.linalg"}
OKOUNKOV = FAN | GEOMETRY | {"wellpoised.okounkov"}
DEL_PEZZO = ["--eq-rows", "1,-1,0,-1,1;1,1,1,0,2", "--eq-targets", "0,6", "--dim", "5"]

COMMANDS = [
    (["check", "x^2+y^3+z^5", "--vars", "x,y,z"], CHECK),
    (["trop", "x+y^2+z*w", "--vars", "x,y,z,w"], FAN),
    (["polytope", "x^2+y^3+z^5", "--vars", "x,y,z", "--lattice"], GEOMETRY),
    (["faces", "x+y^2+z*w", "--vars", "x,y,z,w"], FAN),
    (["matrix", "x+y^2+z*w", "--vars", "x,y,z,w", "--S", "2,3"], OKOUNKOV),
    (["nok", "x+y^2+z*w", "--vars", "x,y,z,w", "--S", "2,3", "--degree", "2,1,1,1"], OKOUNKOV),
    (["graded", *DEL_PEZZO], OKOUNKOV),
    (["project", *DEL_PEZZO, "--rows", "1,1,1,1,1;1,1,1,0,0"], OKOUNKOV),
]


@functools.cache
def footprint(*argv: str) -> tuple[str, frozenset[str]]:
    """The stdout of one command in a fresh interpreter, and the modules it loaded."""
    child = fresh_python("-c", FOOTPRINT, *argv)
    return child.stdout, frozenset(json.loads(child.stderr))


@functools.cache
def bare_modules() -> frozenset[str]:
    return frozenset(json.loads(fresh_python("-c", BARE).stderr))


@pytest.mark.parametrize("argv, loaded", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_each_command_loads_only_its_layers(capsys, argv, loaded):
    stdout, modules = footprint(*argv)
    assert {m for m in modules if m.startswith("wellpoised")} == loaded
    assert cli.run(argv) == 0
    assert stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS], ids=[a[0] for a, _ in COMMANDS])
def test_no_command_loads_dataclasses_or_inspect(argv):
    # a site hook may load them before any command runs; only what the command adds counts
    assert HEAVY & footprint(*argv)[1] <= bare_modules()


def test_bare_import_loads_no_layer_and_lists_and_binds_each_on_use():
    script = (
        "import sys, wellpoised\n"
        "assert sorted(m for m in sys.modules if m.startswith('wellpoised')) == ['wellpoised']\n"
        f"assert set({PUBLIC_NAMES + list(LAYERS)!r}) <= set(dir(wellpoised))\n"
        f"for layer in {LAYERS!r}:\n"
        "    assert getattr(wellpoised, layer) is sys.modules['wellpoised.' + layer]\n"
        "print('ok')\n"
    )
    assert fresh_python("-c", script).stdout == "ok\n"


def test_public_names_are_unchanged():
    assert wellpoised.__all__ == PUBLIC_NAMES


def test_each_public_name_is_its_layers_object():
    for name in PUBLIC_NAMES:
        obj = getattr(wellpoised, name)
        assert obj.__module__ in {f"wellpoised.{layer}" for layer in LAYERS}, name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from wellpoised import *", namespace)
    assert {k for k in namespace if not k.startswith("__")} == set(PUBLIC_NAMES)
    assert all(namespace[name] is getattr(wellpoised, name) for name in PUBLIC_NAMES)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        wellpoised.no_such_name
