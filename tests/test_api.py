"""The public surface: names exported by the projkit namespace, the parameter
names of every public callable, the public attributes of the domain classes,
the CLI subcommands and the options of each.

A change that adds, renames or removes one of them has to change this file.
"""

import argparse
import inspect
import math
import types

import numpy as np
import pytest

import projkit as pk
from conftest import random_generic_quadruple
from projkit import cli

PUBLIC_NAMES = [
    "BoundaryData", "Chord", "CoincidentPoints", "ComplexEigenvalues", "ConicOval",
    "ConvexDomain", "DoubleRatios", "Flag", "GoldmanLengths", "InconsistentStratum",
    "IsometryClass", "NonFiniteResult", "NonGenericFlags", "NonPositiveParameter",
    "NonPositiveRatio",
    "NotUnimodular", "PantsBD", "PantsGoldman", "PointOutsideDomain", "Polygon",
    "ProjKitError", "ProjLine", "ProjPoint", "RegionNotContained", "TorusBD",
    "TorusGoldman", "TripleRatio", "WrongClass", "all_parabolic_coords",
    "all_parabolic_recover", "bulge_vertex", "bulging_configuration", "bulging_matrix",
    "busemann_area", "chord", "classify", "double_ratios", "finsler_norm",
    "goldman_lengths", "hilbert_distance", "is_generic_quadruple", "is_generic_triple",
    "middle_eigenvalue", "one_parabolic_residuals", "pairing13", "pants_goldman_to_bd",
    "quasi_hyperbolic_residual", "shear", "shear_shift", "stratum_codimension",
    "stratum_parameters", "tau111", "torus_goldman_to_bd", "torus_parabolic_recover",
    "triangle_area_experiment", "triple_det", "triple_ratio",
]

# parameter names of every exported function and class (its constructor) and of
# the public methods each class defines; exception classes take a message only
SIGNATURES = {
    "BoundaryData": ["lam", "tau", "kind"],
    "BoundaryData.hyperbolic": ["lam", "tau"],
    "BoundaryData.parabolic": [],
    "BoundaryData.quasi_hyperbolic": ["lam"],
    "Chord": ["p", "q"],
    "ConicOval": ["coeffs"],
    "ConicOval.disk": ["center", "radius"],
    "ConicOval.unit_circle": [],
    "ConvexDomain": [],
    "ConvexDomain.contains": ["self", "pts"],
    "DoubleRatios": ["d1", "d2"],
    "Flag": ["point", "line"],
    "Flag.from_json": ["data"],
    "Flag.rescaled": ["self", "cp", "cu", "cw"],
    "Flag.to_json": ["self"],
    "Flag.transform": ["self", "m"],
    "GoldmanLengths": ["l1", "l2", "hilbert_length"],
    "IsometryClass": ["kind", "eigenvalues", "mu", "nu", "jordan_at_larger"],
    "IsometryClass.hyperbolic": ["l1", "l2", "l3"],
    "IsometryClass.other": ["eigenvalues"],
    "IsometryClass.parabolic": [],
    "PantsBD": ["sigma1", "sigma2", "tplus", "tminus"],
    "PantsGoldman": ["boundaries", "s", "t"],
    "Polygon": ["vertices"],
    "ProjLine": ["u", "w"],
    "ProjLine.from_normal": ["normal"],
    "ProjPoint": ["coords"],
    "TorusBD": ["pants", "sigma_c1", "sigma_c2"],
    "TorusGoldman": ["b", "c", "s", "t", "u", "v"],
    "TripleRatio": ["value"],
    "all_parabolic_coords": ["s", "t"],
    "all_parabolic_recover": ["sigma1_b1", "tplus"],
    "bulge_vertex": ["y", "x", "v"],
    "bulging_configuration": ["y", "x"],
    "bulging_matrix": ["v"],
    "busemann_area": ["dom", "region", "cellsize"],
    "chord": ["dom", "x", "y"],
    "classify": ["m", "tol"],
    "double_ratios": ["e", "f", "g", "l", "tol"],
    "finsler_norm": ["dom", "x", "direction"],
    "goldman_lengths": ["c"],
    "hilbert_distance": ["dom", "x", "y"],
    "is_generic_quadruple": ["e", "f", "g", "l", "tol"],
    "is_generic_triple": ["e", "f", "g", "tol"],
    "middle_eigenvalue": ["b"],
    "one_parabolic_residuals": ["bd"],
    "pairing13": ["p", "line"],
    "pants_goldman_to_bd": ["g"],
    "quasi_hyperbolic_residual": ["bd"],
    "shear": ["e", "f", "g", "l", "i", "tol"],
    "shear_shift": ["s1", "s2", "v"],
    "stratum_codimension": ["kinds"],
    "stratum_parameters": ["surface", "kinds"],
    "tau111": ["e", "f", "g", "tol"],
    "torus_goldman_to_bd": ["g"],
    "torus_parabolic_recover": ["sigma1", "tplus"],
    "triangle_area_experiment": ["alpha", "truncation", "cellsize"],
    "triple_det": ["a", "b", "c"],
    "triple_ratio": ["e", "f", "g", "tol"],
}

# public attributes of the two domain classes
DOMAIN_ATTRIBUTES = {
    "ConicOval": ["center", "contains", "disk", "unit_circle"],
    "Polygon": ["contains", "normals", "offsets", "vertices"],
}

SUBCOMMANDS = ["area", "bulge", "classify", "convert", "distance", "invariants", "sweep"]

OPTIONS = {
    "area": ["--alphas", "--cellsize", "--help", "--truncation", "-h"],
    "bulge": ["--format", "--help", "--input", "--tol", "-h"],
    "classify": ["--format", "--help", "--input", "--tol", "-h"],
    "convert": ["--format", "--help", "--input", "-h"],
    "distance": ["--format", "--help", "--input", "-h"],
    "invariants": ["--format", "--help", "--input", "--tol", "-h"],
    "sweep": ["--boundary", "--help", "--input", "--steps", "-h"],
}


def test_public_names():
    names = sorted(
        name for name in dir(pk)
        if not name.startswith("_") and not isinstance(getattr(pk, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_signatures():
    signatures = {}
    for name in PUBLIC_NAMES:
        obj = getattr(pk, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        signatures[name] = list(inspect.signature(obj).parameters)
        if isinstance(obj, type):
            for attr in vars(obj):
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    method = getattr(obj, attr)
                    signatures[f"{name}.{attr}"] = list(inspect.signature(method).parameters)
    assert signatures == SIGNATURES


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(name for name, params in SIGNATURES.items()
                                        if "tol" in params))
def test_every_tolerance_is_positive_and_finite(name, tol):
    """Every public tol setting is refused unless positive and finite; the other
    arguments are valid: generic flags, shear index 1, the identity matrix."""
    e, f, g, l = random_generic_quadruple(np.random.default_rng(5))
    valid = {"e": e, "f": f, "g": g, "l": l, "i": 1, "m": np.eye(3)}
    args = {param: valid[param] for param in SIGNATURES[name] if param != "tol"}
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        getattr(pk, name)(**args, tol=tol)


def test_domain_attributes():
    for dom in (pk.ConicOval.unit_circle(), pk.Polygon([[0, 0], [1, 0], [0, 1]])):
        names = sorted(name for name in dir(dom) if not name.startswith("_"))
        assert names == DOMAIN_ATTRIBUTES[type(dom).__name__]


def _subparsers():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_cli_subcommands():
    assert sorted(_subparsers()) == SUBCOMMANDS


def test_cli_options():
    options = {
        name: sorted(opt for a in p._actions for opt in a.option_strings)
        for name, p in _subparsers().items()
    }
    assert options == OPTIONS
