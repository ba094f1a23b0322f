"""The public surface: names exported by the projkit namespace, the public
attributes of the domain classes, the CLI subcommands and the options of each.

A change that adds, renames or removes one of them has to change this file.
"""

import argparse
import inspect
import types

import projkit as pk
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

# public attributes of the two domain classes; extreme_points takes no argument
DOMAIN_ATTRIBUTES = {
    "ConicOval": ["center", "contains", "disk", "extreme_points", "unit_circle"],
    "Polygon": ["contains", "extreme_points", "normals", "offsets", "vertices"],
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


def test_domain_attributes():
    for dom in (pk.ConicOval.unit_circle(), pk.Polygon([[0, 0], [1, 0], [0, 1]])):
        names = sorted(name for name in dir(dom) if not name.startswith("_"))
        assert names == DOMAIN_ATTRIBUTES[type(dom).__name__]
        assert not inspect.signature(dom.extreme_points).parameters


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
