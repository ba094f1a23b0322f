"""The public surface: names exported by the projkit namespace and the CLI subcommands.

A change that adds, renames or removes one of them has to change this file.
"""

import argparse
import types

import projkit as pk
from projkit import cli

PUBLIC_NAMES = [
    "BoundaryData", "Chord", "CoincidentPoints", "ComplexEigenvalues", "ConicOval",
    "ConvexDomain", "DoubleRatios", "Flag", "GoldmanLengths", "InconsistentStratum",
    "IsometryClass", "NonGenericFlags", "NonPositiveParameter", "NonPositiveRatio",
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

SUBCOMMANDS = ["area", "bulge", "classify", "convert", "distance", "invariants", "sweep"]


def test_public_names():
    names = sorted(
        name for name in dir(pk)
        if not name.startswith("_") and not isinstance(getattr(pk, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_cli_subcommands():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == SUBCOMMANDS
