"""projkit: flag invariants, Hilbert metric, and coordinate conversions
for convex real projective structures on the pair of pants and the
once-punctured torus."""

from .errors import (
    CoincidentPoints,
    ComplexEigenvalues,
    InconsistentStratum,
    NonFiniteResult,
    NonGenericFlags,
    NonPositiveParameter,
    NonPositiveRatio,
    NotUnimodular,
    PointOutsideDomain,
    ProjKitError,
    RegionNotContained,
    WrongClass,
)
from .rp2 import (
    Flag,
    ProjLine,
    ProjPoint,
    is_generic_quadruple,
    is_generic_triple,
    pairing13,
    triple_det,
)
from .invariants import DoubleRatios, TripleRatio, double_ratios, shear, tau111, triple_ratio
from .isometry import (
    GoldmanLengths,
    IsometryClass,
    bulge_vertex,
    bulging_configuration,
    bulging_matrix,
    classify,
    goldman_lengths,
    shear_shift,
)
from .hilbert import (
    Chord,
    ConicOval,
    ConvexDomain,
    Polygon,
    busemann_area,
    chord,
    finsler_norm,
    hilbert_distance,
    triangle_area_experiment,
)
from .coords import (
    BoundaryData,
    PantsBD,
    PantsGoldman,
    TorusBD,
    TorusGoldman,
    all_parabolic_coords,
    all_parabolic_recover,
    middle_eigenvalue,
    one_parabolic_residuals,
    pants_goldman_to_bd,
    quasi_hyperbolic_residual,
    stratum_codimension,
    stratum_parameters,
    torus_goldman_to_bd,
    torus_parabolic_recover,
)

__version__ = "0.1.0"
