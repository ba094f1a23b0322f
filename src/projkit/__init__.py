"""projkit: flag invariants, Hilbert metric, and coordinate conversions
for convex real projective structures on the pair of pants and the
once-punctured torus.

``import projkit`` loads only ``projkit.errors``.  The first access to any
other public name (or ``dir(projkit)``, or ``from projkit import *``) loads
the five layers ``rp2``, ``invariants``, ``isometry``, ``hilbert`` and
``coords`` and binds their public names here, once.  A layer named as an
attribute (``projkit.hilbert``, ``from projkit import hilbert``) loads that
layer and what it imports, nothing more, so ``python -m projkit <command>``
loads only the layers the command calls.
"""

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

__version__ = "0.1.0"


def _bind() -> None:
    """Import the five layers and bind their public names in this namespace."""
    # every layer at once, not one layer per name: bench/tracing.py wraps the functions it
    # finds in vars(projkit), so the first public name must bind them all; and bench/probe.py's
    # cli set-up binds them all, so no layer may import numpy at module level
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

    globals().update(locals())


def __getattr__(name: str):
    # reached only for a name not yet in this namespace; a layer's own name loads only
    # that layer, since ``from . import isometry`` in projkit.cli asks for it here first.
    # The interpreter's own import binds the layer here, and -X importtime reports it
    if name in ("rp2", "invariants", "isometry", "hilbert", "coords"):
        __import__(f"{__name__}.{name}")
    else:
        _bind()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    _bind()
    return sorted(globals())
