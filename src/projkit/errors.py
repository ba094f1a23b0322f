"""Exception taxonomy shared by all projkit modules.

Every domain failure maps to a distinct exception class so that callers
(and the CLI) can report a machine-readable error name.
"""


class ProjKitError(Exception):
    """Base class for all domain errors raised by projkit."""


class NonGenericFlags(ProjKitError):
    """A pairing in the denominator of a flag invariant vanishes."""


class NonPositiveRatio(ProjKitError):
    """A multiplicative invariant is not positive, so its log is undefined."""


class NotUnimodular(ProjKitError):
    """A matrix expected to lie in SL(3,R) has determinant away from 1."""


class WrongClass(ProjKitError):
    """An operation received an isometry class it does not apply to."""


class PointOutsideDomain(ProjKitError):
    """A point expected to be interior to a convex domain is not."""


class CoincidentPoints(ProjKitError):
    """Two points expected to be distinct coincide."""


class RegionNotContained(ProjKitError):
    """An integration region is not contained in the ambient domain."""


class ComplexEigenvalues(ProjKitError):
    """Boundary eigenvalue data has a negative discriminant."""


class NonPositiveParameter(ProjKitError):
    """A parameter that must be positive is zero or negative."""


class InconsistentStratum(ProjKitError):
    """Recovered parameters violate the constraints of the target stratum."""


class NonFiniteResult(ProjKitError):
    """A computed result is NaN or infinite, so it is not printed."""
