"""Triangle invariant and double ratios of generic flag tuples.

All invariants are ratios of determinant pairings and are invariant under
rescaling any representative and under a common projective transformation of
all flags.  Signs are kept exactly as they come out of the determinants: the
invariants are positive for configurations arising from convex structures in
the expected order, and positivity is checked at log time, never assumed.
"""

import math

from .errors import NonGenericFlags, NonPositiveRatio, _check_tol, _Record
from .rp2 import DEFAULT_GENERICITY_TOL, Flag, _vanishes, pairing13, triple_det


class TripleRatio(_Record):
    """Multiplicative triangle invariant of a generic flag triple."""

    _fields = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)


class DoubleRatios(_Record):
    """The two multiplicative edge invariants of a generic flag quadruple."""

    _fields = ("d1", "d2")

    def __init__(self, d1: float, d2: float):
        setattr_ = object.__setattr__  # frozen
        setattr_(self, "d1", d1)
        setattr_(self, "d2", d2)


def _denominator(value: float, scale: float, tol: float, what: str) -> float:
    """A denominator that clears the unit-representative rule, or NonGenericFlags."""
    if _vanishes(value, scale, tol):
        raise NonGenericFlags(f"vanishing {what}")
    return value


def _positive_log(value: float, i: int = 0) -> float:
    """log T (i = 0) or log D_i, or NonPositiveRatio when that ratio is not positive."""
    if not value > 0.0:
        what = f"double ratio D{i}" if i else "triangle invariant"
        raise NonPositiveRatio(f"{what} is not positive: {value:g}")
    return math.log(value)


def _triple_ratio(e: Flag, f: Flag, g: Flag, tol: float) -> float:
    """T of :func:`triple_ratio` as a float, each denominator checked before the next factor."""
    _check_tol(tol)
    e1, f1, g1 = e.point, f.point, g.point
    return (
        pairing13(f1, e.line)
        / _denominator(pairing13(f1, g.line), f1._size * g.line._size, tol, "pairing f1^g2")
        * pairing13(e1, g.line)
        / _denominator(pairing13(e1, f.line), e1._size * f.line._size, tol, "pairing e1^f2")
        * pairing13(g1, f.line)
        / _denominator(pairing13(g1, e.line), g1._size * e.line._size, tol, "pairing e2^g1")
    )


def triple_ratio(e: Flag, f: Flag, g: Flag, tol: float = DEFAULT_GENERICITY_TOL) -> TripleRatio:
    """Triangle invariant T of a generic triple of flags.

    The product of six pairings
    (e2^f1)/(f1^g2) * (e1^g2)/(e1^f2) * (f2^g1)/(e2^g1),
    where ``x1`` is the point and ``x2`` the line of the flag ``X`` and each
    pairing is a determinant of representatives.  Factors are multiplied and
    divided alternately so extreme inputs do not overflow intermediates.

    Raises :class:`NonGenericFlags` if a denominator pairing vanishes within
    ``tol`` on unit-normalized representatives.
    """
    return TripleRatio(_triple_ratio(e, f, g, tol))


def tau111(e: Flag, f: Flag, g: Flag, tol: float = DEFAULT_GENERICITY_TOL) -> float:
    """log of the triangle invariant.

    Raises :class:`NonPositiveRatio` when T <= 0, which signals flags that do
    not come from a convex structure in the given vertex order.
    """
    return _positive_log(_triple_ratio(e, f, g, tol))


def _double_ratios(e: Flag, f: Flag, g: Flag, l: Flag, tol: float) -> tuple:
    """(D1, D2) as floats, after all four denominators of :func:`double_ratios` are checked."""
    _check_tol(tol)
    e1, f1, g1, l1 = e.point, f.point, g.point, l.point
    ef = e1._size * f1._size  # |e1| |f1| |l1| and |e1| |f1| |g1| are taken left to right
    efl = _denominator(triple_det(e1, f1, l1), ef * l1._size, tol, "determinant e1^f1^l1")
    efg = _denominator(triple_det(e1, f1, g1), ef * g1._size, tol, "determinant e1^f1^g1")
    fg = _denominator(pairing13(g1, f.line), g1._size * f.line._size, tol, "pairing f2^g1")
    el = _denominator(pairing13(l1, e.line), l1._size * e.line._size, tol, "pairing e2^l1")
    return (-(efg / efl) * (pairing13(l1, f.line) / fg),
            -(pairing13(g1, e.line) / el) * (efl / efg))


def double_ratios(
    e: Flag, f: Flag, g: Flag, l: Flag, tol: float = DEFAULT_GENERICITY_TOL
) -> DoubleRatios:
    """The two double ratios D1, D2 of a generic flag quadruple.

    D1 = -[ (e1^f1^g1)/(e1^f1^l1) ] * [ (f2^l1)/(f2^g1) ]
    D2 = -[ (e2^g1)/(e2^l1) ] * [ (e1^f1^l1)/(e1^f1^g1) ]

    with the leading minus signs kept verbatim.
    """
    return DoubleRatios(*_double_ratios(e, f, g, l, tol))


def shear(
    e: Flag, f: Flag, g: Flag, l: Flag, i: int, tol: float = DEFAULT_GENERICITY_TOL
) -> float:
    """i-th shear invariant log D_i along the oriented leaf (i is 1 or 2)."""
    if i not in (1, 2):
        raise ValueError("shear index must be 1 or 2")
    return _positive_log(_double_ratios(e, f, g, l, tol)[i - 1], i)
