"""Triangle invariant and double ratios of generic flag tuples.

All invariants are ratios of determinant pairings and are invariant under
rescaling any representative and under a common projective transformation of
all flags.  Signs are kept exactly as they come out of the determinants: the
invariants are positive for configurations arising from convex structures in
the expected order, and positivity is checked at log time, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonGenericFlags, NonPositiveRatio
from .rp2 import DEFAULT_GENERICITY_TOL, Flag, _unit_rule, pairing13


@dataclass(frozen=True)
class TripleRatio:
    """Multiplicative triangle invariant of a generic flag triple."""

    value: float


@dataclass(frozen=True)
class DoubleRatios:
    """The two multiplicative edge invariants of a generic flag quadruple."""

    d1: float
    d2: float


def _denominator(value, what):
    """A value checked by the unit-representative rule, or NonGenericFlags if it vanished."""
    if value is None:
        raise NonGenericFlags(f"vanishing {what}")
    return value


def _positive_log(value: float, i: int = 0) -> float:
    """log T (i = 0) or log D_i, or NonPositiveRatio when that ratio is not positive."""
    if not value > 0.0:
        what = f"double ratio D{i}" if i else "triangle invariant"
        raise NonPositiveRatio(f"{what} is not positive: {value:g}")
    return math.log(value)


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
    pairing, _ = _unit_rule((e, f, g), tol)
    value = (
        pairing13(f.point, e.line)
        / _denominator(pairing(1, 2), "pairing f1^g2")
        * pairing13(e.point, g.line)
        / _denominator(pairing(0, 1), "pairing e1^f2")
        * pairing13(g.point, f.line)
        / _denominator(pairing(2, 0), "pairing e2^g1")
    )
    return TripleRatio(value)


def tau111(e: Flag, f: Flag, g: Flag, tol: float = DEFAULT_GENERICITY_TOL) -> float:
    """log of the triangle invariant.

    Raises :class:`NonPositiveRatio` when T <= 0, which signals flags that do
    not come from a convex structure in the given vertex order.
    """
    return _positive_log(triple_ratio(e, f, g, tol=tol).value)


def double_ratios(
    e: Flag, f: Flag, g: Flag, l: Flag, tol: float = DEFAULT_GENERICITY_TOL
) -> DoubleRatios:
    """The two double ratios D1, D2 of a generic flag quadruple.

    D1 = -[ (e1^f1^g1)/(e1^f1^l1) ] * [ (f2^l1)/(f2^g1) ]
    D2 = -[ (e2^g1)/(e2^l1) ] * [ (e1^f1^l1)/(e1^f1^g1) ]

    with the leading minus signs kept verbatim.
    """
    pairing, triple = _unit_rule((e, f, g, l), tol)
    efl = _denominator(triple(0, 1, 3), "determinant e1^f1^l1")
    efg = _denominator(triple(0, 1, 2), "determinant e1^f1^g1")
    fg = _denominator(pairing(2, 1), "pairing f2^g1")
    el = _denominator(pairing(3, 0), "pairing e2^l1")
    d1 = -(efg / efl) * (pairing13(l.point, f.line) / fg)
    d2 = -(pairing13(g.point, e.line) / el) * (efl / efg)
    return DoubleRatios(d1, d2)


def shear(
    e: Flag, f: Flag, g: Flag, l: Flag, i: int, tol: float = DEFAULT_GENERICITY_TOL
) -> float:
    """i-th shear invariant log D_i along the oriented leaf (i is 1 or 2)."""
    if i not in (1, 2):
        raise ValueError("shear index must be 1 or 2")
    d = double_ratios(e, f, g, l, tol=tol)
    return _positive_log(d.d1 if i == 1 else d.d2, i)
