"""Projective-linear primitives in RP^2: points, lines, flags and pairings.

Points and lines are stored through explicit representatives (a 3-vector,
resp. an ordered spanning pair of 3-vectors).  All invariants built on top
of these primitives are ratios of determinants and therefore do not depend
on the choice of representative; genericity tests normalize representatives
first so a single tolerance is meaningful for arbitrarily scaled input.
"""

import itertools
import math

from .errors import _check_tol, _freezer, _matrix_rows, _read_reals, _Record

# Tolerance used when checking transversality determinants of unit-normalized
# representatives.  Callers may always pass their own.
DEFAULT_GENERICITY_TOL = 1e-12

# Tolerance for a flag's incidence residual det(p, u, w), relative to the magnitudes of its
# six terms, which diagonal maps scale as they do it, plus |p| |u x w|, a general map's rounding.
DEFAULT_INCIDENCE_TOL = 1e-9

# Range of the largest cross-product term |u_i w_j| + |u_j w_i| in which a line's
# normal is u x w as given: no term overflows, and the largest lies far above the
# subnormal range.  Outside it, u and w are first scaled by powers of two.
_TERM_RANGE = (2.0**-900, 2.0**900)

# Range of the largest |component| of a normal that ``ProjLine.from_normal`` uses as
# given: its spanning vectors, of sizes |n| and |n|^2, neither underflow nor overflow.
# Outside it, n is first scaled by a power of two.
_NORMAL_RANGE = (2.0**-500, 2.0**500)


def _cross(a, b) -> tuple:
    """Cross product a x b of two float 3-tuples, by components in numpy's order of operations."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _terms(a, b) -> tuple:
    """|a_i b_j| + |a_j b_i| for each component of a x b: the size its rounding is relative to."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (abs(a1 * b2) + abs(a2 * b1), abs(a2 * b0) + abs(a0 * b2),
            abs(a0 * b1) + abs(a1 * b0))


def _dot(a, b) -> float:
    """a . b of two float 3-tuples: the three rounded products, summed exactly and rounded once.

    ``math.fsum`` refuses a sum of opposite infinities or one that overflows on the
    way; there the plain left-to-right sum gives numpy's inf or nan.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    try:
        return math.fsum((a0 * b0, a1 * b1, a2 * b2))
    except (ValueError, OverflowError):
        return a0 * b0 + a1 * b1 + a2 * b2


def _norm(v) -> float:
    """Euclidean norm of a 3-vector; ``math.hypot`` scales, so it never overflows."""
    return math.hypot(*v)


def _unit_scaled(v) -> tuple:
    """v times the power of two that brings its largest |component| into [0.5, 1); exact
    except for components that fall below the normal range."""
    e = math.frexp(max(map(abs, v)))[1]
    return tuple(math.ldexp(x, -e) for x in v)


def _as_vector(coords, what: str) -> tuple:
    """The three coordinates as a tuple of Python floats, or ValueError.

    A list or tuple of three ints or floats, all finite, is read directly;
    anything else goes through ``np.asarray(coords, dtype=float)`` and its
    shape and finiteness checks, whose messages print that array.
    """
    c = _read_reals(coords)
    if c is not None and math.isfinite(c[0]) and math.isfinite(c[1]) and math.isfinite(c[2]):
        return c
    import numpy as np

    v = np.asarray(coords, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{what} needs exactly 3 coordinates, got shape {v.shape}")
    c = tuple(v.tolist())
    if not all(map(math.isfinite, c)):
        raise ValueError(f"{what} has non-finite coordinates: {v}")
    return c


_array3 = _freezer(3)


# ProjPoint and ProjLine use slots: without an instance dict, and with their float
# tuples the only containers they hold, building many flags triggers fewer
# collections of the cyclic garbage collector.
class ProjPoint(_Record, eq=False):
    """A point of RP^2, stored as a nonzero homogeneous representative.

    The components are kept as a tuple of Python floats, which the kernels
    read; ``v`` is a read-only float64 array of the same numbers, built on access.
    """

    __slots__ = _fields = ("_c", "_size")  # _size is |c|

    def __init__(self, coords):
        c = _as_vector(coords, "projective point")
        if not any(c):
            raise ValueError("projective point cannot be the zero vector")
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_size", _norm(c))

    @property
    def v(self):
        return _array3(self._c)

    def __repr__(self):
        return f"ProjPoint({list(self._c)})"


class ProjLine(_Record, eq=False):
    """A line of RP^2, stored as an ordered pair of spanning 3-vectors.

    The line is the scale class of the wedge ``u ^ v``; ``normal`` is the
    cross product, whose direction is the Euclidean normal of the plane.  It
    is ``u x w`` unless the largest term of that product leaves
    ``_TERM_RANGE``; then it is the cross product of u and w scaled by powers
    of two, a positive multiple of ``u x w``.  The kernels read the stored
    float tuples; ``u``, ``w`` and ``normal`` are read-only float64 arrays of
    them, built on access.
    """

    # _size is |_n|; _terms are the |u_i w_j| + |u_j w_i| of the pair whose cross product is _n
    __slots__ = _fields = ("_u", "_w", "_n", "_size", "_terms")

    def __init__(self, u, w):
        """The line spanned by u and w; ValueError if each component of ``u x w`` cancels
        to within 1e-12 of its terms ``|u_i w_j| + |u_j w_i|``, the size its rounding is
        relative to.  Diagonal maps and permutations scale a component and its terms alike,
        so they keep a line however near parallel they bring u and w (bulging does)."""
        u = _as_vector(u, "line spanning vector")
        w = _as_vector(w, "line spanning vector")
        pair = (u, w)
        terms = _terms(u, w)
        if not _TERM_RANGE[0] <= max(terms) <= _TERM_RANGE[1]:
            pair = (_unit_scaled(u), _unit_scaled(w))
            terms = _terms(*pair)
        normal = (n0, n1, n2) = _cross(*pair)
        t0, t1, t2 = terms
        if not (abs(n0) > 1e-12 * t0 or abs(n1) > 1e-12 * t1 or abs(n2) > 1e-12 * t2):
            raise ValueError("line spanning vectors must be linearly independent")
        setattr_ = object.__setattr__  # frozen
        setattr_(self, "_u", u)
        setattr_(self, "_w", w)
        setattr_(self, "_n", normal)
        setattr_(self, "_size", _norm(normal))
        setattr_(self, "_terms", terms)

    @property
    def u(self):
        return _array3(self._u)

    @property
    def w(self):
        return _array3(self._w)

    @property
    def normal(self):
        return _array3(self._n)

    @classmethod
    def from_normal(cls, normal) -> "ProjLine":
        """Line {p : normal . p = 0}, with an arbitrary spanning pair."""
        n = _as_vector(normal, "line normal")
        if not any(n):
            raise ValueError("line normal cannot be the zero vector")
        magnitudes = [abs(x) for x in n]
        if not _NORMAL_RANGE[0] <= max(magnitudes) <= _NORMAL_RANGE[1]:
            n = _unit_scaled(n)
        # any vector not parallel to n gives a first spanning vector: the axis of
        # n's smallest |component| (the first, on a tie)
        k = magnitudes.index(min(magnitudes))
        u = _cross(n, tuple(1.0 if i == k else 0.0 for i in range(3)))
        return cls(u, _cross(n, u))

    def __repr__(self):
        return f"ProjLine({list(self._u)}, {list(self._w)})"


def pairing13(p: ProjPoint, line: ProjLine) -> float:
    """Determinant pairing of a point with a line.

    Returns det of the matrix whose columns are the point representative and
    the two spanning vectors of the line, as ``p . normal``: a Python float.
    Scales multiplicatively under any rescaling of the three vectors and
    vanishes exactly when the point lies on the line.
    """
    return _dot(p._c, line._n)  # det(p, u, w) = p . (u x w)


def triple_det(a: ProjPoint, b: ProjPoint, c: ProjPoint) -> float:
    """Determinant of the matrix with columns the three point representatives."""
    return _dot(a._c, _cross(b._c, c._c))  # a . (b x c)


def _matvec(rows, c) -> tuple:
    """m c for the rows of m and a vector c, as float 3-tuples."""
    r0, r1, r2 = rows
    return (_dot(r0, c), _dot(r1, c), _dot(r2, c))


def _scaled(s, c) -> tuple:
    """s c for a scalar s and a float 3-tuple c."""
    return (s * c[0], s * c[1], s * c[2])


class Flag(_Record, eq=False):
    """A point of RP^2 together with a projective line through it."""

    _fields = ("point", "line")

    def __init__(self, point, line):
        if not isinstance(point, ProjPoint):
            point = ProjPoint(point)
        if not isinstance(line, ProjLine):
            line = ProjLine(*line)
        residual = pairing13(point, line)
        (p0, p1, p2), (t0, t1, t2) = point._c, line._terms
        scale = abs(p0) * t0 + abs(p1) * t1 + abs(p2) * t2 + point._size * line._size
        if not _vanishes(residual, scale, DEFAULT_INCIDENCE_TOL):
            raise ValueError(f"flag point does not lie on its line (residual {residual:g})")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "line", line)

    @classmethod
    def _incident(cls, point: ProjPoint, line: ProjLine) -> "Flag":
        """A flag incident by construction, as the image of one is: not checked."""
        flag = object.__new__(cls)
        object.__setattr__(flag, "point", point)
        object.__setattr__(flag, "line", line)
        return flag

    def transform(self, m) -> "Flag":
        """Image of the flag under an invertible 3x3 matrix, read by ``_matrix_rows``."""
        rows = _matrix_rows(m, "transform needs a 3x3 matrix")
        line = self.line
        return Flag._incident(
            ProjPoint(_matvec(rows, self.point._c)),
            ProjLine(_matvec(rows, line._u), _matvec(rows, line._w)))

    def rescaled(self, cp: float, cu: float, cw: float) -> "Flag":
        """Same flag with representatives rescaled by nonzero scalars."""
        line = self.line
        return Flag._incident(
            ProjPoint(_scaled(cp, self.point._c)),
            ProjLine(_scaled(cu, line._u), _scaled(cw, line._w)))

    def to_json(self) -> dict:
        return {
            "point": list(self.point._c),
            "line": [list(self.line._u), list(self.line._w)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Flag":
        return cls(ProjPoint(data["point"]), ProjLine(*data["line"]))

    def __repr__(self):
        return f"Flag({self.point!r}, {self.line!r})"


def _vanishes(value: float, scale: float, tol: float) -> bool:
    """Whether a determinant ``value`` is at most ``tol`` times ``scale``: for the
    genericity rule the product of the stored norms of its vectors, for flag incidence
    the sum of the magnitudes of the six terms of det(p, u, w) plus |p| |u x w|.  The
    product, not the quotient, so a scale that underflows to 0 clears only a value of
    exactly 0; a NaN value never vanishes."""
    return abs(value) <= tol * scale


def _is_generic(flags, tol: float) -> bool:
    """No pairing of a point with another flag's line and no triple of points vanishes."""
    _check_tol(tol)
    for a, b in itertools.permutations(flags, 2):
        if _vanishes(pairing13(a.point, b.line), a.point._size * b.line._size, tol):
            return False
    for a, b, c in itertools.combinations([f.point for f in flags], 3):
        if _vanishes(triple_det(a, b, c), a._size * b._size * c._size, tol):
            return False
    return True


def is_generic_triple(e: Flag, f: Flag, g: Flag, tol: float = DEFAULT_GENERICITY_TOL) -> bool:
    """Whether a flag triple is generic.

    Checks every point against every other flag's line and the determinant of
    the three points, on unit-normalized representatives (unit point vectors,
    unit line bivectors), against ``tol``.
    """
    return _is_generic((e, f, g), tol)


def is_generic_quadruple(
    e: Flag, f: Flag, g: Flag, l: Flag, tol: float = DEFAULT_GENERICITY_TOL
) -> bool:
    """Quadruple analogue of :func:`is_generic_triple`.

    All 12 cross pairings and all 4 point triples must clear ``tol``.
    """
    return _is_generic((e, f, g, l), tol)
