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

# Tolerance for the incidence residual of a flag, relative to the product of
# the norms of its representatives.
DEFAULT_INCIDENCE_TOL = 1e-9


# Range of the largest cross-product term |u_i w_j| + |u_j w_i| in which a line's
# normal is u x w as given: no term overflows, and a normal that passes either
# independence test lies far above the subnormal range.  Outside it, u and w are
# first scaled by powers of two.
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


def _largest_term(a, b) -> float:
    """The largest |a_i b_j| + |a_j b_i| over the components of a x b."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return max(abs(a1 * b2) + abs(a2 * b1), abs(a2 * b0) + abs(a0 * b2),
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

    # _size is |_n|, _span is |u| |w| of the pair whose cross product is _n
    __slots__ = _fields = ("_u", "_w", "_n", "_size", "_span")

    def __init__(self, u, w):
        self._store(u, w, image=False)

    @classmethod
    def _mapped(cls, u, w) -> "ProjLine":
        """The image of a line under an invertible map, spanned by the images u, w."""
        line = object.__new__(cls)
        line._store(u, w, image=True)
        return line

    def _store(self, u, w, image: bool) -> None:
        """Store the line spanned by u and w, or raise ValueError if they are dependent.

        A pair given by the caller is dependent when ``|u x w| <= 1e-12 |u| |w|``:
        they are parallel to within 1e-12.  An image under ``Flag.transform`` is a
        line whatever that angle (a diagonal map such as a bulging matrix scales
        its spanning vectors apart), so it is refused only when ``u x w`` cancels
        to within 1e-12 of its largest term ``|u_i w_j| + |u_j w_i|``, the size
        its rounding is relative to: when the map was singular.
        """
        u = _as_vector(u, "line spanning vector")
        w = _as_vector(w, "line spanning vector")
        pair = (u, w)
        term = _largest_term(u, w)
        if not _TERM_RANGE[0] <= term <= _TERM_RANGE[1]:
            pair = (_unit_scaled(u), _unit_scaled(w))
            term = _largest_term(*pair)
        normal = _cross(*pair)
        size = _norm(normal)
        span = _norm(pair[0]) * _norm(pair[1])
        if size <= 1e-12 * (term if image else span):
            raise ValueError("line spanning vectors must be linearly independent")
        setattr_ = object.__setattr__  # frozen
        setattr_(self, "_u", u)
        setattr_(self, "_w", w)
        setattr_(self, "_n", normal)
        setattr_(self, "_size", size)
        setattr_(self, "_span", span)

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
        bound = DEFAULT_INCIDENCE_TOL * (point._size * line._span)
        if abs(residual) > bound:
            raise ValueError(
                f"flag point does not lie on its line (residual {residual:g})"
            )
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
            ProjLine._mapped(_matvec(rows, line._u), _matvec(rows, line._w)))

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


def _unit_rule(flags, tol: float):
    """The unit-representative rule for a tuple of flags, on the norms stored at construction.

    Returns pairing(i, j) = pairing13(point i, line j) and triple(i, j, k) =
    triple_det(points i, j, k), or None where that value is at most ``tol``
    times the norms of its vectors (unit points, unit line bivectors); the
    product, not the quotient, so norms whose product underflows to 0 clear
    only a value of exactly 0.
    """
    _check_tol(tol)
    points = [f.point for f in flags]
    pn = [p._size for p in points]
    ln = [f.line._size for f in flags]

    def cleared(value, scale):
        return None if abs(value) <= tol * scale else value

    def pairing(i, j):
        return cleared(pairing13(points[i], flags[j].line), pn[i] * ln[j])

    def triple(i, j, k):
        return cleared(triple_det(points[i], points[j], points[k]), pn[i] * pn[j] * pn[k])

    return pairing, triple


def _is_generic(flags, tol: float) -> bool:
    """No pairing of a point with another flag's line and no triple of points vanishes."""
    pairing, triple = _unit_rule(flags, tol)
    n = len(flags)
    return all(
        pairing(i, j) is not None for i, j in itertools.permutations(range(n), 2)
    ) and all(triple(*c) is not None for c in itertools.combinations(range(n), 3))


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
