"""Projective-linear primitives in RP^2: points, lines, flags and pairings.

Points and lines are stored through explicit representatives (a 3-vector,
resp. an ordered spanning pair of 3-vectors).  All invariants built on top
of these primitives are ratios of determinants and therefore do not depend
on the choice of representative; genericity tests normalize representatives
first so a single tolerance is meaningful for arbitrarily scaled input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Tolerance used when checking transversality determinants of unit-normalized
# representatives.  Callers may always pass their own.
DEFAULT_GENERICITY_TOL = 1e-12

# Tolerance for the incidence residual of a flag, relative to the product of
# the norms of its representatives.
DEFAULT_INCIDENCE_TOL = 1e-9


def _cross(a, b) -> np.ndarray:
    """Cross product a x b of two 3-vectors, by components in numpy's order of operations."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


# |v| in [2^-500, 2^500]: v . v neither overflows nor loses digits to underflow
_NORM_MIN, _NORM_MAX = math.ldexp(1.0, -500), math.ldexp(1.0, 500)


def _norm(v) -> float:
    """Euclidean norm of a 3-vector: sqrt(v . v), as numpy's vector norm computes it.

    Where v . v would leave the normal range, ``math.hypot`` gives the norm
    instead; it scales internally, so it neither overflows nor warns.
    """
    h = math.hypot(*v.tolist())
    return math.sqrt(v.dot(v)) if _NORM_MIN <= h <= _NORM_MAX else h


def _as_vector(coords, what: str) -> np.ndarray:
    v = np.asarray(coords, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{what} needs exactly 3 coordinates, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} has non-finite coordinates: {v}")
    return v


@dataclass(frozen=True, eq=False)
class ProjPoint:
    """A point of RP^2, stored as a nonzero homogeneous representative."""

    v: np.ndarray

    def __init__(self, coords):
        v = _as_vector(coords, "projective point")
        if not v.any():
            raise ValueError("projective point cannot be the zero vector")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    def __repr__(self):
        return f"ProjPoint({self.v.tolist()})"


@dataclass(frozen=True, eq=False)
class ProjLine:
    """A line of RP^2, stored as an ordered pair of spanning 3-vectors.

    The line is the scale class of the wedge ``u ^ v``; ``normal`` caches the
    cross product, whose direction is the Euclidean normal of the plane.
    """

    u: np.ndarray
    w: np.ndarray
    normal: np.ndarray

    def __init__(self, u, w):
        u = _as_vector(u, "line spanning vector")
        w = _as_vector(w, "line spanning vector")
        normal = _cross(u, w)
        scale = _norm(u) * _norm(w)
        if scale == 0.0 or _norm(normal) <= 1e-12 * scale:
            raise ValueError("line spanning vectors must be linearly independent")
        for name, vec in (("u", u), ("w", w), ("normal", normal)):
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)

    @classmethod
    def from_normal(cls, normal) -> "ProjLine":
        """Line {p : normal . p = 0}, with an arbitrary spanning pair."""
        n = _as_vector(normal, "line normal")
        if not n.any():
            raise ValueError("line normal cannot be the zero vector")
        # any vector not parallel to n gives a first spanning vector
        u = _cross(n, np.eye(3)[int(np.argmin(np.abs(n)))])
        return cls(u, _cross(n, u))

    def __repr__(self):
        return f"ProjLine({self.u.tolist()}, {self.w.tolist()})"


def pairing13(p: ProjPoint, line: ProjLine) -> float:
    """Determinant pairing of a point with a line.

    Returns det of the matrix whose columns are the point representative and
    the two spanning vectors of the line.  Scales multiplicatively under any
    rescaling of the three vectors and vanishes exactly when the point lies
    on the line.
    """
    return p.v @ line.normal  # det(p, u, w) = p . (u x w)


def triple_det(a: ProjPoint, b: ProjPoint, c: ProjPoint) -> float:
    """Determinant of the matrix with columns the three point representatives."""
    x, y, z = _cross(b.v, c.v)
    return a.v[0] * x + a.v[1] * y + a.v[2] * z  # a . (b x c)


@dataclass(frozen=True, eq=False)
class Flag:
    """A point of RP^2 together with a projective line through it."""

    point: ProjPoint
    line: ProjLine

    def __init__(self, point, line, tol: float = DEFAULT_INCIDENCE_TOL):
        if not isinstance(point, ProjPoint):
            point = ProjPoint(point)
        if not isinstance(line, ProjLine):
            line = ProjLine(*line)
        residual = pairing13(point, line)
        bound = tol * (_norm(point.v) * _norm(line.u) * _norm(line.w))
        if abs(residual) > bound:
            raise ValueError(
                f"flag point does not lie on its line (residual {residual:g})"
            )
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "line", line)

    def transform(self, m) -> "Flag":
        """Image of the flag under an invertible 3x3 matrix."""
        m = np.asarray(m, dtype=float)
        return Flag(
            ProjPoint(m @ self.point.v),
            ProjLine(m @ self.line.u, m @ self.line.w),
            tol=np.inf,  # exact incidence is preserved up to roundoff
        )

    def rescaled(self, cp: float, cu: float, cw: float) -> "Flag":
        """Same flag with representatives rescaled by nonzero scalars."""
        return Flag(
            ProjPoint(cp * self.point.v),
            ProjLine(cu * self.line.u, cw * self.line.w),
            tol=np.inf,
        )

    def to_json(self) -> dict:
        return {
            "point": self.point.v.tolist(),
            "line": [self.line.u.tolist(), self.line.w.tolist()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Flag":
        return cls(ProjPoint(data["point"]), ProjLine(*data["line"]))

    def __repr__(self):
        return f"Flag({self.point!r}, {self.line!r})"


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def _unit_rule(flags, tol: float):
    """The unit-representative rule for a tuple of flags, each norm taken once.

    Returns pairing(i, j) = pairing13(point i, line j) and triple(i, j, k) =
    triple_det(points i, j, k), or None where that value divided by the norms
    of its vectors (unit points, unit line bivectors) is within ``tol`` of 0.
    """
    points = [f.point for f in flags]
    pn = [_norm(p.v) for p in points]
    ln = [_norm(f.line.normal) for f in flags]

    def cleared(value, scale):
        return None if abs(value) / scale <= tol else value

    def pairing(i, j):
        return cleared(pairing13(points[i], flags[j].line), pn[i] * ln[j])

    def triple(i, j, k):
        return cleared(triple_det(points[i], points[j], points[k]), pn[i] * pn[j] * pn[k])

    return pairing, triple


def _is_generic(flags, tol: float) -> bool:
    """No pairing of a point with another flag's line and no triple of points vanishes."""
    _check_tol(tol)
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
