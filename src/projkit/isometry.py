"""Classification of SL(3,R) elements and the bulging deformation.

The trichotomy implemented here:

* hyperbolic: three distinct positive real eigenvalues l1 > l2 > l3 > 0;
* quasi-hyperbolic: a repeated positive eigenvalue mu carrying a nontrivial
  Jordan block, plus a distinct positive eigenvalue nu (mu^2 nu = 1);
* parabolic: triple eigenvalue 1 with a full 3x3 Jordan block.

Everything else (identity, elliptic, complex or negative spectrum,
diagonalizable repeated eigenvalues) is reported as "other" rather than
rejected, so arbitrary input can be inspected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnimodular, WrongClass
from .rp2 import Flag, ProjLine, ProjPoint

HYPERBOLIC = "hyperbolic"
QUASI_HYPERBOLIC = "quasi_hyperbolic"
PARABOLIC = "parabolic"
OTHER = "other"

# Relative tolerance for the det = 1 constraint.
DET_TOL = 1e-9

# Base tolerance for eigenvalue clustering and rank decisions.  A defective
# eigenvalue of multiplicity k moves like the k-th root of a perturbation of
# the matrix, so clusters of size 2 and 3 are detected at tol^(1/2) and
# tol^(1/3) scales respectively.
DEFAULT_CLASSIFY_TOL = 1e-8


@dataclass(frozen=True)
class IsometryClass:
    """Classification result with the eigen-data relevant to its kind.

    ``eigenvalues`` is populated for hyperbolic elements (descending order);
    ``mu``/``nu`` for quasi-hyperbolic ones, where ``mu`` is the repeated
    eigenvalue carrying the Jordan block and ``jordan_at_larger`` records
    whether that repeated eigenvalue is the larger of the two.
    """

    kind: str
    eigenvalues: tuple | None = None
    mu: float | None = None
    nu: float | None = None
    jordan_at_larger: bool | None = None

    @classmethod
    def hyperbolic(cls, l1: float, l2: float, l3: float) -> "IsometryClass":
        if not (l1 > l2 > l3 > 0.0):
            raise ValueError("hyperbolic eigenvalues must satisfy l1 > l2 > l3 > 0")
        product = l1 * l2 * l3
        if abs(product - 1.0) > 1e-9 * max(1.0, abs(product)):
            raise ValueError(f"hyperbolic eigenvalues must multiply to 1, got {product:g}")
        return cls(HYPERBOLIC, eigenvalues=(l1, l2, l3))

    @classmethod
    def parabolic(cls) -> "IsometryClass":
        return cls(PARABOLIC)

    @classmethod
    def other(cls, eigenvalues=None) -> "IsometryClass":
        return cls(OTHER, eigenvalues=eigenvalues)


@dataclass(frozen=True)
class GoldmanLengths:
    """Logarithmic eigenvalue gaps and the Hilbert translation length."""

    l1: float
    l2: float
    hilbert_length: float


def _check_unimodular(m: np.ndarray, det_tol: float) -> None:
    det = float(np.linalg.det(m))
    # an entrywise perturbation of size eps moves the determinant by
    # ~ eps * ||m||^2, so the gate scales accordingly for large conjugates
    bound = det_tol * max(1.0, float(np.sum(m * m)))
    if abs(det - 1.0) > bound:
        raise NotUnimodular(f"determinant {det:.12g} is not 1 within tolerance")


def _rank(m: np.ndarray, threshold: float) -> int:
    return int(np.sum(np.linalg.svd(m, compute_uv=False) > threshold))


def classify(m, tol: float = DEFAULT_CLASSIFY_TOL, det_tol: float = DET_TOL) -> IsometryClass:
    """Classify an SL(3,R) element as hyperbolic / quasi-hyperbolic / parabolic / other.

    ``tol`` drives all structural thresholds: singular values below
    ``tol * ||m||`` are treated as zero in rank tests, eigenvalue pairs within
    ``sqrt(tol) * ||m||`` are treated as repeated, and triples within
    ``tol^(1/3) * ||m||`` of 1 are candidates for the parabolic class.

    Raises :class:`NotUnimodular` when det(m) deviates from 1 by more than
    ``det_tol`` relatively.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has NaN or infinite entries")
    _check_unimodular(m, det_tol)

    scale = max(1.0, float(np.linalg.norm(m, 2)))
    rank_thr = tol * scale
    pair_tol = math.sqrt(tol) * scale
    triple_tol = tol ** (1.0 / 3.0) * scale

    eig = np.linalg.eigvals(m)

    # Full Jordan block at eigenvalue 1: rank(m - I) = 2 and rank((m - I)^2) = 1.
    # The second rank test separates true unipotents from nearby diagonalizable
    # matrices whose spectrum merely clusters at 1 within triple_tol.
    if np.all(np.abs(eig - 1.0) <= triple_tol):
        n = m - np.eye(3)
        if _rank(n, rank_thr) == 2 and _rank(n @ n, rank_thr) == 1:
            return IsometryClass.parabolic()

    if np.any(np.abs(eig.imag) > pair_tol):
        return IsometryClass.other(eigenvalues=tuple(sorted(eig, key=lambda z: -abs(z))))

    vals = np.sort(eig.real)[::-1]
    a, b, c = (float(x) for x in vals)
    if c <= 0.0:
        return IsometryClass.other(eigenvalues=(a, b, c))

    gap_ab, gap_bc = a - b, b - c
    if min(gap_ab, gap_bc) > pair_tol:
        # ordering and positivity established above; skip the constructor's
        # product check, which is tighter than the det gate for noisy input
        return IsometryClass(HYPERBOLIC, eigenvalues=(a, b, c))

    if gap_ab <= pair_tol:
        mu, nu = 0.5 * (a + b), c
    else:
        mu, nu = 0.5 * (b + c), a
    if abs(mu - nu) <= pair_tol:
        # near-triple spectrum away from 1; det 1 rules out an exact instance
        return IsometryClass.other(eigenvalues=(a, b, c))

    # A Jordan block at mu leaves exactly one singular value of m - mu*I near
    # zero, and the block structure suppresses the O(sqrt(eps)) eigenvalue
    # split to O(eps) there, so the plain rank threshold is reliable.
    jordan_rank = _rank(m - mu * np.eye(3), rank_thr)
    if jordan_rank == 2:
        return IsometryClass(QUASI_HYPERBOLIC, mu=mu, nu=nu, jordan_at_larger=mu > nu)
    if jordan_rank == 1:
        # diagonalizable repeated eigenvalue: not an isometry of the trichotomy
        return IsometryClass.other(eigenvalues=(a, b, c))
    # eigenvalues merged by tolerance but no Jordan structure present
    if a > b > c:
        return IsometryClass(HYPERBOLIC, eigenvalues=(a, b, c))
    return IsometryClass.other(eigenvalues=(a, b, c))


def goldman_lengths(c: IsometryClass) -> GoldmanLengths:
    """Goldman length data of a hyperbolic class.

    l1 = log l1 - log l2, l2 = log l2 - log l3; the Hilbert length of the
    corresponding closed geodesic is their sum.
    """
    if c.kind != HYPERBOLIC:
        raise WrongClass(f"goldman_lengths needs a hyperbolic class, got {c.kind}")
    e1, e2, e3 = c.eigenvalues
    l1 = math.log(e1) - math.log(e2)
    l2 = math.log(e2) - math.log(e3)
    return GoldmanLengths(l1, l2, l1 + l2)


def bulging_matrix(v: float) -> np.ndarray:
    """Bulging deformation along a geodesic, in its adapted basis.

    The basis is l(-inf) = (1,0,0), l_perp = (0,1,0), l(inf) = (0,0,1); the
    deformation is diag(e^-v, e^2v, e^-v).
    """
    return np.diag([math.exp(-v), math.exp(2.0 * v), math.exp(-v)])


def bulge_vertex(y: float, x: float, v: float) -> np.ndarray:
    """Image (1, e^{3v} y, x) of the right-side triangle vertex (1, y, x)."""
    return np.array([1.0, math.exp(3.0 * v) * y, x])


def shear_shift(s1: float, s2: float, v: float) -> tuple:
    """Shear coordinates after bulging by v: (s1 - 3v, s2 + 3v).

    The sum s1 + s2 is unchanged and the difference s2 - s1 grows by 6v.
    """
    return (s1 - 3.0 * v, s2 + 3.0 * v)


def bulging_configuration(y: float = 1.0, x: float = 1.0) -> tuple:
    """The four-flag configuration adapted to a bulging geodesic.

    Returns flags (E, F, G, L): E at l(-inf) = (1,0,0) with the tangent line
    through l_perp = (0,1,0), F at l(inf) = (0,0,1) likewise, G at the
    left-side vertex (1,-y,x) and L at the right-side vertex (1,y,x), each
    carrying the tangent line at that vertex of the conic w0*w2 = (x/y^2)*w1^2
    through it.  For y = x = 1 all four flags sit on the single conic
    w0*w2 = w1^2 and both double ratios equal 1.

    Applying :func:`bulging_matrix` to the right-side flag L only (the left
    side of the picture stays put) shifts the shears by (-3v, +3v).
    """
    if y <= 0.0 or x <= 0.0:
        raise ValueError("vertex coordinates y, x must be positive")
    e = Flag(ProjPoint([1.0, 0.0, 0.0]), ProjLine([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
    f = Flag(ProjPoint([0.0, 0.0, 1.0]), ProjLine([0.0, 0.0, 1.0], [0.0, 1.0, 0.0]))
    g = Flag(ProjPoint([1.0, -y, x]), ProjLine.from_normal([x, 2.0 * x / y, 1.0]))
    l = Flag(ProjPoint([1.0, y, x]), ProjLine.from_normal([x, -2.0 * x / y, 1.0]))
    return e, f, g, l
