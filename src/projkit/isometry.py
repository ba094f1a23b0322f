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

_EYE = np.eye(3)
_TWO_PI_3 = 2.0 * math.pi / 3.0


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


def _unit_exponent(entries) -> int:
    """The least e >= 0 with max |entry| < 2^(e+1): entries / 2^e stay below 2 in size."""
    return max(0, math.frexp(max(map(abs, entries)))[1] - 1)


def _char_poly(entries, e: int):
    """(a, b, d, n, t) of det(xI - m / 2^e) = x^3 - a x^2 + b x - d.

    a is the trace, b the sum of the principal 2x2 minors, d the determinant,
    each correctly rounded; det m = n / 2^t exactly.  Every entry is a binary
    fraction n / 2^k, so over a common denominator all three are exact
    integers, and int / int rounds each once.  In floating point a conjugate
    P n P^-1 with cond(P) = kappa loses eps kappa^2 in b and d to cancellation,
    as much as a backward stable eigenvalue solver does.
    """
    ratios = [x.as_integer_ratio() for x in entries]
    k = max(den for _, den in ratios).bit_length() - 1
    n00, n01, n02, n10, n11, n12, n20, n21, n22 = [
        num << (k + 1 - den.bit_length()) for num, den in ratios]
    s = k + e
    k0 = n11 * n22 - n12 * n21
    det = n00 * k0 - n01 * (n10 * n22 - n12 * n20) + n02 * (n10 * n21 - n11 * n20)
    return ((n00 + n11 + n22) / (1 << s),
            (n00 * n11 - n01 * n10 + n00 * n22 - n02 * n20 + k0) / (1 << 2 * s),
            det / (1 << 3 * s), det, 3 * k)


def _det_ratio(n: int, t: int, *xs) -> tuple:
    """(p, q) with p / q = n / 2^t divided by the product of the floats xs, exactly."""
    p, q = n, 1 << t
    for x in xs:
        num, den = x.as_integer_ratio()
        p, q = p * den, q * num
    return p, q


def _sqrt_ratio(p: int, q: int) -> float:
    """sqrt(p / q) for positive integers, from p / q rounded once after scaling by
    an even power of two, so that no intermediate underflows or overflows."""
    j = (p.bit_length() - q.bit_length()) >> 1
    r = p / (q << 2 * j) if j >= 0 else (p << -2 * j) / q
    # sqrt(r) lies in (0.7, 2): 2^j times it is finite exactly when j < 1024
    return math.ldexp(math.sqrt(r), j) if j < 1024 else math.inf


def _symmetric_max_eigenvalue(s00, s11, s22, s01, s02, s12) -> float:
    """Largest eigenvalue of a symmetric 3x3 matrix, in closed form (trigonometric).

    With q = tr S / 3 and w the rms size of S - qI, the eigenvalues are
    q + 2w cos(phi + 2 pi k / 3), 3 phi = acos(det((S - qI) / w) / 2); the
    largest (k = 0) is well conditioned.
    """
    q = (s00 + s11 + s22) / 3.0
    d0, d1, d2 = s00 - q, s11 - q, s22 - q
    w2 = (d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (s01 * s01 + s02 * s02 + s12 * s12)) / 6.0
    if w2 == 0.0:
        return q
    w = math.sqrt(w2)
    d0, d1, d2, s01, s02, s12 = d0 / w, d1 / w, d2 / w, s01 / w, s02 / w, s12 / w
    half_det = 0.5 * (d0 * (d1 * d2 - s12 * s12) - s01 * (s01 * d2 - s12 * s02)
                      + s02 * (s01 * s12 - d1 * s02))
    return q + 2.0 * w * math.cos(math.acos(max(-1.0, min(1.0, half_det))) / 3.0)


def _newton(x, a, b, d, gap):
    """One Newton step on x^3 - a x^2 + b x - d from the root estimate x.

    The step is taken only when it is small against ``gap``, the distance to the
    nearest other root: there x is a simple root at working precision.  Near a
    double root the step is of the order of the gap and would move the pair
    together, so it is not taken.
    """
    slope = (3.0 * x - 2.0 * a) * x + b
    if slope == 0.0:
        return x
    step = (((x - a) * x + b) * x - d) / slope
    return x - step if 8.0 * abs(step) <= gap else x


def _cubic_roots(a, b, d):
    """Roots of x^3 - a x^2 + b x - d, and the divisors of the one taken by Vieta.

    The roots are three reals in descending order, or a real root and a complex
    pair (re + i im, re - i im) with im > 0.  With x = y + a/3 the cubic is
    y^3 + p y + q.  One simple root x1 comes first: with three real roots
    (h <= 0) the one farthest from the other two, from the trigonometric
    form, otherwise Cardano's real root, taken without cancellation.  It
    deflates the cubic to x^2 - sigma x + pi, and a stable quadratic gives the
    other two.  Where x1 is at least the pair's geometric mean, pi = d / x1 and
    sigma comes from b; the smaller root of the pair is then d / (x1 x2).
    Otherwise sigma = a - x1, pi = b - x1 sigma and x1 = d / pi.  Either way
    the smallest root keeps its relative accuracy, and when the spectrum is
    positive it is d / prod(divisors), so the caller can redo that quotient
    where d itself underflows.  Simple roots get one Newton step.  All
    coefficients are of size <= ~50 (entries below 2), so nothing overflows.
    """
    s = a / 3.0
    p = b - a * s
    q = (b - 2.0 * s * s) * s - d
    h = 0.25 * q * q + p * p * p / 27.0
    if h <= 0.0:
        # p >= 0 here only when p^3 underflows: the roots are then s to working precision
        r = math.sqrt(-p / 3.0) if p < 0.0 else 0.0
        if r == 0.0:
            return (s, s, s), ()
        # |q / 2| <= r^3 here; dividing by r three times cannot underflow to a zero divisor
        phi = math.acos(max(-1.0, min(1.0, -0.5 * q / r / r / r))) / 3.0
        y = [2.0 * r * math.cos(phi - _TWO_PI_3 * k) for k in (0, 1, 2)]
        gaps = [min(abs(y[k] - y[k - 1]), abs(y[k] - y[k - 2])) for k in (0, 1, 2)]
        k = max((0, 1, 2), key=gaps.__getitem__)
        x1, gap = s + y[k], gaps[k]
    else:
        u = math.copysign((0.5 * abs(q) + math.sqrt(h)) ** (1.0 / 3.0), -q)
        v = -p / (3.0 * u)
        # the pair sits at s - (u + v) / 2 +- i sqrt(3) (u - v) / 2
        x1, gap = s + u + v, math.hypot(1.5 * (u + v), 0.8660254037844386 * (u - v))
    x1 = _newton(x1, a, b, d, gap)
    sigma = a - x1
    pi = b - x1 * sigma
    large = x1 * x1 >= abs(pi) and x1 != 0.0
    vieta = ()
    if large:
        # b and d give the pair without cancellation
        pi = d / x1
        sigma = (b - pi) / x1
    elif pi != 0.0:
        # x1 is good to eps |a| only, where a and b give the pair without it
        x1, vieta = d / pi, (pi,)
    # disc = half^2 - pi in units of g^2, g the larger of |half| and sqrt |pi|,
    # so that no square underflows: for a pair far below x1 both would
    half = 0.5 * sigma
    g = max(abs(half), math.sqrt(abs(pi)))
    if g == 0.0:
        return tuple(sorted((x1, 0.0, 0.0), reverse=True)), vieta
    w = half / g
    disc = w * w - pi / g / g
    if disc < 0.0:
        im = g * math.sqrt(-disc)
        return (x1, complex(half, im), complex(half, -im)), vieta
    x2 = half + math.copysign(g * math.sqrt(disc), half)
    x3 = pi / x2 if x2 != 0.0 else 0.0
    if large and x2 != 0.0:
        vieta = (x1, x2)
    split = abs(x2 - x3)
    x2 = _newton(x2, a, b, d, min(split, abs(x2 - x1)))
    x3 = _newton(x3, a, b, d, min(split, abs(x3 - x1)))
    return tuple(sorted((x1, x2, x3), reverse=True)), vieta


def _ranks(stack: np.ndarray, thresholds) -> list:
    """Numerical ranks of a stack of matrices, each the count of its singular values
    above its threshold, from one SVD call."""
    return [sum(sv > thr for sv in row) for row, thr in
            zip(np.linalg.svd(stack, compute_uv=False).reshape(-1, 3).tolist(), thresholds)]


def classify(m, tol: float = DEFAULT_CLASSIFY_TOL, det_tol: float = DET_TOL) -> IsometryClass:
    """Classify an SL(3,R) element as hyperbolic / quasi-hyperbolic / parabolic / other.

    ``tol`` drives all structural thresholds: singular values below
    ``tol * ||m||`` are treated as zero in rank tests, eigenvalue pairs within
    ``sqrt(tol) * ||m||`` are treated as repeated, and triples within
    ``tol^(1/3) * ||m||`` of 1 are candidates for the parabolic class.

    Raises :class:`NotUnimodular` when det(m) deviates from 1 by more than
    ``det_tol`` relatively.

    Everything before the rank tests is scalar Python arithmetic on m / c,
    c >= 1 a power of two, so that nothing overflows: the characteristic
    polynomial x^3 - a x^2 + b x - d with a, b and d correctly rounded (d is
    the det gate's determinant), its roots and ||m||_2 in closed form.  The
    rank tests make one SVD call each.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    entries = m.ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise ValueError("matrix has NaN or infinite entries")
    e = _unit_exponent(entries)
    c = math.ldexp(1.0, e)
    ci = 1.0 / c
    p00, p01, p02, p10, p11, p12, p20, p21, p22 = (x * ci for x in entries)
    trace, minors, d, det, t = _char_poly(entries, e)

    # det gate |det m - 1| <= det_tol max(1, ||m||_F^2), divided through by c^3: an
    # entrywise perturbation of size eps moves the determinant by ~ eps ||m||^2
    frob2 = (p00 * p00 + p01 * p01 + p02 * p02 + p10 * p10 + p11 * p11 + p12 * p12
             + p20 * p20 + p21 * p21 + p22 * p22)
    ci3 = ci * ci * ci
    if abs(d - ci3) > det_tol * max(ci3, frob2 * ci):
        raise NotUnimodular(f"determinant {d * c * c * c:.12g} is not 1 within tolerance")

    # ||m / c||_2 from the largest eigenvalue of (m / c)^T (m / c)
    norm2 = math.sqrt(_symmetric_max_eigenvalue(
        p00 * p00 + p10 * p10 + p20 * p20, p01 * p01 + p11 * p11 + p21 * p21,
        p02 * p02 + p12 * p12 + p22 * p22, p00 * p01 + p10 * p11 + p20 * p21,
        p00 * p02 + p10 * p12 + p20 * p22, p01 * p02 + p11 * p12 + p21 * p22))
    # the thresholds of max(1, ||m||_2), in units of c
    scale = max(ci, norm2)
    rank_thr = tol * scale
    pair_tol = math.sqrt(tol) * scale
    triple_tol = tol ** (1.0 / 3.0) * scale

    roots, vieta = _cubic_roots(trace, minors, d)

    # Full Jordan block at eigenvalue 1: rank(m - I) = 2 and rank((m - I)^2) = 1.
    # The second rank test separates true unipotents from nearby diagonalizable
    # matrices whose spectrum merely clusters at 1 within triple_tol.
    if all(abs(z - ci) <= triple_tol for z in roots):
        # in units of c, (m - I)^2 is (n @ n) c^2 and its threshold stays tol ||m||
        n = (m - _EYE) * ci
        if _ranks(np.array((n, n @ n)), (rank_thr, rank_thr * ci)) == [2, 1]:
            return IsometryClass.parabolic()

    if isinstance(roots[1], complex):
        if roots[1].imag > pair_tol:
            eig = (roots[1] * c, roots[2] * c, complex(roots[0] * c))
            return IsometryClass.other(eigenvalues=tuple(sorted(eig, key=lambda z: -abs(z))))
        if roots[0] > roots[1].real:
            vieta = ()  # the real root, the one Vieta gives, is not the smallest
        roots = sorted((roots[0], roots[1].real, roots[2].real), reverse=True)
    l1, l2, l3 = roots
    vals = (l1 * c, l2 * c, l3 * c)
    if vieta and l2 > 0.0 and det > 0:
        # positive spectrum: l3 = d / prod(vieta), redone in units of 1 from the exact
        # determinant, as d = det m / c^3 underflows once c passes ~2^341 while l3
        # itself is still a normal float.  The quotient leaves the float range only
        # where underflow in a and b has already lost the roots; l3 then stays.
        p, q = _det_ratio(det, t + 2 * e, *vieta)
        if p.bit_length() - q.bit_length() < 1023:
            vals = (vals[0], vals[1], p / q)
            l3 = vals[2] * ci
    if vals[2] <= 0.0 or det <= 0:
        return IsometryClass.other(eigenvalues=vals)

    gap_12, gap_23 = l1 - l2, l2 - l3
    if min(gap_12, gap_23) > pair_tol:
        # ordering and positivity established above; skip the constructor's
        # product check, which is tighter than the det gate for noisy input
        return IsometryClass(HYPERBOLIC, eigenvalues=vals)

    # Decisions are taken at the mean of the merged pair, as the rank test always
    # was.  The reported mu is sqrt(det m / nu): the simple root nu is accurate to
    # rounding and mu^2 nu = det m keeps mu so, where the mean of a split pair is
    # good to sqrt(eps) only.
    if gap_12 <= pair_tol:
        mean, nu, k = 0.5 * (l1 + l2), l3, 2
    else:
        mean, nu, k = 0.5 * (l2 + l3), l1, 0
    if abs(mean - nu) <= pair_tol:
        # near-triple spectrum away from 1; det 1 rules out an exact instance
        return IsometryClass.other(eigenvalues=vals)

    # A Jordan block at mu leaves exactly one singular value of m - mu*I near
    # zero, and the block structure suppresses the O(sqrt(eps)) eigenvalue
    # split to O(eps) there, so the plain rank threshold is reliable.
    (jordan_rank,) = _ranks(m * ci - mean * _EYE, (rank_thr,))
    if jordan_rank == 2:
        # mu^2 = det m / nu, exact until the one rounding, with nu in units of 1
        # where it is the smallest root (in units of c it may underflow) and in
        # units of c where it is the largest (in units of 1 it may overflow)
        mu = _sqrt_ratio(*(_det_ratio(det, t, vals[2]) if k else _det_ratio(det, t + e, l1)))
        return IsometryClass(QUASI_HYPERBOLIC, mu=mu, nu=vals[k], jordan_at_larger=mu > vals[k])
    if jordan_rank == 1:
        # diagonalizable repeated eigenvalue: not an isometry of the trichotomy
        return IsometryClass.other(eigenvalues=vals)
    # eigenvalues merged by tolerance but no Jordan structure present
    if l1 > l2 > l3:
        return IsometryClass(HYPERBOLIC, eigenvalues=vals)
    return IsometryClass.other(eigenvalues=vals)


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
