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

import math
import operator

from .errors import (HYPERBOLIC, PARABOLIC, QUASI_HYPERBOLIC, NonFiniteResult, NotUnimodular,
                     WrongClass, _check_tol, _exp, _matrix_rows, _Record, _shifted)

OTHER = "other"

# Relative tolerance for the det = 1 constraint.
DET_TOL = 1e-9

# Base tolerance for eigenvalue clustering and rank decisions.  A defective
# eigenvalue of multiplicity k moves like the k-th root of a perturbation of
# the matrix, so clusters of size 2 and 3 are detected at tol^(1/2) and
# tol^(1/3) scales respectively.
DEFAULT_CLASSIFY_TOL = 1e-8

_PI_3 = math.pi / 3.0


class IsometryClass(_Record):
    """Classification result with the eigen-data relevant to its kind.

    ``eigenvalues`` is populated for hyperbolic elements (descending order);
    ``mu``/``nu`` for quasi-hyperbolic ones, where ``mu`` is the repeated
    eigenvalue carrying the Jordan block and ``jordan_at_larger`` records
    whether that repeated eigenvalue is the larger of the two.
    """

    _fields = ("kind", "eigenvalues", "mu", "nu", "jordan_at_larger")

    def __init__(self, kind: str, eigenvalues: tuple | None = None, mu: float | None = None,
                 nu: float | None = None, jordan_at_larger: bool | None = None):
        setattr_ = object.__setattr__  # frozen
        setattr_(self, "kind", kind)
        setattr_(self, "eigenvalues", eigenvalues)
        setattr_(self, "mu", mu)
        setattr_(self, "nu", nu)
        setattr_(self, "jordan_at_larger", jordan_at_larger)

    @classmethod
    def hyperbolic(cls, l1: float, l2: float, l3: float) -> "IsometryClass":
        if not (l1 > l2 > l3 > 0.0):
            raise ValueError("hyperbolic eigenvalues must satisfy l1 > l2 > l3 > 0")
        product = l1 * l2 * l3
        if abs(product - 1.0) > DET_TOL * max(1.0, abs(product)):
            raise ValueError(f"hyperbolic eigenvalues must multiply to 1, got {product:g}")
        return cls(HYPERBOLIC, eigenvalues=(l1, l2, l3))

    @classmethod
    def parabolic(cls) -> "IsometryClass":
        return cls(PARABOLIC)

    @classmethod
    def other(cls, eigenvalues=None) -> "IsometryClass":
        return cls(OTHER, eigenvalues=eigenvalues)


class GoldmanLengths(_Record):
    """Logarithmic eigenvalue gaps and the Hilbert translation length."""

    _fields = ("l1", "l2", "hilbert_length")

    def __init__(self, l1: float, l2: float, hilbert_length: float):
        setattr_ = object.__setattr__  # frozen
        setattr_(self, "l1", l1)
        setattr_(self, "l2", l2)
        setattr_(self, "hilbert_length", hilbert_length)


def _unit_exponent(entries) -> int:
    """The least e >= 0 with max |entry| < 2^(e+1): entries / 2^e stay below 2 in size."""
    return max(0, math.frexp(max(map(abs, entries)))[1] - 1)


def _minors(a):
    """The nine 2x2 minors of a row-major 3x3 matrix (3i + j deletes row i, column j), and det."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    m = (a11 * a22 - a12 * a21, a10 * a22 - a12 * a20, a10 * a21 - a11 * a20,
         a01 * a22 - a02 * a21, a00 * a22 - a02 * a20, a00 * a21 - a01 * a20,
         a01 * a12 - a02 * a11, a00 * a12 - a02 * a10, a00 * a11 - a01 * a10)
    return m, a00 * m[0] - a01 * m[1] + a02 * m[2]


def _char_poly(entries):
    """(trace, minors, det, n, k) with m = n / 2^k for a row-major integer matrix n, and
    det(yI - n) = y^3 - trace y^2 + minors y - det: the trace, the sum of the principal 2x2
    minors and the determinant of n, exact integers.  Every entry is a binary fraction, so
    2^k is a common denominator; the eigenvalues of m are the roots of that cubic over 2^k.
    """
    ratios = [x.as_integer_ratio() for x in entries]
    k = max(den for _, den in ratios).bit_length() - 1
    n = [num << (k + 1 - den.bit_length()) for num, den in ratios]
    minors, det = _minors(n)
    return n[0] + n[4] + n[8], minors[0] + minors[4] + minors[8], det, n, k


def _rank(a, s: int, thr: float) -> int:
    """The number of singular values of a / 2^s above thr >= 0, exact, for a row-major integer
    3x3 matrix a.  Times 2^u, with t = (thr 2^s)^2 2^u an integer, their squares are the real
    roots of y^3 - e1 y^2 + e2 y - e3, e1, e2, e3 the sums of the squared entries and 2x2 minors
    (Cauchy-Binet) and det^2, times 2^u, 2^2u, 2^3u; by Descartes' rule of signs, the Taylor
    coefficients at t change sign once for each root above t."""
    tn, td = thr.as_integer_ratio()
    j = 2 * (s + 1 - td.bit_length())  # (thr 2^s)^2 = tn^2 2^j
    t, u = (tn * tn << j, 0) if j > 0 else (tn * tn, -j)
    minors, det = _minors(a)
    e1, e2 = sum(map(operator.mul, a, a)) << u, sum(map(operator.mul, minors, minors)) << 2 * u
    signs = [c > 0 for c in (1, 3 * t - e1, (3 * t - 2 * e1) * t + e2,
                             ((t - e1) * t + e2) * t - (det * det << 3 * u)) if c]
    return sum(map(operator.ne, signs, signs[1:]))


def _ratio(p: int, q: int) -> float:
    """p / q for integers with q > 0, rounded once; +-inf where that is past the float range."""
    try:
        return p / q
    except OverflowError:
        return math.inf if p > 0 else -math.inf


def _sqrt_ratio(p: int, q: int) -> float:
    """sqrt(p / q) for positive integers, from p / q rounded once after scaling by
    an even power of two, so that no intermediate underflows or overflows."""
    j = (p.bit_length() - q.bit_length()) >> 1
    r = p / (q << 2 * j) if j >= 0 else (p << -2 * j) / q
    # sqrt(r) lies in (0.7, 2): 2^j times it is finite exactly when j < 1024
    return math.ldexp(math.sqrt(r), j) if j < 1024 else math.inf


def _simple_root(a, b, d) -> float:
    """A simple root of x^3 - a x^2 + b x - d, with a, b and d of size <= 1.

    With x = y + a/3 the cubic is y^3 + p y + q.  With three real roots (h <= 0)
    the root is the one farthest from the other two, from the trigonometric form,
    otherwise Cardano's real root, taken without cancellation.  One Newton step
    follows, taken only when it is small against the distance to the nearest other
    root: near a double root it would be of the order of that distance.
    """
    s = a / 3.0
    p = b - a * s
    q = (b - 2.0 * s * s) * s - d
    h = 0.25 * q * q + p * p * p / 27.0
    if h <= 0.0:
        # p >= 0 here only when p^3 underflows: the roots are then s to working precision
        r = math.sqrt(-p / 3.0) if p < 0.0 else 0.0
        if r == 0.0:
            return s
        # |q / 2| <= r^3 here; dividing by r three times cannot underflow to a zero divisor
        phi = math.acos(max(-1.0, min(1.0, -0.5 * q / r / r / r))) / 3.0
        # the roots s + 2 r cos(phi - 2 pi k / 3) descend in k; their gaps to the middle one
        # are 2 sqrt(3) r sin(pi/3 - phi) above it (k = 0) and 2 sqrt(3) r sin(phi) below
        above, below = math.sin(_PI_3 - phi), math.sin(phi)
        k = 0 if above >= below else 2
        x = s + 2.0 * r * math.cos(phi - 2.0 * _PI_3 * k)
        gap = 3.4641016151377544 * r * max(above, below)
    else:
        u = math.copysign((0.5 * abs(q) + math.sqrt(h)) ** (1.0 / 3.0), -q)
        v = -p / (3.0 * u)
        # the pair sits at s - (u + v) / 2 +- i sqrt(3) (u - v) / 2
        x, gap = s + u + v, math.hypot(1.5 * (u + v), 0.8660254037844386 * (u - v))
    slope = (3.0 * x - 2.0 * a) * x + b
    step = (((x - a) * x + b) * x - d) / slope if slope else 0.0
    return x - step if 8.0 * abs(step) <= gap else x


def _cubic_roots(x1: float, trace: int, minors: int, det: int, s: int):
    """Roots of y^3 - trace y^2 + minors y - det, given 2^s x1 near a simple one, as
    ratios (num, den) of integers, den > 0: (x1, x2, x3, im), where a complex pair
    has x2 = x3 its real part and im > 0 its imaginary part, and a real one im None.

    X = 2^s x1 deflates the cubic to y^2 - sigma y + pi over the integers.  Where X is
    at least the pair's geometric mean, pi = det / X and sigma = (minors - pi) / X;
    otherwise sigma = trace - X, pi = minors - X sigma, and x1 = det / pi in turn.
    Either way nothing cancels, the sign of the pair's discriminant is exact, and
    each root (its square root taken to 64 bits) is left for the caller to round once.
    """
    # X = xp / xq exactly
    xp, xq = x1.as_integer_ratio()
    shift = s + 1 - xq.bit_length()
    xp, xq = (xp << shift, 1) if shift >= 0 else (xp, 1 << -shift)
    # sigma over xq and pi over xq^2, from trace and minors
    sigma = trace * xq - xp
    pi = minors * xq * xq - xp * sigma
    if xp * xp >= abs(pi) and xp:
        # sigma and pi over xp^2, from minors and det
        den = xp * xp
        sigma, pi = (minors * xp - det * xq) * xq, det * xq * xp
        root = (xp, xq)
    else:
        den = xq * xq
        sigma *= xq
        root = (det * den, pi) if pi > 0 else (-det * den, -pi) if pi else (xp, xq)
    # the pair is (sigma +- sqrt(disc)) / (2 den), with sqrt(disc) = r / 2^j to 64 bits
    disc = sigma * sigma - 4 * pi * den
    t = (abs(disc).bit_length() >> 1) - 64
    if t > 0:
        r, j = math.isqrt(abs(disc) >> 2 * t) << t, 0
    else:
        r, j = math.isqrt(abs(disc) << -2 * t), -t
    half = den << (j + 1)
    if disc < 0:
        re = (sigma << j, half)
        return root, re, re, (r, half)
    # the root of larger size takes no cancellation, and Vieta gives the other
    n = (sigma << j) + (r if sigma >= 0 else -r)
    if n == 0:
        return root, (0, 1), (0, 1), None
    x3 = (pi << (j + 1), n) if n > 0 else (-(pi << (j + 1)), -n)
    return root, (n, half), x3, None


def classify(m, tol: float = DEFAULT_CLASSIFY_TOL) -> IsometryClass:
    """Classify an SL(3,R) element as hyperbolic / quasi-hyperbolic / parabolic / other.

    ``tol`` drives all structural thresholds, each in units of
    ``max(1, ||m||_F)``: singular values below ``tol`` are treated as zero in
    rank tests, eigenvalue pairs within ``sqrt(tol)`` are treated as repeated
    (a complex pair that close to the real axis counts as its real part twice),
    and triples within ``tol^(1/3)`` of 1 are candidates for the parabolic class.

    Raises :class:`NotUnimodular` when det(m) deviates from 1 by more than
    ``DET_TOL`` relatively, and ValueError unless ``tol`` is positive and finite.

    It is scalar Python arithmetic throughout, on m read by ``errors._matrix_rows``: the
    characteristic polynomial over exact integers, its roots as ratios of integers (one
    float root, the rest from exact deflation), each rounded once, ||m||_F from one
    hypot on m / c, c >= 1 a power of two, so that nothing overflows, and exact rank tests.
    """
    _check_tol(tol)
    entries = [x for row in _matrix_rows(m, "expected a 3x3 matrix") for x in row]
    if not all(map(math.isfinite, entries)):
        raise ValueError("matrix has NaN or infinite entries")
    e = _unit_exponent(entries)
    c = math.ldexp(1.0, e)
    ci = 1.0 / c
    # ||m / c||_F: every entry of m / c is below 2 in size, so nothing overflows
    frob = math.hypot(*(x * ci for x in entries))
    trace, minors, det, n, k = _char_poly(entries)
    d = det / (1 << 3 * (k + e))  # det(m / c), correctly rounded

    # det gate |det m - 1| <= DET_TOL max(1, ||m||_F^2), divided through by c^3: an
    # entrywise perturbation of size eps moves the determinant by ~ eps ||m||^2
    ci3 = ci * ci * ci
    if abs(d - ci3) > DET_TOL * max(ci3, frob * frob * ci):
        raise NotUnimodular(f"determinant {d * c * c * c:.12g} is not 1 within tolerance")

    # the thresholds of max(1, ||m||_F), in units of c
    scale = max(ci, frob)
    rank_thr = tol * scale
    pair_tol = math.sqrt(tol) * scale
    triple_tol = tol ** (1.0 / 3.0) * scale

    # the float root in units of 2^s, the size of the roots (within a factor 6): no
    # coefficient exceeds 1, and the largest root does not underflow against c
    s = max(trace.bit_length(), (minors.bit_length() + 1) >> 1, (det.bit_length() + 2) // 3)
    x1 = _simple_root(trace / (1 << s), minors / (1 << 2 * s), det / (1 << 3 * s))
    *roots, im = _cubic_roots(x1, trace, minors, det, s)
    # each root rounded once from its exact ratio: in units of c, where none
    # overflows, for the decisions, and in units of 1 for the report
    l1, l2, l3 = [_ratio(n, q << (k + e)) for n, q in roots]
    li = _ratio(im[0], im[1] << (k + e)) if im else 0.0

    # Full Jordan block at eigenvalue 1: rank(m - I) = 2 and rank((m - I)^2) = 1.
    # The second rank test separates true unipotents from nearby diagonalizable
    # matrices whose spectrum merely clusters at 1 within triple_tol.
    if max(abs(l1 - ci), math.hypot(l2 - ci, li), math.hypot(l3 - ci, li)) <= triple_tol:
        # (m - I) / c = a / 2^(k+e), and its square a @ a / 2^(2k+2e) is held to rank_thr / c
        a = [x - (1 << k) * (i % 4 == 0) for i, x in enumerate(n)]
        if _rank(a, k + e, rank_thr) == 2:
            a2 = [r[0] * col[0] + r[1] * col[1] + r[2] * col[2]
                  for r in (a[0:3], a[3:6], a[6:9]) for col in (a[0::3], a[1::3], a[2::3])]
            if _rank(a2, 2 * k + e, rank_thr) == 1:
                return IsometryClass.parabolic()

    if li > pair_tol:
        real, re, imag = [_ratio(n, q << k) for n, q in (roots[0], roots[1], im)]
        eig = (complex(re, imag), complex(re, -imag), complex(real))
        return IsometryClass.other(eigenvalues=tuple(sorted(eig, key=lambda z: -abs(z))))
    # a complex pair within pair_tol of the real axis counts as its real part twice
    vals = [_ratio(n, q << k) for n, q in roots]
    (l1, l2, l3), vals, roots = zip(*sorted(zip((l1, l2, l3), vals, roots), reverse=True))
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
        mean, nu, j = 0.5 * (l1 + l2), l3, 2
    else:
        mean, nu, j = 0.5 * (l2 + l3), l1, 0
    if abs(mean - nu) <= pair_tol:
        # near-triple spectrum away from 1; det 1 rules out an exact instance
        return IsometryClass.other(eigenvalues=vals)

    # A Jordan block at mu leaves exactly one singular value of m - mu*I near
    # zero, and the block structure suppresses the O(sqrt(eps)) eigenvalue
    # split to O(eps) there, so the plain rank threshold is reliable.
    # m / c - mean I = (q n - p 2^(k+e) I) / (2^(k+e) q), for mean = p / q
    p, q = mean.as_integer_ratio()
    a = [x * q - (p << (k + e)) * (i % 4 == 0) for i, x in enumerate(n)]
    jordan_rank = _rank(a, k + e + q.bit_length() - 1, rank_thr)
    if jordan_rank == 2:
        # mu^2 = det m / nu = (det / 2^3k) / (n / (q 2^k)), exact until the one rounding
        n, q = roots[j]
        mu = _sqrt_ratio(det * q, n << 2 * k)
        return IsometryClass(QUASI_HYPERBOLIC, mu=mu, nu=vals[j], jordan_at_larger=mu > vals[j])
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


def _bulge_entry(v: float, k: float, y: float = 1.0) -> float:
    """e^{kv} y, raising NonFiniteResult where it leaves the float range: where it
    overflows, or underflows to 0 from a nonzero y."""
    r = _exp(k * v) * y
    if not math.isfinite(r) or (r == 0.0 and y != 0.0):
        raise NonFiniteResult(f"bulging by v = {v!r} leaves the float range")
    return r


def _bulging_diagonal(v: float) -> tuple:
    """The diagonal (e^-v, e^2v, e^-v) of the bulging matrix, as floats."""
    a = _bulge_entry(v, -1.0)
    return (a, _bulge_entry(v, 2.0), a)


def bulging_matrix(v: float):
    """Bulging deformation along a geodesic, in its adapted basis.

    The basis is l(-inf) = (1,0,0), l_perp = (0,1,0), l(inf) = (0,0,1); the
    deformation is diag(e^-v, e^2v, e^-v), a float64 array.  Raises
    NonFiniteResult where an entry overflows or underflows to 0 (v >= 354.9
    or v <= -372.6).
    """
    import numpy as np

    return np.diag(_bulging_diagonal(v))


def bulge_vertex(y: float, x: float, v: float):
    """Image (1, e^{3v} y, x) of the right-side triangle vertex (1, y, x), a float64 array.

    Raises NonFiniteResult where e^{3v} y overflows, or underflows to 0 from a
    nonzero y.
    """
    import numpy as np

    return np.array([1.0, _bulge_entry(v, 3.0, y), x])


def shear_shift(s1: float, s2: float, v: float) -> tuple:
    """Shear coordinates after bulging by v: (s1 - 3v, s2 + 3v).

    The sum s1 + s2 is unchanged and the difference s2 - s1 grows by 6v.  Raises
    NonFiniteResult where a shear is not finite: where it overflows, or from a
    NaN or infinite argument.
    """
    shifted = _shifted(s1, s2, v)
    if not (math.isfinite(shifted[0]) and math.isfinite(shifted[1])):
        raise NonFiniteResult(f"the shears bulged by v = {v!r} are not finite")
    return shifted


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
    from .rp2 import Flag, ProjLine, ProjPoint  # here only: classify does not load rp2
    e = Flag(ProjPoint([1.0, 0.0, 0.0]), ProjLine([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
    f = Flag(ProjPoint([0.0, 0.0, 1.0]), ProjLine([0.0, 0.0, 1.0], [0.0, 1.0, 0.0]))
    g = Flag(ProjPoint([1.0, -y, x]), ProjLine.from_normal([x, 2.0 * x / y, 1.0]))
    l = Flag(ProjPoint([1.0, y, x]), ProjLine.from_normal([x, -2.0 * x / y, 1.0]))
    return e, f, g, l
