"""Areas in a conic domain, in closed form on Python floats.

A conic's Hilbert geometry is the Klein model of the hyperbolic plane, so the Busemann
area of a region in it is a hyperbolic area: a polygon region is a fan of hyperbolic
triangles (``_fan_area``), and a conic region has its area in Carlson's elliptic
integrals or, when small, in a series of positive terms (``_conic_area``).
``hilbert.busemann_area`` imports this module on its first area in a conic domain, so
that importing projkit and the other queries do not load it.
"""

import math

from .errors import NonFiniteResult
from .hilbert import ConicOval, Polygon, _eigh2


def _unit_frame(dom: ConicOval):
    """The linear part of the affine map y = S R^T (x - c) taking the conic onto the unit
    disk, F = R S^2 R^T: the two entries of S and the first column (r0, r1) of R.

    The rotation leaves F's smaller eigenvalue a few ulp of the larger off; a conic whose
    eigenvalues are within 2^-50 of each other's size (axes more than ~3e7 apart) has a
    form singular to rounding and raises NonFiniteResult.
    """
    f00, f01, f11 = dom._entries[:3]
    k0, k1, r0, r1 = _eigh2(f00, f01, f11)
    if not k0 > 2.0 ** -50 * k1:
        raise NonFiniteResult(f"the conic's form is singular to rounding: {dom._entries[:3]}")
    return math.sqrt(k0), math.sqrt(k1), r0, r1


def _fan_area(dom: ConicOval, region: Polygon) -> float:
    """Busemann area of a polygon in a conic, the sum of a fan of hyperbolic triangles.

    The Hilbert geometry of a conic is the Klein model of the hyperbolic plane, whose
    geodesics are straight: the polygon is the fan of triangles X Y Z on its first vertex
    X.  Each has the area 2 atan2(|det(Y - X, Z - X)| sqrt(det F), sqrt(q_X q_Y q_Z) +
    b_XY sqrt(q_Z) + b_YZ sqrt(q_X) + b_ZX sqrt(q_Y)), q the depth 1 - d^T F d at the
    offset d from the centre and b its polar form 1 - d_x^T F d_y.  It is Van Oosterom and
    Strackee's solid angle of a triangle ("The solid angle of a plane triangle", IEEE
    Trans. Biomed. Eng. 30, 1983) in Minkowski space, for the vectors (y, 1) of the unit
    disk, of Lorentz length sqrt(q) and products b.  Each term of the denominator is
    nonnegative, so a tiny triangle keeps its digits (the angle sum (E - 2) pi - sum theta
    loses them all), and an ideal vertex, q = 0, needs no case of its own: an ideal
    triangle is 2 atan2(det, 0) = pi.  The numerator is taken in the unit disk's frame, so
    that no product of coordinates leaves the float range at any scale.
    """
    f00, f01, f11, c0, c1 = dom._entries
    s0, s1, r0, r1 = _unit_frame(dom)
    (x0, x1), *rest = region._vertices
    offsets = [(v0 - c0, v1 - c1) for v0, v1 in region._vertices]
    forms = [(d0 * f00 + d1 * f01, d0 * f01 + d1 * f11) for d0, d1 in offsets]
    # the square roots of the depths, as ConicOval._depth takes them
    roots = [math.sqrt(1.0 - (p0 * d0 + p1 * d1)) for (p0, p1), (d0, d1) in zip(forms, offsets)]

    def polar(i, j):
        (p0, p1), (d0, d1) = forms[i], offsets[j]
        return 1.0 - (p0 * d0 + p1 * d1)

    # the sides X Y to the other vertices, in the unit disk's frame
    sides = [(s0 * (r0 * u0 + r1 * u1), s1 * (r0 * u1 - r1 * u0))
             for u0, u1 in ((v0 - x0, v1 - x1) for v0, v1 in rest)]
    terms = []
    for j in range(1, len(sides)):
        (y0, y1), (z0, z1) = sides[j - 1], sides[j]
        den = (roots[0] * roots[j] * roots[j + 1] + polar(0, j) * roots[j + 1]
               + polar(j, j + 1) * roots[0] + polar(j + 1, 0) * roots[j])
        terms.append(2.0 * math.atan2(abs(y0 * z1 - y1 * z0), den))
    return math.fsum(terms)


# Carlson's duplication stops where the spread of its arguments is below (3 r)^(1/6) (R_F)
# and (r / 4)^(1/6) (R_J) of their mean, r = 2^-53: the series it ends with then leaves out
# terms below r (Carlson, "Numerical computation of real or complex elliptic integrals",
# Numer. Algorithms 10, 1995)
_RF_SPREAD = (3.0 * 2.0 ** -53) ** (-1.0 / 6.0)
_RJ_SPREAD = (2.0 ** -53 / 4.0) ** (-1.0 / 6.0)


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's R_F(x, y, z) = 1/2 int_0^inf dt / sqrt((t + x)(t + y)(t + z)) by duplication
    (DLMF 19.36.1), for x, y, z >= 0, at most one of them 0."""
    mean0 = mean = (x + y + z) / 3.0
    dx, dy = mean0 - x, mean0 - y
    spread = _RF_SPREAD * max(abs(dx), abs(dy), abs(mean0 - z))
    scale = 1.0  # 4^-m
    while spread * scale >= mean:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z, mean = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (mean + lam)
        scale *= 0.25
    X, Y = dx * scale / mean, dy * scale / mean
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(mean)


def _carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """Carlson's R_J(x, y, z, p) = 3/2 int_0^inf dt / ((t + p) sqrt((t + x)(t + y)(t + z))) by
    duplication (DLMF 19.36.2), for x, y, z >= 0, at most one of them 0, and p > 0.

    Each step adds R_C(1, 1 + e) / d, d = (sqrt p + sqrt x)(sqrt p + sqrt y)(sqrt p + sqrt z)
    and e = 4^(-3m) (p - x)(p - y)(p - z) / d^2, taken as atan(t) / t, t = sqrt(e) (atanh for
    e < 0), which keeps its digits at small e where acos(sqrt(x / y)) / sqrt(y - x) does not.
    """
    mean0 = mean = (x + y + z + 2.0 * p) / 5.0
    dx, dy, dz = mean0 - x, mean0 - y, mean0 - z
    spread = _RJ_SPREAD * max(abs(dx), abs(dy), abs(dz), abs(mean0 - p))
    px, py, pz = p - x, p - y, p - z
    scale, total = 1.0, 0.0
    while spread * scale >= mean:
        sx, sy, sz, sp = math.sqrt(x), math.sqrt(y), math.sqrt(z), math.sqrt(p)
        lam = sx * sy + sx * sz + sy * sz
        d = (sp + sx) * (sp + sy) * (sp + sz)
        # each factor over d first: (p - y)(p - z) / d^2 stays below 1
        e = scale * scale * scale * px * (py / d) * (pz / d)
        t = math.sqrt(abs(e))
        rc = 1.0 if t == 0.0 else (math.atan(t) if e > 0.0 else math.atanh(t)) / t
        total += scale * rc / d
        x, y, z, p = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (p + lam)
        mean = 0.25 * (mean + lam)
        scale *= 0.25
    X, Y, Z = dx * scale / mean, dy * scale / mean, dz * scale / mean
    P = -0.5 * (X + Y + Z)
    e2 = X * Y + X * Z + Y * Z - 3.0 * P * P
    e3 = X * Y * Z + 2.0 * e2 * P + 4.0 * P * P * P
    e4 = (2.0 * X * Y * Z + e2 * P + 3.0 * P * P * P) * P
    e5 = X * Y * Z * P * P
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return scale * series / (mean * math.sqrt(mean)) + 6.0 * total


def _conic_area(dom: ConicOval, region: ConicOval) -> float:
    """Busemann area of a conic region strictly inside a conic domain, in closed form.

    The domain is the Klein model of the hyperbolic plane.  Mapped onto the unit disk and
    rotated to its axes, the region is a (y0 - z0)^2 + b (y1 - z1)^2 <= 1, 1 < a <= b.  The
    pencil E - kappa C of the two conics (C = diag(1, 1, -1)) has a self-polar triangle
    with one vertex inside, and the isometry taking that vertex to the centre gives the
    region the normal form p x^2 + q y^2 <= 1: with kappa = 1 + mu, the pencil's roots are
    mu_0 < mu_1 <= mu_2, and p, q = (1 + mu_i) / (1 + mu_0), i = 1, 2.  Its determinant is
    -(A - mu)(B - mu)(1 + mu) f(mu), A = a - 1, B = b - 1 and

        f(mu) = alpha / (A - mu) + beta / (B - mu) - mu / (1 + mu),

    alpha = a z0^2, beta = b z1^2.  f is convex below A, so Newton's method from mu = 0
    climbs to mu_0 without overshoot.  The other roots come from their sum and from
    (mu_1 - mu_0)(mu_2 - mu_0) = -(1 + mu_0)(A - mu_0)(B - mu_0) f'(mu_0), so that p - 1
    and q - 1 are taken from the pencil, not as differences of p and q: a centred disk has
    mu_0 = 0 and p - 1 = A exactly.  Where f has no root below A, or f'(mu_0) >= 0 after
    rounding, the region touches or crosses the boundary and the area is inf.

    The area is the integral round the region of cosh(rho) - 1 = 1 / sqrt(1 - R^2) - 1,
    R the Klein radius in direction theta.  With P = p cos^2 + q sin^2 = 1 / R^2,
    m = min(p, q), M = max(p, q), y = M / m and z = (M - 1) / (m - 1) it is

        4 (m R_F(0, y, z) + (M - m) / 3 R_J(0, y, z, 1)) / sqrt(m (m - 1)) - 2 pi

    in Carlson's integrals (DLMF 19.16), both terms positive, for m < 4.  From m = 4 on the
    subtraction would lose more than 3 bits to a small area, and the series

        sum_k C(2k, k) 4^-k 2 pi (pq)^(-k/2) P_{k-1}((p + q) / (2 sqrt(pq)))

    of the integrals of P^-k (P_n the Legendre polynomials, by their recurrence) takes
    over: its terms are positive and fall by a factor 1/m at least, so stopping at a term
    below 2^-55 of the first leaves out less than 2^-56 of the sum.

    Error bound: 8 eps (1 + 2 pi / area) + eps / d relative, d the least depth of the
    domain over the region.  The first term is a few ulp of 2 pi + area in the Carlson
    form (2 pi / area < 2 sqrt(pq): the area exceeds the series' first term) and a few
    ulp in the series.  The second is the area's own condition near tangency, where
    mu_0 and mu_1 close in: there one ulp of the region's form moves the area by up to
    ~eps / d.  Against the 50-digit references of tests/conic_areas.py the error is
    0.5 - 6 eps off the boundary and 480 eps at d = 1e-4, where an ulp of the inputs
    moves the area by 500 - 1400 eps.
    """
    c0, c1 = dom._entries[3:]
    g00, g01, g11, e0, e1 = region._entries
    s0, s1, r0, r1 = _unit_frame(dom)
    # the region's form and centre in the unit disk's frame
    w00 = (r0 * g00 + r1 * g01) * r0 + (r0 * g01 + r1 * g11) * r1
    w01 = (r0 * g00 + r1 * g01) * -r1 + (r0 * g01 + r1 * g11) * r0
    w11 = (-r1 * g00 + r0 * g01) * -r1 + (-r1 * g01 + r0 * g11) * r0
    d0, d1 = e0 - c0, e1 - c1
    y0, y1 = s0 * (r0 * d0 + r1 * d1), s1 * (r0 * d1 - r1 * d0)
    a, b, v0, v1 = _eigh2(w00 / s0 / s0, w01 / s0 / s1, w11 / s1 / s1)
    if b == math.inf:
        return 0.0  # narrower than the float range in the domain's units: below underflow
    if not a > 1.0:
        return math.inf
    big_a, big_b = a - 1.0, b - 1.0
    z0, z1 = v0 * y0 + v1 * y1, v0 * y1 - v1 * y0
    alpha, beta = a * z0 * z0, b * z1 * z1
    mu = 0.0
    for _ in range(200):
        ta, tb = alpha / (big_a - mu), beta / (big_b - mu)
        value = ta + tb - mu / (1.0 + mu)
        slope = ta / (big_a - mu) + tb / (big_b - mu) - 1.0 / ((1.0 + mu) * (1.0 + mu))
        if not value > 0.0:
            break
        step = mu - value / slope
        if not slope < 0.0 or not step < big_a:
            return math.inf  # no root below A: tangent or crossing within the margin
        if not step > mu:
            break
        mu = step
    den = 1.0 + mu
    # nu_i = mu_i - mu_0 in units of B: their sum and product
    total = (big_a - mu) / big_b + (big_b - mu) / big_b - (alpha + beta + mu) / big_b
    product = den * ((big_a - mu) / big_b) * ((big_b - mu) / big_b) * -slope
    if not product > 0.0:
        return math.inf
    large = 0.5 * (total + math.sqrt(max(total * total - 4.0 * product, 0.0)))
    nu_s, nu_l = product / large * big_b, large * big_b
    if nu_s < 3.0 * den:
        y, z = (den + nu_l) / (den + nu_s), nu_l / nu_s
        carlson = (den + nu_s) * _carlson_rf(0.0, y, z) + (nu_l - nu_s) / 3.0 * _carlson_rj(
            0.0, y, z, 1.0)
        return 4.0 * carlson / math.sqrt((den + nu_s) * nu_s) - 2.0 * math.pi
    # 1 / p and 1 / q; T_k = (pq)^(-k/2) P_{k-1}(z) runs T_{k+1} = ((2k - 1) h T_k -
    # (k - 1) g T_{k-1}) / k with h = (1/p + 1/q) / 2 and g = 1 / (pq)
    xs, xl = den / (den + nu_s), den / (den + nu_l)
    h, g = 0.5 * (xs + xl), xs * xl
    before, t = 0.0, math.sqrt(xs) * math.sqrt(xl)
    coeff, k, terms = 0.5, 1, []
    while True:
        terms.append(coeff * t)
        if terms[-1] <= 2.0 ** -55 * terms[0]:
            break
        before, t = t, ((2 * k - 1) * h * t - (k - 1) * g * before) / k
        coeff *= (2 * k + 1) / (2 * k + 2)
        k += 1
    return 2.0 * math.pi * math.fsum(terms)
