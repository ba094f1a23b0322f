"""Areas in a conic domain, in closed form on Python floats.

A conic's Hilbert geometry is the Klein model of the hyperbolic plane, so the Busemann
area of a region in it is a hyperbolic area: a polygon region is a fan of hyperbolic
triangles (``_fan_area``), and a conic region has its area in Bulirsch's complete
elliptic integral or, when small, in a series of positive terms (``_conic_area``).  ``_area``
decides containment on what they reuse: a polygon's vertex depths, a conic's normal form.
``hilbert.busemann_area`` imports this module on its first area in a conic domain, so
that importing projkit and the other queries do not load it.
"""

import math

from .errors import NonFiniteResult
from .hilbert import ConicOval, Polygon, _contained, _depths, _eigh2


def _area(dom: ConicOval, region) -> float:
    """Busemann area of a region in a conic domain, ``busemann_area``'s hand-off: inf where
    the region touches the boundary along an arc or passes it within the margin (a cusp)."""
    if isinstance(region, Polygon):
        depths = _depths(dom, region)
        return _fan_area(dom, region, depths) if _contained(*depths) >= 0.0 else math.inf
    form = _normal_form(dom, region)
    if not _contained(_least_depth(*form)) > 0.0:
        return math.inf
    # b = inf: narrower than the float range in the domain's units, an area below underflow
    return 0.0 if form[1] == math.inf else _conic_area(*form)


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


def _normal_form(dom: ConicOval, region: ConicOval):
    """The region mapped onto the domain's unit disk and rotated to its own axes, as
    (a, b, z0, z1): the region a (y0 - z0)^2 + b (y1 - z1)^2 <= 1, a <= b."""
    c0, c1 = dom._entries[3:]
    g00, g01, g11, e0, e1 = region._entries
    s0, s1, r0, r1 = _unit_frame(dom)
    # the region's form and centre in the unit disk's frame
    w00 = (r0 * g00 + r1 * g01) * r0 + (r0 * g01 + r1 * g11) * r1
    w01 = (r0 * g00 + r1 * g01) * -r1 + (r0 * g01 + r1 * g11) * r0
    w11 = (-r1 * g00 + r0 * g01) * -r1 + (-r1 * g01 + r0 * g11) * r0
    d0, d1 = e0 - c0, e1 - c1
    y0, y1 = s0 * (r0 * d0 + r1 * d1), s1 * (r0 * d1 - r1 * d0)
    # the form of a region below ~2^-500 of the domain passes the float range: it is taken
    # by 2^-600 or 2^-1200, and eigenvalues past the range come back inf
    for scale in (1.0, 2.0 ** -300, 2.0 ** -600):
        form = [w * scale / s * scale / t
                for w, s, t in ((w00, s0, s0), (w01, s0, s1), (w11, s1, s1))]
        if max(map(abs, form)) < math.inf:
            break
    a, b, v0, v1 = _eigh2(*form)
    return a / scale / scale, b / scale / scale, v0 * y0 + v1 * y1, v0 * y1 - v1 * y0


def _least_depth(a: float, b: float, z0: float, z1: float) -> float:
    """The least depth 1 - |y|^2 of the unit disk over the region a (y0 - z0)^2 +
    b (y1 - z1)^2 <= 1, a <= b: a lower bound, exact to rounding.

    The greatest 1 - depth at z + L w, |w| <= 1, L = diag(a, b)^(-1/2), is the least of the
    trust-region dual lambda + sum g_i^2 / (lambda - B_i) over lambda > 1/a, B = L^2 and
    g = L z (More & Sorensen, SIAM J. Sci. Stat. Comput. 4, 1983): every value a bound,
    so rounding can only refuse.  In lambda = 1/a + |g| nu it is least where |p| = 1, p_i =
    h_i / (nu + gap_i), h = g / |g|, gap_i = (1/a - B_i) / |g|; 1 / |p| is concave and
    increasing, so Newton's method climbs to that root from the left, from nu = |h_i| over
    the zero gaps, until a step no longer lowers the dual.  In the hard case (h_0 = 0, the
    domain's centre on the region's minor axis) with |p(0)| <= 1 the least is at nu = 0.
    """
    if not a > 0.0:
        return -math.inf  # a form singular to rounding: an axis without bound
    top, g0, g1 = 1.0 / a, z0 / math.sqrt(a), z1 / math.sqrt(b)
    rest, norm = 1.0 - (z0 * z0 + z1 * z1) - top, math.hypot(g0, g1)
    # g = 0, a centred region, leaves no terms: its least is at the ends of its major axis
    terms = [(g / norm, gap / norm) for g, gap in ((g0, 0.0), (g1, top - 1.0 / b)) if g]
    nu = math.hypot(*[h for h, gap in terms if not gap])
    least = nu + sum(h * (h / (nu + gap)) for h, gap in terms)
    while (s2 := sum((h / (nu + gap)) ** 2 for h, gap in terms)) > 1.0:
        s3 = sum((h / (nu + gap)) ** 2 / (nu + gap) for h, gap in terms)
        step = nu + (math.sqrt(s2) - 1.0) * s2 / s3
        if not (value := step + sum(h * (h / (step + gap)) for h, gap in terms)) < least:
            break
        nu, least = step, value
    return rest - norm * least


def _fan_area(dom: ConicOval, region: Polygon, depths) -> float:
    """Busemann area of a polygon in a conic, the sum of a fan of hyperbolic triangles;
    ``depths`` are the domain's at its vertices, all nonnegative.

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
    roots = [math.sqrt(q) for q in depths]

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


def _cel(kc: float, p: float, a: float, b: float) -> float:
    """Bulirsch's general complete elliptic integral, for kc > 0 and p > 0,

        cel(kc, p, a, b) = int_0^(pi/2) (a cos^2 t + b sin^2 t) dt
                           / ((cos^2 t + p sin^2 t) sqrt(cos^2 t + kc^2 sin^2 t))
                         = a K + (b - a p) (Pi(1 - p, k) - K) / (1 - p),  k^2 = 1 - kc^2,

    by Gauss's transformation (R. Bulirsch, Numer. Math. 13, 1969), so that K(k) = cel(kc,
    1, 1, 1) and E(k) = cel(kc, 1, 1, kc^2).  Each step is one of the arithmetic-geometric
    mean of 1 and kc, whose relative gap |em - kc| / em falls to its square over 8: once
    it is below sqrt(eps) = 2^-26, the step just taken leaves a gap below eps / 8.
    """
    e, em = kc, 1.0
    p = math.sqrt(p)
    b /= p
    while True:
        a, b = a + b / p, 2.0 * (b + a * (e / p))
        p, g, em = p + e / p, em, em + kc
        if abs(g - kc) <= 2.0 ** -26 * g:
            return 0.5 * math.pi * (b + a * em) / (em * (em + p))
        kc = 2.0 * math.sqrt(e)
        e = kc * em


def _conic_area(a: float, b: float, z0: float, z1: float) -> float:
    """Busemann area of a conic region strictly inside a conic domain, in closed form,
    from its normal form a (y0 - z0)^2 + b (y1 - z1)^2 <= 1, 1 < a <= b (``_normal_form``).

    The domain is the Klein model of the hyperbolic plane, here its unit disk.  The
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
    m = min(p, q), M = max(p, q) and n = (m - 1) / (M - 1), the substitution tan theta =
    sqrt(n) tan t takes it to

        4 cel(sqrt(M n / m), n, m, M n) / sqrt(m (M - 1)) - 2 pi

    in Bulirsch's integral (``_cel``), of a positive integrand, for m < 4.  It is homogeneous
    in m, M and M - 1, which are taken 1 + mu_0 times as large: 1 + mu_1, 1 + mu_2 and
    mu_2 - mu_0.  The subtraction loses log2(1 + 2 pi / area) bits to a small area: 2.9 at
    the centred disk with m = 4, of area 2 pi (2 / sqrt 3 - 1), and all of them on a thin
    region (a needle, q >> p) at any m.  From m = 4 on, and where the cel form gives less
    than that disk's area, the series

        sum_k C(2k, k) 4^-k 2 pi (pq)^(-k/2) P_{k-1}((p + q) / (2 sqrt(pq)))

    of the integrals of P^-k (P_n the Legendre polynomials, by their recurrence) takes
    over.  Its terms are positive and fall by a factor 1/m at least, so stopping at a term
    below 2^-56 min(2, m - 1) of the first leaves out less than 2^-56 of the sum, after at
    most (38.8 + log(1 / (m - 1))) / log m terms: 27 at m = 4, 22,500 (12 ms) at m = 1.002.
    Past 50,000 (m - 1 below ~9e-4, a thin region near the boundary) the cel form is kept,
    or refused (NonFiniteResult) where its bound below reaches 1 and it keeps no digit.

    Error bound: 8 eps (1 + 2 pi / area) + eps / d relative, d the least depth of the
    domain over the region; at most 60 eps + eps / d (2 pi / area < 6.5) within budget.
    The first term is a few ulp of 2 pi + area in the cel form, and of the series.  The
    second is the area's own condition near tangency, where mu_0 and mu_1 close in: one
    ulp of the region's form moves the area by up to ~eps / d.  Against the 50-digit
    references of tests/conic_areas.py the error is 0 - 4.7 eps off the boundary, 16 eps
    on an ellipse of axis ratio 10 (0.4 eps of its rounded normal form's), 2 eps on a
    needle of area 1.4e-99, and 480 eps at d = 1e-4, where an ulp of the inputs moves
    the area by 500 - 1400 eps.
    """
    big_a, big_b = a - 1.0, b - 1.0
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
        m, n = den + nu_s, nu_s / nu_l
        big = (den + nu_l) * n
        area = 4.0 * _cel(math.sqrt(big / m), n, m, big) / math.sqrt(m * nu_l) - 2.0 * math.pi
        # no more than the 2.9 bits of the centred disk at m = 4, of area 2 pi (2 / sqrt 3 - 1)
        if 2.0 * math.pi * (2.0 / math.sqrt(3.0) - 1.0) < area < math.inf:
            return area
        # past 50,000 terms of the series, the cel form while 8 eps (1 + 2 pi / area) < 1
        if (38.8 + math.log(den / nu_s)) / math.log1p(nu_s / den) > 5e4:
            if 16.0 * math.pi * 2.0 ** -52 < area < math.inf:
                return area
            raise NonFiniteResult(f"the area of the region keeps no digit: {area!r}")
    # 1 / p and 1 / q; T_k = (pq)^(-k/2) P_{k-1}(z) runs T_{k+1} = ((2k - 1) h T_k -
    # (k - 1) g T_{k-1}) / k with h = (1/p + 1/q) / 2 and g = 1 / (pq)
    xs, xl = den / (den + nu_s), den / (den + nu_l)
    h, g = 0.5 * (xs + xl), xs * xl
    before, t = 0.0, math.sqrt(xs) * math.sqrt(xl)
    coeff, k, terms = 0.5, 1, []
    stop = 2.0 ** -56 * min(2.0, nu_s / den)
    while True:
        terms.append(coeff * t)
        if terms[-1] <= stop * terms[0]:
            break
        before, t = t, ((2 * k - 1) * h * t - (k - 1) * g * before) / k
        coeff *= (2 * k + 1) / (2 * k + 2)
        k += 1
    return 2.0 * math.pi * math.fsum(terms)
