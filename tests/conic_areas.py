"""Reference Busemann areas of conic regions in conic domains, in decimals.

Run ``python tests/conic_areas.py`` to rewrite ``tests/conic_areas.json``, which
``test_hilbert.py`` reads.  Each conic is taken as projkit stores it, its form
A / -q_min and its centre (``ConicOval._entries``), read as exact decimals; nothing
else of projkit is used.  Everything after that is 50-digit ``decimal`` arithmetic.

A conic domain is the Klein model of the hyperbolic plane.  With C and E the 3 x 3
symmetric matrices of domain and region, the eigenvalues of C^-1 E are the roots of its
characteristic cubic, found here by bisection between its critical points.  The
eigenvector of one of them lies inside the domain (v^T C v < 0); the other two divided
by its eigenvalue are p and q, and the region is p x^2 + q y^2 <= 1 in the unit disk
after an isometry.  Its area is then the integral over theta of

    1 / sqrt(1 - 1/P) - 1 = 1 / ((P - 1) + sqrt(P (P - 1))),  P = p cos^2 + q sin^2,

in t with tan theta = sqrt(p / q) tan t, taken by the periodic midpoint rule, doubled
until two rules agree to 1e-45.  On a region off the boundary the integrand is analytic
in a strip about the real axis whose width does not shrink with p / q, so the rule
converges geometrically, on a needle (q >> p) too.
"""

import json
import pathlib
import sys
from decimal import Decimal, localcontext

PATH = pathlib.Path(__file__).with_name("conic_areas.json")
DIGITS = 50

# the cases: (name, domain, region), each {"disk": [[cx, cy], r]} or {"conic": [a, ..., f]}
UNIT = {"disk": [[0.0, 0.0], 1.0]}
ELLIPSE = {"conic": [2.309, -1.149, 1.102, -1.909, -1.611, -8.26]}
CASES = [
    ("centred disk", UNIT, {"disk": [[0.0, 0.0], 0.5]}),
    ("off-centre disk", UNIT, {"disk": [[0.3, -0.2], 0.5]}),
    ("small off-centre disk", UNIT, {"disk": [[0.2, 0.1], 0.3]}),
    ("ellipse in an ellipse", ELLIPSE, {"conic": [3.0, 1.0, 2.0, -7.5, -7.0, 8.0]}),
    ("Hilbert size 1e-6", ELLIPSE,
     {"conic": [4e12, 1e12, 2e12, -5.2e12, -5.3e12, 4479999999999.0]}),
    ("1 - 1e-4 short of tangent", UNIT, {"disk": [[0.5, 0.0], 0.5 * (1.0 - 1e-4)]}),
    # centred disks, of area 2 pi (1 / sqrt(1 - r^2) - 1): r = 0.6 has m = 2.78, and
    # r = 0.5 (1 +- 1e-3) sit on either side of _conic_area's switch at m = 4
    ("centred disk r = 0.6", UNIT, {"disk": [[0.0, 0.0], 0.6]}),
    ("centred disk r = 0.5 (1 + 1e-3)", UNIT, {"disk": [[0.0, 0.0], 0.5 * (1.0 + 1e-3)]}),
    ("centred disk r = 0.5 (1 - 1e-3)", UNIT, {"disk": [[0.0, 0.0], 0.5 * (1.0 - 1e-3)]}),
    # semi-axes 0.765 and 0.0765 turned by 0.5, centred at (0.2, -0.1): m = 1.50
    ("off-centre ellipse, axis ratio 10", UNIT,
     {"conic": [40.591, -142.348, 131.992, -30.471, 54.868, 4.791]}),
    # needles x^2 / r^2 + y^2 / w^2 <= 1 of half-width w = 1e-100 or 1e-154, of area
    # ~w: the cel form's 2 pi + area keeps none of their digits
    ("needle r = 0.999, w = 1e-100", UNIT, {"conic": [1 / 0.999**2, 0.0, 1e200, 0.0, 0.0, -1.0]}),
    ("needle r = 0.999, w = 1e-154", UNIT, {"conic": [1 / 0.999**2, 0.0, 1e308, 0.0, 0.0, -1.0]}),
    ("needle r = 0.9, w = 1e-100", UNIT, {"conic": [1 / 0.9**2, 0.0, 1e200, 0.0, 0.0, -1.0]}),
]


def build(spec):
    """The projkit conic of a case's spec."""
    import projkit as pk

    if "disk" in spec:
        return pk.ConicOval.disk(*spec["disk"])
    return pk.ConicOval(spec["conic"])


def _pi():
    """pi by Machin's formula, 16 atan(1/5) - 4 atan(1/239)."""
    def atan_inv(n):
        total, power, k, n2 = Decimal(0), Decimal(1) / n, 0, n * n
        while power > Decimal(10) ** -(DIGITS + 20):  # past that, no term moves the sum
            total += (-1) ** k * power / (2 * k + 1)
            power /= n2
            k += 1
        return total
    return 16 * atan_inv(5) - 4 * atan_inv(239)


def _cos(x, pi):
    """cos x for 0 <= x <= pi, by its Taylor series on [0, pi/2]."""
    sign = 1
    if x > pi / 2:
        x, sign = pi - x, -1
    total, term, k, x2 = Decimal(0), Decimal(1), 0, x * x
    while abs(term) > Decimal(10) ** -(DIGITS + 5):
        total += term
        term *= -x2 / ((2 * k + 1) * (2 * k + 2))
        k += 1
    return sign * total


def _matrix(entries):
    """The conic's 3 x 3 matrix: (x, 1)^T M (x, 1) = (x - c)^T F (x - c) - 1."""
    f00, f01, f11, c0, c1 = map(Decimal, entries)
    fc0, fc1 = f00 * c0 + f01 * c1, f01 * c0 + f11 * c1
    return [[f00, f01, -fc0], [f01, f11, -fc1], [-fc0, -fc1, c0 * fc0 + c1 * fc1 - 1]]


def _det(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _solve(m, b):
    """m^-1 b by Cramer's rule."""
    d = _det(m)
    out = []
    for k in range(3):
        mk = [row[:k] + [b[i]] + row[k + 1:] for i, row in enumerate(m)]
        out.append(_det(mk) / d)
    return out


def normal_form(domain_entries, region_entries):
    """p and q of the region's normal form p x^2 + q y^2 <= 1."""
    c, e = _matrix(domain_entries), _matrix(region_entries)
    # m = C^-1 E column by column, and its characteristic polynomial
    cols = [_solve(c, [e[i][j] for i in range(3)]) for j in range(3)]
    m = [[cols[j][i] for j in range(3)] for i in range(3)]
    trace = m[0][0] + m[1][1] + m[2][2]
    minors = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    det = _det(m)

    def poly(k):
        return ((k - trace) * k + minors) * k - det

    # the critical points separate the three real roots; bisect each bracket to the last
    # digit.  The one nearer 0 is taken from their product, minors / 3, so that a
    # needle's, ~1 beside a trace ~1e308, does not cancel away
    far = (trace + (trace * trace - 3 * minors).sqrt().copy_sign(trace)) / 3
    near = minors / 3 / far
    low, high = min(near, far), max(near, far)
    bound = 1 + max(abs(trace), abs(minors), abs(det))
    roots = []
    for lo, hi in ((-bound, low), (low, high), (high, bound)):
        rising = poly(hi) > poly(lo)
        while lo < (mid := (lo + hi) / 2) < hi:
            if (poly(mid) > 0) == rising:
                hi = mid
            else:
                lo = mid
        roots.append((lo + hi) / 2)
    # the root whose eigenvector lies inside: the null vector of E - k C, a cross product
    for k in roots:
        rows = [[e[i][j] - k * c[i][j] for j in range(3)] for i in range(3)]
        crosses = [[a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                    a[0] * b[1] - a[1] * b[0]] for a, b in ((rows[0], rows[1]),
                                                            (rows[0], rows[2]),
                                                            (rows[1], rows[2]))]
        v = max(crosses, key=lambda w: sum(x * x for x in w))
        if sum(v[i] * c[i][j] * v[j] for i in range(3) for j in range(3)) < 0:
            inside = k
    p, q = sorted(k / inside for k in roots if k != inside)
    return p, q


def area(domain_entries, region_entries):
    """The region's Busemann area: the midpoint rule round the normal form's boundary, in
    t with tan theta = sqrt(p / q) tan t, p <= q, so that a needle's peak of width
    sqrt(p / q) about theta = 0 spreads over the whole period."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        pi = _pi()
        p, q = normal_form(domain_entries, region_entries)
        # P = p / D, D = cos^2 t + (p / q) sin^2 t, and d theta = sqrt(p / q) dt / D
        ratio = p / q
        half_sum, half_diff = (1 + ratio) / 2, (1 - ratio) / 2

        def rule(n):
            # 4n nodes at 2 t = (j + 1/2) pi / n, by the integrand's symmetries
            total = Decimal(0)
            for j in range(n):
                gap = p - (half_sum + half_diff * _cos((2 * j + 1) * pi / (2 * n), pi))
                total += 1 / (gap + (p * gap).sqrt())
            return 2 * pi / n * ratio.sqrt() * total

        n, value = 8, rule(8)
        while True:
            n *= 2
            value, before = rule(n), value
            if abs(value - before) <= Decimal(10) ** -45 * value:
                return +value


def main():
    rows = []
    for name, domain, region in CASES:
        entries = [list(build(spec)._entries) for spec in (domain, region)]
        rows.append({"case": name, "domain": domain, "region": region,
                     "entries": entries, "area": format(area(*entries), ".30e")})
    PATH.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    main()
