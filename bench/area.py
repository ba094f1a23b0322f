"""`area` workload and its exact reference.

The standard triangle T = {x, y > 0, x + y < 1} is a normed plane in its
Hilbert metric (de la Harpe, "On Hilbert's metric for simplices", 1993).  Its
Busemann density is pi / (12 x y z) with z = 1 - x - y, and the Hilbert ball
of radius R about b is the straight-sided hexagon {p_i <= e^{2R} (b_i/b_j) p_j}
in barycentric coordinates p = (x, y, z).  The truncated region is therefore
the convex polygon P = region ∩ ball, and by Green's theorem with
F = log(x/z) / (y (1 - y)), whose x-derivative is 1/(x y z),

    area = pi/12 * sum over the edges of P of the integral of F dy,

a 1-D integral per edge, done here by adaptive Gauss-Legendre.  The disk
reference is the hyperbolic area 2 pi (cosh(atanh r) - 1) of the Klein disk
of Euclidean radius r.

``self_test`` checks the reference two ways that share no code with it: the
closed-form density against the area of the exact Finsler unit ball (a
hexagon), and the area against an integral in log-barycentric coordinates
u = log(x/z), v = log(y/z), where dA = x y z du dv makes the density exactly
the constant pi/12.  There the area is the length of a vertical cross-section
integrated over u; the cross-sections have log-type boundary layers of width
~e^{-2R} at the clipped corners, so a uniform grid with Richardson
extrapolation converges only like O(h).  The u-integral therefore uses a
double-exponential (tanh-sinh) grid, halved until two grids agree.
"""

from __future__ import annotations

import math

import numpy as np

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)
SELF_TEST_RTOL = 1e-9


# ---------------------------------------------------------------- reference

def _panel(f, a, b):
    h = 0.5 * (b - a)
    return h * float(np.dot(_WEIGHTS, f(a + h + h * _NODES)))


def _adaptive(f, a, b, rtol=1e-14):
    """Integral of f over [a, b]: bisect until a panel agrees with its two halves."""
    parts = []
    stack = [(a, b, _panel(f, a, b))]
    while stack:
        a, b, whole = stack.pop()
        m = 0.5 * (a + b)
        left, right = _panel(f, a, m), _panel(f, m, b)
        if abs(left + right - whole) <= rtol * max(1.0, abs(left + right)) or m in (a, b):
            parts.append(left + right)
        else:
            stack.append((a, m, left))
            stack.append((m, b, right))
    return math.fsum(parts)


# barycentric coordinates (x, y, z) as affine functions c0 x + c1 y + c2 of (x, y)
_BARY = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, -1.0, 1.0))


def _barycenter(alpha):
    x, y = (0.5 + alpha) / 3.0, 1.0 / 3.0
    return (x, y, 1.0 - x - y)


def _region(alpha):
    return [(0.0, 0.5), (alpha, 0.0), (0.5, 0.5)]


def _ball_halfplanes(alpha, radius):
    """The hexagon p_i <= e^{2R} (b_i / b_j) p_j as half-planes a x + b y + c >= 0."""
    b = _barycenter(alpha)
    k = math.exp(2.0 * radius)
    out = []
    for i in range(3):
        for j in range(3):
            if i != j:
                r = k * b[i] / b[j]
                out.append(tuple(r * _BARY[j][m] - _BARY[i][m] for m in range(3)))
    return out


def _region_halfplanes(alpha):
    verts = _region(alpha)
    cx = sum(v[0] for v in verts) / 3.0
    cy = sum(v[1] for v in verts) / 3.0
    out = []
    for k in range(3):
        (x0, y0), (x1, y1) = verts[k], verts[(k + 1) % 3]
        a, b = y1 - y0, x0 - x1
        c = -(a * x0 + b * y0)
        if a * cx + b * cy + c < 0.0:
            a, b, c = -a, -b, -c
        out.append((a, b, c))
    return out


def _clip(poly, a, b, c):
    """Sutherland-Hodgman: the part of a convex polygon where a x + b y + c >= 0."""
    out = []
    for k in range(len(poly)):
        p, q = poly[k], poly[(k + 1) % len(poly)]
        fp, fq = a * p[0] + b * p[1] + c, a * q[0] + b * q[1] + c
        if fp >= 0.0:
            out.append(p)
        if (fp >= 0.0) != (fq >= 0.0):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def triangle_reference(alpha: float, radius: float) -> float:
    """Exact Busemann area of the region of triangle_area_experiment(alpha, radius, .)."""
    poly = _region(alpha)
    for hp in _ball_halfplanes(alpha, radius):
        poly = _clip(poly, *hp)
    signed = sum(poly[k][0] * poly[k - 1][1] - poly[k - 1][0] * poly[k][1]
                 for k in range(len(poly)))
    parts = []
    for k in range(len(poly)):
        (x0, y0), (x1, y1) = poly[k], poly[(k + 1) % len(poly)]
        dx, dy = x1 - x0, y1 - y0
        if dy == 0.0:
            continue

        def green(t, x0=x0, y0=y0, dx=dx, dy=dy):
            x, y = x0 + t * dx, y0 + t * dy
            return np.log(x / (1.0 - x - y)) / (y * (1.0 - y))
        parts.append(dy * _adaptive(green, 0.0, 1.0))
    # Green's theorem needs the counterclockwise orientation
    return math.pi / 12.0 * math.fsum(parts) * (-1.0 if signed > 0.0 else 1.0)


def disk_reference(radius: float) -> float:
    return 2.0 * math.pi * (math.cosh(math.atanh(radius)) - 1.0)


# ---------------------------------------------------------------- self-test

def _density_by_unit_ball(x, y):
    """pi / area of the exact Finsler unit ball of the triangle at (x, y).

    The norm of a barycentric tangent w (sum 0) is (max_i w_i/p_i - min_i w_i/p_i)/2,
    linear between the six rays where two of the w_i/p_i agree.
    """
    p = (x, y, 1.0 - x - y)
    verts = []
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        w = [0.0, 0.0, 0.0]
        w[i], w[j], w[k] = p[i], p[j], -(p[i] + p[j])
        for sgn in (1.0, -1.0):
            r = [sgn * w[m] / p[m] for m in range(3)]
            norm = 0.5 * (max(r) - min(r))
            verts.append((sgn * w[0] / norm, sgn * w[1] / norm))
    verts.sort(key=lambda v: math.atan2(v[1], v[0]))
    area = 0.5 * sum(verts[k - 1][0] * verts[k][1] - verts[k][0] * verts[k - 1][1]
                     for k in range(6))
    return math.pi / area


def _log_barycentric_area(alpha, radius):
    """pi/12 times the (u, v)-area of the truncated region, by tanh-sinh in u."""
    halfplanes = _region_halfplanes(alpha) + _ball_halfplanes(alpha, radius)
    # a x + b y + c >= 0 with x = e^u z, y = e^v z, z > 0 reads
    # (a + c) e^u + (b + c) e^v + c >= 0: a bound on v for each u
    coeffs = [(a + c, b + c, c) for a, b, c in halfplanes]

    def height(u):
        eu = np.exp(u)
        lo = np.full_like(u, -np.inf)
        hi = np.full_like(u, np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            for a, b, c in coeffs:
                rhs = -(a * eu + c)
                if b > 0.0:
                    lo = np.maximum(lo, np.where(rhs > 0.0, np.log(rhs / b), -np.inf))
                elif b < 0.0:
                    hi = np.minimum(hi, np.where(rhs < 0.0, np.log(rhs / b), -np.inf))
                else:
                    hi = np.where(rhs <= 0.0, hi, -np.inf)
        return np.maximum(hi - lo, 0.0)

    # cross-sections change form only at u of some pairwise line intersection
    breaks = set()
    for i in range(len(halfplanes)):
        for j in range(i + 1, len(halfplanes)):
            a1, b1, c1 = halfplanes[i]
            a2, b2, c2 = halfplanes[j]
            det = a1 * b2 - a2 * b1
            if det != 0.0:
                x, y = (b1 * c2 - b2 * c1) / det, (c1 * a2 - c2 * a1) / det
                if x > 0.0 and y > 0.0 and x + y < 1.0:
                    breaks.add(math.log(x / (1.0 - x - y)))
    breaks = sorted(breaks)

    def tanh_sinh(h):
        t = np.arange(-4.0, 4.0 + h / 2, h)
        s = 0.5 * math.pi * np.sinh(t)
        nodes = np.tanh(s)
        weights = h * 0.5 * math.pi * np.cosh(t) / np.cosh(s) ** 2
        keep = np.abs(nodes) < 1.0
        total = []
        for a, b in zip(breaks[:-1], breaks[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            total.append(half * float(np.dot(weights[keep], height(mid + half * nodes[keep]))))
        return math.fsum(total)

    h, prev = 0.25, tanh_sinh(0.25)
    while True:
        h /= 2.0
        cur = tanh_sinh(h)
        if abs(cur - prev) <= 1e-13 * abs(cur) or h < 1e-3:
            return math.pi / 12.0 * cur
        prev = cur


def self_test(alphas, radius) -> dict:
    """Largest relative disagreements of the reference with the independent checks."""
    density_err = max(
        abs(_density_by_unit_ball(x, y) * 12.0 * x * y * (1.0 - x - y) / math.pi - 1.0)
        for x, y in ((1 / 3, 1 / 3), (0.1, 0.7), (1e-5, 0.5), (0.45, 0.5 - 1e-6)))
    area_err = max(abs(_log_barycentric_area(a, radius) / triangle_reference(a, radius) - 1.0)
                   for a in alphas)
    return {"density_relerr": density_err, "area_relerr": area_err,
            "passed": density_err <= SELF_TEST_RTOL and area_err <= SELF_TEST_RTOL}


# ---------------------------------------------------------------- workload

def make_calls(pk, inp, objs):
    """[(label, fn, args, reference)] for one pass; only library defaults beyond these."""
    calls = [(f"triangle alpha={a:.6g}", pk.triangle_area_experiment,
              (a, inp["truncation"], inp["cellsize"]), triangle_reference(a, inp["truncation"]))
             for a in inp["alphas"]]
    calls.append((f"disk r={inp['disk_radius']:g}", pk.busemann_area,
                  (objs["disk"], objs["region"], inp["disk_cellsize"]),
                  disk_reference(inp["disk_radius"])))
    return calls
