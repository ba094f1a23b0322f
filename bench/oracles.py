"""Exact references for the `queries` and `cli` checks.

Every function works on the generated floats converted exactly to 60-digit
``decimal`` numbers and shares no code with projkit: determinant definitions
of the flag invariants, closed forms of the Hilbert metric (Klein disk,
barycentric triangle), exact chord exits for other polygons, and the
Goldman -> Bonahon-Dreyer formulas of the ``coords`` module docstring.
"""

from __future__ import annotations

import decimal
import functools

D = decimal.Decimal
CTX = decimal.Context(prec=60)
_TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))  # the standard triangle


def _exact(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        with decimal.localcontext(CTX):
            return fn(*args)
    return wrapper


def d(x) -> D:
    """The float x as an exact decimal."""
    return D(float(x))


# ---------------------------------------------------------------- flags

@_exact
def det(a, b, c):
    a, b, c = [list(map(d, v)) for v in (a, b, c)]
    return (a[0] * (b[1] * c[2] - c[1] * b[2]) - a[1] * (b[0] * c[2] - c[0] * b[2])
            + a[2] * (b[0] * c[1] - c[0] * b[1]))


def pair(point, line):
    """det(point, u, w) for the line spanned by (u, w)."""
    return det(point, *line)


@_exact
def norm(v):
    return sum((d(x) * d(x) for x in v), D(0)).sqrt()


@_exact
def cross(u, w):
    u, w = list(map(d, u)), list(map(d, w))
    return [u[(k + 1) % 3] * w[(k + 2) % 3] - u[(k + 2) % 3] * w[(k + 1) % 3] for k in range(3)]


@_exact
def transversality(flags):
    """Smallest |pairing| of a point with another flag's line, or |det| of three
    points, on unit representatives: 0 for a non-generic tuple, and the inverse
    of the condition number of the flag invariants otherwise."""
    values = [abs(pair(p, line) / (norm(p) * norm(cross(*line))))
              for i, (p, _) in enumerate(flags)
              for j, (_, line) in enumerate(flags) if i != j]
    pts = [p for p, _ in flags]
    for skip in range(len(pts)) if len(pts) == 4 else (None,):
        a, b, c = [q for k, q in enumerate(pts) if k != skip]
        values.append(abs(det(a, b, c) / (norm(a) * norm(b) * norm(c))))
    return min(values)


def generic(flags, tol=1e-12):
    """The genericity test of flags (point, (u, w)) on unit representatives."""
    return transversality(flags) > tol


@_exact
def triple_ratio(e, f, g):
    """T = (e2^f1)(g2^e1)(f2^g1) / ((g2^f1)(f2^e1)(e2^g1)) with x1 the point, x2 the line."""
    (e1, e2), (f1, f2), (g1, g2) = e, f, g
    return (pair(f1, e2) * pair(e1, g2) * pair(g1, f2)) / (
        pair(f1, g2) * pair(e1, f2) * pair(g1, e2))


@_exact
def double_ratios(e, f, g, l):
    """D1 = -(e1^f1^g1 / e1^f1^l1)(f2^l1 / f2^g1), D2 = -(e2^g1 / e2^l1)(e1^f1^l1 / e1^f1^g1)."""
    (e1, e2), (f1, f2), (g1, _), (l1, _) = e, f, g, l
    efg, efl = det(e1, f1, g1), det(e1, f1, l1)
    return (-(efg / efl) * (pair(l1, f2) / pair(g1, f2)),
            -(pair(g1, e2) / pair(l1, e2)) * (efl / efg))


# ---------------------------------------------------------------- Hilbert geometry
# A domain is ("conic", ((cx, cy), r)) for a disk or ("polygon", ccw vertices).

def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


@_exact
def exits(dom, x, u):
    """Forward and backward exit parameters of the ray x + t u (decimal x and u)."""
    kind, geo = dom
    if kind == "conic":
        (cx, cy), r = geo
        xc = [x[0] - d(cx), x[1] - d(cy)]
        a, b, c = _dot(u, u), 2 * _dot(xc, u), _dot(xc, xc) - d(r) * d(r)
        sq = (b * b - 4 * a * c).sqrt()
        return (sq - b) / (2 * a), (sq + b) / (2 * a)
    verts = [list(map(d, v)) for v in geo]
    fwd, bwd = [], []
    for k in range(len(verts)):
        a, b = verts[k], verts[(k + 1) % len(verts)]
        n = [b[1] - a[1], a[0] - b[0]]  # outward normal
        slack = _dot(n, [a[0] - x[0], a[1] - x[1]])
        den = _dot(n, u)
        if den > 0:
            fwd.append(slack / den)
        elif den < 0:
            bwd.append(-slack / den)
    return min(fwd), min(bwd)


def _unit_disk(dom, x):
    (cx, cy), r = dom[1]
    return [(d(x[0]) - d(cx)) / d(r), (d(x[1]) - d(cy)) / d(r)]


def _barycentric(x):
    p = [d(x[0]), d(x[1])]
    return p + [1 - p[0] - p[1]]


@_exact
def inside(dom, x):
    kind, geo = dom
    if kind == "conic":
        xs = _unit_disk(dom, x)
        return _dot(xs, xs) < 1
    verts = [list(map(d, v)) for v in geo]
    xd = list(map(d, x))
    return all((b[0] - a[0]) * (xd[1] - a[1]) - (b[1] - a[1]) * (xd[0] - a[0]) > 0
               for a, b in zip(verts, verts[1:] + verts[:1]))


@_exact
def distance(dom, x, y):
    """Klein disk: cosh d = (1 - x.y) / sqrt((1 - |x|^2)(1 - |y|^2)) after the affine map
    to the unit disk; triangle: d = (max_i - min_i) log(q_i / p_i) / 2 in barycentrics;
    other polygons: half the log cross ratio of the exact chord."""
    kind, geo = dom
    if kind == "conic":
        xs, ys = _unit_disk(dom, x), _unit_disk(dom, y)
        c = (1 - _dot(xs, ys)) / ((1 - _dot(xs, xs)) * (1 - _dot(ys, ys))).sqrt()
        return (c + (c * c - 1).sqrt()).ln()
    if tuple(map(tuple, geo)) == _TRIANGLE:
        p, q = _barycentric(x), _barycentric(y)
        logs = [(q[k] / p[k]).ln() for k in range(3)]
        return (max(logs) - min(logs)) / 2
    xd = list(map(d, x))
    tf, tb = exits(dom, xd, [d(y[k]) - xd[k] for k in range(2)])
    return ((tb + 1) * tf / (tb * (tf - 1))).ln() / 2


@_exact
def finsler(dom, x, v):
    """Klein disk: F^2 = |v|^2 / (1 - r^2) + (x.v)^2 / (1 - r^2)^2; triangle: half the
    spread of v_i / p_i in barycentrics; other polygons: (1/t+ + 1/t-) / 2."""
    kind, geo = dom
    if kind == "conic":
        xs = _unit_disk(dom, x)
        vs = [d(v[0]) / d(geo[1]), d(v[1]) / d(geo[1])]
        one_r2 = 1 - _dot(xs, xs)
        return (_dot(vs, vs) / one_r2 + _dot(xs, vs) ** 2 / one_r2 ** 2).sqrt()
    if tuple(map(tuple, geo)) == _TRIANGLE:
        p = _barycentric(x)
        w = [d(v[0]), d(v[1])]
        w.append(-(w[0] + w[1]))
        ratios = [w[k] / p[k] for k in range(3)]
        return (max(ratios) - min(ratios)) / 2
    tf, tb = exits(dom, list(map(d, x)), list(map(d, v)))
    return (1 / tf + 1 / tb) / 2


@_exact
def chord(dom, x, y):
    """Boundary points p, q of the line xy, ordered p, x, y, q (as floats)."""
    xd = list(map(d, x))
    ud = [d(y[k]) - xd[k] for k in range(2)]
    tf, tb = exits(dom, xd, ud)
    return ([float(xd[k] - tb * ud[k]) for k in range(2)],
            [float(xd[k] + tf * ud[k]) for k in range(2)])


# ---------------------------------------------------------------- coordinates

@_exact
def mu(kind, lam, tau):
    """Middle eigenvalue (tau - sqrt(tau^2 - 4/lambda)) / 2 of boundary data."""
    if kind == "parabolic":
        return D(1)
    if kind == "quasi_hyperbolic":  # the double root, whatever the rounding of tau
        return d(tau) / 2
    lam, tau = d(lam), d(tau)
    return (tau - (tau * tau - 4 / lam).sqrt()) / 2


@_exact
def mu_condition(kind, lam, tau) -> float:
    """tau / sqrt(tau^2 - 4/lambda): the factor by which any formula for mu loses
    digits near the quasi-hyperbolic locus (at least 1)."""
    if kind != "hyperbolic":
        return 1.0
    lam, tau = d(lam), d(tau)
    return max(1.0, float(tau / (tau * tau - 4 / lam).sqrt()))


@_exact
def pants(boundaries, s, t):
    """sigma1, sigma2, tplus, tminus and log(mu1 mu2 mu3) of a pair of pants.

    ``boundaries`` are (kind, lambda, tau) of A1, A2, A3.
    """
    lam = [d(b[1]) for b in boundaries]
    m = [mu(*b) for b in boundaries]
    s, t = d(s), d(t)
    s1, s2 = [], []
    for i in range(3):
        prv, nxt = (i - 1) % 3, (i + 1) % 3
        root = (lam[prv] * lam[nxt] / lam[i]).sqrt()
        s1.append((s * m[prv] * root).ln())
        s2.append((m[nxt] / s * root).ln())
    a = ((-s2[1]).exp() + 1) * ((-s2[2]).exp() + 1)
    b = s1[2].exp() + 1
    return (s1, s2, (a / (t * b)).ln(), (t * m[0] * m[1] * m[2] * b / a).ln(),
            log_mu_product(boundaries))


@_exact
def gluing_shears(u, v):
    """sigma(C) = (u - 3v, u + 3v) of a torus glued with parameters (u, v)."""
    u, v = d(u), d(v)
    return u - 3 * v, u + 3 * v


@_exact
def matvec(m, v):
    return [sum(d(m[r][k]) * d(v[k]) for k in range(3)) for r in range(3)]


@_exact
def scaled(c, v):
    return [d(c) * d(x) for x in v]


@_exact
def log_mu_product(boundaries):
    """log(mu1 mu2 mu3), which tplus + tminus must equal (the tau-sum identity)."""
    m = [mu(*b) for b in boundaries]
    return (m[0] * m[1] * m[2]).ln()
