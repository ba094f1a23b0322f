"""Hilbert distance and Busemann area on properly convex planar domains.

Domains are given either as strictly convex polygons or as conic ovals
(ellipses cut out by a quadratic form).  Chords are solved exactly: per-edge
linear solves for polygons, one quadratic per direction for conics.  The
Hilbert distance is the half-log cross ratio of a chord.

The area density is pi over the Euclidean area of the unit ball of the Finsler
norm F(u) = (1/t+ + 1/t-) / 2 (Alvarez Paiva & Thompson, "Volumes on normed and
Finsler spaces", 2004).  A polygon's ball is spanned by the rays to its vertices,
F read from the chord kernel; a conic's density is in closed form.  Areas are
integrated in polar coordinates, the density in units of the radius: adaptive
Gauss-Kronrod in the angle, Gauss-Legendre in the Hilbert distance along each
ray, in which the integrand stays smooth up to the boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints, NonFiniteResult, PointOutsideDomain, RegionNotContained

# Gauss-Kronrod (7, 15) rule on [-1, 1] (QUADPACK, Piessens et al. 1983): the
# nonnegative Kronrod nodes, their weights, and the weights of the Gauss nodes
_K15 = np.array([
    [0.991455371120812639, 0.949107912342758525, 0.864864423359769073, 0.741531185599394440,
     0.586087235467691130, 0.405845151377397167, 0.207784955007898468, 0.0],
    [0.022935322010529225, 0.063092092629978553, 0.104790010322250184, 0.140653259715525919,
     0.169004726639267903, 0.190350578064785410, 0.204432940075298892, 0.209482141084727828],
    [0.0, 0.129484966168869693, 0.0, 0.279705391489276668,
     0.0, 0.381830050505118945, 0.0, 0.417959183673469388],
])
_GK_X = np.concatenate([-_K15[0], _K15[0, -2::-1]])
_GK_W, _G7_W = np.concatenate([_K15[1:], _K15[1:, -2::-1]], axis=1)

# adaptive refinement limits: the narrowest panel refinement may split (radians,
# in theta; the smoothstep map still packs nodes closer than this to a break, where
# a ray can round onto a boundary vertex: ROADMAP item 2) and the panel count that
# ends refinement
_MIN_PANEL = 1e-8
_MAX_PANELS = 2048


class ConvexDomain:
    """A properly convex region of the affine chart, supporting chord queries."""

    def contains(self, pts):
        """Interior test: each point's depth (``_depth``, per class) is positive.

        The depth is positive inside and 0 on the boundary, relative to the
        domain's scale.  Returns a bool for a single point, a boolean array
        for an (n, 2) batch.
        """
        pts = np.asarray(pts, dtype=float)
        # an overflowed slack keeps its sign; a non-finite coordinate gives a NaN depth
        with np.errstate(over="ignore", invalid="ignore"):
            inside = self._depth(*pts.reshape(-1, 2).T) > 0.0
        return bool(inside[0]) if pts.ndim == 1 else inside

    def _density(self, x0, x1, w):
        """Busemann density pi / area(unit Finsler ball) at x times w^2, over components
        and lengths w that are arrays of one shape (the quadrature's rays by radial
        nodes); callers set the numpy error state, as for ``_exits_paired``."""
        raise NotImplementedError

    def _exits_paired(self, x0, x1, u0, u1):
        """Forward/backward boundary parameters from x along u, and the depth of x, over
        components that are all floats (scalar queries) or include arrays (the area
        quadrature; callers set the numpy error state: an edge along u divides by 0)."""
        raise NotImplementedError


# The chord kernels' branch, and the operations that raise on Python floats where numpy
# returns inf or NaN: numpy's values on floats too, numpy's functions on arrays.

def _where(cond, a, b):
    return a if cond is True else b if cond is False else np.where(cond, a, b)


def _minimum(a, b):  # NaN if either is NaN
    less = b < a
    return b if less is True else (a if b == b else b) if less is False else np.minimum(a, b)


def _div(a, b):
    zero = b == 0.0
    return a * math.copysign(math.inf, b) if zero is True else a / b


def _sqrt(v):
    sign = v >= 0.0
    return math.sqrt(v) if sign is True else math.nan if sign is False else np.sqrt(v)


class Polygon(ConvexDomain):
    """Strictly convex polygon with counterclockwise vertices."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs an (n, 2) vertex array with n >= 3")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon vertices must be finite")
        # half edges scaled by powers of two, exact in direction: nothing below overflows
        edges = 0.5 * np.roll(v, -1, axis=0) - 0.5 * v
        edges = np.ldexp(edges, -np.frexp(np.abs(edges).max(axis=1))[1][:, None])
        nxt = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        if not np.all(cross > 0.0):
            raise ValueError(
                "polygon must be strictly convex with counterclockwise vertices"
            )
        normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        self.vertices = v
        self.normals = normals
        self.offsets = np.einsum("ij,ij->i", normals, v)
        for arr in (self.vertices, self.normals, self.offsets):
            arr.setflags(write=False)
        # each edge's slack at the vertex mean, the vertices divided first: their sum overflows
        mean = self.offsets - normals @ (v / len(v)).sum(axis=0)
        self._edges = list(zip(*normals.T.tolist(), self.offsets.tolist(), mean.tolist()))

    def _depth(self, x0, x1):
        # the least ratio slack_e(x) / slack_e(vertex mean): 1 there, 0 on the boundary and
        # unchanged by affine maps, as a conic's q / q_min
        return functools.reduce(_minimum, [
            (offset - (n0 * x0 + n1 * x1)) / mean for n0, n1, offset, mean in self._edges])

    def _density(self, x0, x1, w):
        # F(v_i - x) = (1/t+ + 1/t-) / 2 from the chord kernel, as in finsler_norm.  F is
        # linear between the rays +-(v_i - x), so the unit ball is the polygon with vertices
        # +-(v_i - x) / F(v_i - x), here taken in units of w
        u0, u1 = (np.subtract.outer(v, x) for v, x in zip(self.vertices.T, (x0, x1)))  # (E, ...)
        t_fwd, t_bwd, _ = self._exits_paired(x0, x1, u0, u1)
        ball = (u0 + 1j * u1) / w * (2.0 / (1.0 / t_fwd + 1.0 / t_bwd))
        ball = np.moveaxis(np.concatenate([ball, -ball]), 0, -1)
        ball = np.take_along_axis(ball, np.argsort(np.angle(ball)), axis=-1)
        # twice the shoelace area of the ball
        return 2.0 * math.pi / np.sum((ball.conj() * np.roll(ball, -1, axis=-1)).imag, axis=-1)

    def _exits_paired(self, x0, x1, u0, u1):
        t_fwd = t_bwd = depth = math.inf
        for n0, n1, offset, mean in self._edges:
            # the slack inline: a list of slacks and a reduce cost the hexagon ~30%
            slack = offset - (n0 * x0 + n1 * x1)
            den = n0 * u0 + n1 * u1
            ratio = _div(slack, den)
            # a NaN den (a non-finite direction) gives NaN exits, not an exit at infinity
            t_fwd = _minimum(t_fwd, _where(den <= 0.0, math.inf, ratio))
            t_bwd = _minimum(t_bwd, _where(den >= 0.0, math.inf, -ratio))
            depth = _minimum(depth, slack / mean)
        return t_fwd, t_bwd, depth


class ConicOval(ConvexDomain):
    """Oval cut out by a x^2 + b xy + c y^2 + d x + e y + f = 0.

    The sign is normalized so the quadratic part is positive definite and the
    interior is the sublevel set {q < 0}; construction rejects quadratic
    forms that are not ellipses with nonempty interior.  Every query goes
    through the centred form q(x) = (x - center)^T A (x - center) + q_min,
    which keeps its accuracy far from the origin.
    """

    def __init__(self, coeffs):
        coeffs = np.array([float(x) for x in coeffs])
        # a scale class: an exact power of two brings the largest of a, b, c into [1, 2)
        with np.errstate(over="ignore"):
            coeffs = np.ldexp(coeffs, 1 - math.frexp(max(map(abs, coeffs[:3]), default=0.0))[1])
        if len(coeffs) != 6 or not np.all(np.isfinite(coeffs)):
            raise ValueError("conic needs 6 coefficients, finite in units of max |a|, |b|, |c|")
        a, b, c, d, e, f = coeffs.tolist()
        if b * b - 4.0 * a * c >= 0.0:
            raise ValueError("quadratic form does not cut out an oval (not an ellipse)")
        if a + c < 0.0:
            a, b, c, d, e, f = (-a, -b, -c, -d, -e, -f)
        quad = np.array([[a, b / 2.0], [b / 2.0, c]])
        center = np.linalg.solve(2.0 * quad, -np.array([d, e]))
        # q(center) = f + (d, e) . center / 2, since 2 A center = -(d, e); on Python
        # floats, so an overflow reaches the finiteness check without a numpy warning
        cx, cy = center.tolist()
        self._init_centred(center, quad, f + 0.5 * (d * cx + e * cy))

    def _init_centred(self, center, quad, qmin: float) -> None:
        qmin = float(qmin)
        if not qmin < 0.0:
            raise ValueError("conic has an empty real locus")
        # one rounding, shared by every multiple of the conic; Python floats for the kernels
        (f00, f01), (_, f11) = form = [[v / -qmin for v in row] for row in quad.tolist()]
        if not all(map(math.isfinite, (qmin, f00, f01, f11))):
            raise ValueError(f"conic's form A / -q_min is not finite: q_min = {qmin!r}")
        self.center = center
        self._form = np.array(form)
        self._entries = (f00, f01, f11, *center.tolist())
        # the Klein-model area element (1 - |y|^2)^(-3/2) moved by the affine map taking
        # the unit disk onto {q < 0} has the factor sqrt(det A) / -q_min
        (a, h), (_, c) = quad.tolist()
        self._density_factor = math.sqrt(a * c - h * h) / -qmin

    @classmethod
    def disk(cls, center, radius: float) -> "ConicOval":
        (cx, cy), r = (float(v) for v in center), float(radius)
        if not (math.isfinite(cx) and math.isfinite(cy) and 2.0 ** -1022 <= r * r < math.inf):
            raise ValueError(
                f"disk needs a finite centre and a radius whose square is a normal float: {r!r}")
        # centred: cx^2 + cy^2 - r^2 cancels.  r^2 is normal: q_min = -r^2 keeps its bits
        oval = cls.__new__(cls)
        oval._init_centred(np.array([cx, cy]), np.eye(2), -(r * r))
        return oval

    @classmethod
    def unit_circle(cls) -> "ConicOval":
        return cls.disk((0.0, 0.0), 1.0)

    def _depth(self, x0, x1):
        """q / q_min = 1 - d^T (A / -q_min) d at the offsets d = x - center: positive inside."""
        f00, f01, f11, c0, c1 = self._entries
        d0, d1 = x0 - c0, x1 - c1
        return 1.0 - ((d0 * f00 + d1 * f01) * d0 + (d0 * f01 + d1 * f11) * d1)

    def _density(self, x0, x1, w):
        return self._density_factor * w * w * self._depth(x0, x1) ** -1.5

    def _exits_paired(self, x0, x1, u0, u1):
        # depth(x + t u) = depth(x) - 2 h t - a t^2 with h = (x - c)^T A u / -q_min and
        # a = u^T A u / -q_min; each root is taken in the form free of cancellation
        f00, f01, f11, c0, c1 = self._entries
        ua0, ua1 = u0 * f00 + u1 * f01, u0 * f01 + u1 * f11
        a = ua0 * u0 + ua1 * u1
        h = ua0 * (x0 - c0) + ua1 * (x1 - c1)
        depth = self._depth(x0, x1)
        w = abs(h) + _sqrt(h * h + a * depth)
        near, far = _div(depth, w), _div(w, a)
        t_fwd, t_bwd = _where(h < 0.0, (far, near), (near, far))
        return t_fwd, t_bwd, depth


@dataclass(frozen=True)
class Chord:
    """Boundary intersections of a line through two interior points.

    Ordered so that p, x, y, q are collinear in this order.
    """

    p: np.ndarray
    q: np.ndarray


def _coords(p) -> tuple:
    """A point's two coordinates as floats; - 0.0 keeps -0.0 and refuses a string."""
    x0, x1 = p.tolist() if isinstance(p, np.ndarray) else p
    return float(x0 - 0.0), float(x1 - 0.0)


def _exits(dom: ConvexDomain, direction, *points):
    """Interior check and exit solve of the scalar chord queries, in one kernel call.

    The solve runs on u / rho (u given, or y - x), rho the power of two that brings
    u's largest entry into [1, 2): exact, so no query depends on the size of u.  x is
    interior when its depth is positive, y = x + u when t+ > rho; one solve decides
    both.  Raises PointOutsideDomain naming the first exterior point, and
    NonFiniteResult where the float range is passed: at an infinite exit along a finite
    nonzero step (a bounded domain has none), or where y - x of finite points
    overflows; the check falls between those of x and y.  Returns x,
    u / rho, rho and the exits (t+, t-) from x along u / rho, all Python floats: the
    kernel runs on floats, where it gives numpy's values at a fraction of the cost.
    """
    pts = list(map(_coords, points))
    (x0, x1), y = pts[0], pts[-1]
    u0, u1 = (y[0] - x0, y[1] - x1) if direction is None else _coords(direction)
    rho = math.ldexp(1.0, math.frexp(max(abs(u0), abs(u1)))[1] - 1)
    u0, u1 = u0 / rho, u1 / rho
    t_fwd, t_bwd, depth = dom._exits_paired(x0, x1, u0, u1)
    if not depth > 0.0:
        raise PointOutsideDomain(f"point x = {[x0, x1]} is not interior")
    finite = math.isfinite(u0 + u1)  # u / rho lies in [-2, 2]^2 unless u is not finite
    if (finite and (u0 or u1) and not (t_fwd < math.inf and t_bwd < math.inf)) or (
            not finite and direction is None and all(map(math.isfinite, y))):
        raise NonFiniteResult(f"the chord from x = {[x0, x1]} passes the float range")
    if len(pts) > 1 and not t_fwd > rho:
        raise PointOutsideDomain(f"point y = {list(y)} is not interior")
    return (x0, x1), (u0, u1), rho, t_fwd, t_bwd


def chord(dom: ConvexDomain, x, y) -> Chord:
    """Boundary intersections of the line xy, ordered as p, x, y, q."""
    (x0, x1), (u0, u1), _, t_fwd, t_bwd = _exits(dom, None, x, y)
    if not (u0 or u1):
        raise CoincidentPoints("chord endpoints coincide")
    return Chord(p=np.array([x0 - t_bwd * u0, x1 - t_bwd * u1]),
                 q=np.array([x0 + t_fwd * u0, x1 + t_fwd * u1]))


def hilbert_distance(dom: ConvexDomain, x, y) -> float:
    """Hilbert distance (1/2) log(|p-y||q-x| / (|p-x||q-y|)).

    Symmetric, zero exactly when x = y, and equal to the Klein-model
    hyperbolic distance when the domain boundary is a conic.
    """
    _, (u0, u1), rho, t_fwd, t_bwd = _exits(dom, None, x, y)
    if not (u0 or u1):
        return 0.0
    # The cross ratio less 1 is z = (t+ + t-) / (t- (t+ - 1)) along y - x.  Below z = 1,
    # log1p(z) keeps short distances to rounding, where the log of the rounded cross
    # ratio loses eps / |y - x|; from z = 1 on that log loses nothing.  Its products take
    # the exits along y - x, t+- / rho, and z takes rho: tiny steps do not overflow it.
    z = rho * ((1.0 + t_fwd / t_bwd) / (t_fwd - rho))
    if z < 1.0:
        return 0.5 * math.log1p(z)
    t_fwd, t_bwd = t_fwd / rho, t_bwd / rho
    # the cross ratio of p, x, y, q; t+ > 1 here, so a zero t- (t+ - 1) has underflowed
    den = t_bwd * (t_fwd - 1.0)
    ratio = (t_bwd + 1.0) * t_fwd / den if den else math.inf
    if ratio == math.inf:
        # past ~354.9 the cross ratio overflows; the logs of its factors (t- + 1) / t-
        # (as a difference: t- may be subnormal) and t+ / (t+ - 1) do not
        return 0.5 * (math.log1p(t_bwd) - math.log(t_bwd) + math.log(t_fwd / (t_fwd - 1.0)))
    return 0.5 * math.log(ratio)


def finsler_norm(dom: ConvexDomain, x, direction) -> float:
    """Infinitesimal Hilbert norm (1/2)(1/t+ + 1/t-) of a tangent vector.

    t+ and t- are the parameters at which the rays x +/- t*direction leave
    the domain; the norm is first-order consistent with hilbert_distance and
    homogeneous of degree 1 in the direction.
    """
    _, (u0, u1), rho, t_fwd, t_bwd = _exits(dom, direction, x)
    if not ((u0 or u1) and math.isfinite(u0) and math.isfinite(u1)):
        raise ValueError("direction must be finite and nonzero")
    return 0.5 * (1.0 / t_fwd + 1.0 / t_bwd) * rho


@functools.cache
def _radial_rule():
    """Gauss-Legendre rule in the Hilbert distance along a ray, loaded on first
    use so that importing projkit does not pay for importing numpy.polynomial."""
    return np.polynomial.legendre.leggauss(24)


def _smoothstep(t):
    return t * t * (3.0 - 2.0 * t)


def _polar_area(dom, region, radius: float, rtol: float) -> float:
    """Busemann area of the points of region within Hilbert distance radius of base.

    base is the region's centre (a conic) or vertex mean (a polygon).  Along the
    ray base + rho u the Hilbert distance from base is s, with
    rho(s) = t- t+ (e^{2s} - 1) / (t+ + t- e^{2s}) for the chord exits t+-, so
    the radial integral of (density rho^2) drho / rho is taken in s, where the
    integrand stays smooth up to the boundary.  In the angle, Gauss-Kronrod
    panels break where the integrand has kinks: at the directions of the
    region's and the domain's vertices and their opposites (kinks of the exits
    t+ and t-), and where the region exit and the radius trade places.
    """
    base = region.center if isinstance(region, ConicOval) else region.vertices.mean(axis=0)
    b0, b1 = base.tolist()

    def exits(u0, u1):
        # the exits t+- from base along u and the distance s to the region's exit
        t_fwd, t_bwd, _ = dom._exits_paired(b0, b1, u0, u1)
        # the region may touch the boundary: never leave the domain
        rho = _minimum(region._exits_paired(b0, b1, u0, u1)[0], t_fwd)
        # log1p of the cross ratio less 1, and expm1 below, keep a region of small
        # Hilbert size to rounding, where log(1 + z) and e^{2s} - 1 lose eps / s
        s = 0.5 * np.log1p(rho * _div(1.0 + _div(t_fwd, t_bwd), t_fwd - rho))
        return t_fwd, t_bwd, s

    radial_x, radial_w = _radial_rule()

    def radial_integral(theta):
        u0, u1 = np.cos(theta), np.sin(theta)
        tf, tb, s_max = (v[:, None] for v in exits(u0, u1))
        finite = np.isfinite(s_max := np.minimum(s_max, radius))
        half = 0.5 * np.where(finite, s_max, 0.0)
        grow_m1 = np.expm1(2.0 * half * (1.0 + radial_x))  # e^{2s} - 1, (m, N)
        grow = grow_m1 + 1.0
        # each exit divided by den first, so that no product of exits overflows
        den = tf + tb * grow
        near, far = tb / den, tf / den
        rho = grow_m1 * near * tf
        # d rho / rho = 2 e^{2s} (t+ + t-) / ((e^{2s} - 1) den): the density in units of rho
        dlog = 2.0 * grow * (near + far) / grow_m1
        density = dom._density(b0 + rho * u0[:, None], b1 + rho * u1[:, None], rho)
        return np.where(finite[:, 0], half[:, 0] * ((density * dlog) @ radial_w), np.inf)

    def evaluate(rows):
        # row (start, length, lo, hi, estimate, error): t in [lo, hi] of the break panel
        # theta = start + length * smoothstep(t), flat at t = 0 and 1, so the growth towards
        # a vertex touching the boundary (1/sqrt on a conic) becomes smooth in t
        start, length, lo, hi = rows.T[:4, :, None]
        t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GK_X
        vals = radial_integral((start + length * _smoothstep(t)).ravel()).reshape(t.shape)
        vals *= 0.5 * (hi - lo) * length * 6.0 * t * (1.0 - t)
        rows[:, 4], rows[:, 5] = vals @ _GK_W, np.abs(vals @ (_GK_W - _G7_W))
        return rows

    # break at the directions +-(v - base) of all vertices, and at the axes so
    # that no break panel is wider than a quarter turn
    rays = [shape.vertices - base for shape in (dom, region) if isinstance(shape, Polygon)]
    rays = np.concatenate(rays + [np.eye(2)])
    rays = np.concatenate([rays, -rays])
    angles = np.arctan2(rays[:, 1], rays[:, 0]) % (2.0 * math.pi)
    edges = np.unique(np.append(angles, 2.0 * math.pi))
    # one error state for the quadrature: an edge along u divides by 0 in the exits, and the
    # total comes out inf where e^{2s} overflows or a base on the boundary has depth 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if math.isfinite(radius):
            # bisect each sign change of (region exit - radius) between breaks to rounding,
            # one at a time on floats
            inside = exits(np.cos(edges), np.sin(edges))[2] < radius
            cuts = []
            for k in np.nonzero(inside[:-1] != inside[1:])[0]:
                lo, hi = edges[k].item(), edges[k + 1].item()
                for _ in range(50):
                    mid = 0.5 * (lo + hi)
                    same = (exits(math.cos(mid), math.sin(mid))[2] < radius) == inside[k]
                    lo, hi = (mid, hi) if same else (lo, mid)
                cuts.append(0.5 * (lo + hi))
            edges = np.sort(np.concatenate([edges, cuts]))
        edges = np.concatenate([edges[:1], edges[1:][np.diff(edges) > _MIN_PANEL]])

        ends = np.ones(len(edges) - 1)
        rows = evaluate(np.stack([edges[:-1], np.diff(edges), 0.0 * ends, ends, ends, ends], 1))
        while math.isfinite(total := math.fsum(rows[:, 4])) and np.sum(rows[:, 5]) > rtol * total:
            # split panels over their share of the error budget, unless at rounding level or
            # the width floor; the panel cap bounds the work where rounding noise exceeds rtol
            start, length, lo, hi, est, err = rows.T
            share = np.maximum(rtol * total * length * (hi - lo) / (2.0 * math.pi), 1e-14 * est)
            wide = length * (_smoothstep(hi) - _smoothstep(lo)) > _MIN_PANEL
            split = (err > share) & wide
            if not split.any() or len(rows) >= _MAX_PANELS:
                break
            left, right = rows[split], rows[split]
            left[:, 3] = right[:, 2] = 0.5 * (left[:, 2] + left[:, 3])
            rows = np.concatenate([rows[~split], evaluate(np.concatenate([left, right]))])
    return total if math.isfinite(total) else math.inf


def _least_depth(dom: ConvexDomain, region: ConvexDomain) -> float:
    """The least depth of dom over the region, exact to rounding.

    Depth is concave, so least at a polygon's vertex.  A conic region is c + L w,
    |w| <= 1, L's columns its semi-axes: an edge's least slack is offset - n.c - |L^T n|, and
    1 - depth in a conic, w^T B w + 2 g.w + k, peaks at the least lambda + k + sum
    g_i^2 / (lambda - b_i) over lambda > max b (More & Sorensen 1983), each an upper bound.
    """
    if isinstance(region, Polygon):
        return float(dom._depth(*region.vertices.T).min())
    w, vecs = np.linalg.eigh(region._form)
    axes = vecs / np.sqrt(w)
    if isinstance(dom, Polygon):
        reach = np.linalg.norm(dom.normals @ axes, axis=1)
        (c0, c1), (n0, n1, offset, mean) = region.center, np.array(dom._edges).T
        return float(((offset - (n0 * c0 + n1 * c1) - reach) / mean).min())
    ltm = axes.T @ dom._form
    b, vecs = np.linalg.eigh(ltm @ axes)
    g = (vecs.T @ (ltm @ (region.center - dom.center))).tolist()
    # lambda = max b + |g| nu, nu in [0, 1]; a zero g_i (as in the "hard case") drops out
    norm = math.hypot(*g)
    terms = [(gi / norm, (b[-1] - bi) / norm) for gi, bi in zip(g, b.tolist()) if gi]
    lo, nu = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + nu)
        lo, nu = (mid, nu) if sum((gi / (mid + gap)) ** 2 for gi, gap in terms) > 1 else (lo, mid)
    excess = nu + sum(gi * (gi / (nu + gap)) for gi, gap in terms)
    return dom._depth(*region.center.tolist()) - b[-1] - norm * excess


def busemann_area(dom: ConvexDomain, region: ConvexDomain, cellsize: float) -> float:
    """Busemann (Hilbert) area of a convex region inside the domain.

    Integrates the exact density pi / EuclideanArea(unit Finsler ball) over
    the region by polar quadrature about an interior point of the region.
    ``cellsize`` sets the accuracy: the relative tolerance is ``cellsize**2``,
    the error a midpoint grid of that cell size has on a smooth integrand.
    The region may touch the domain boundary.  It has finite area when it
    touches it only at points of a conic or of a polygon's edges.  ``math.inf``
    means that it shares a boundary arc, or that it has a vertex at a corner of
    a polygon domain: near a corner the Hilbert geometry is a simplex's, a
    normed plane in log coordinates (de la Harpe, "On Hilbert's metric for
    simplices", 1993), where a wedge at the corner is an infinite half-strip.
    A region that leaves the domain raises RegionNotContained.
    """
    if not 0.0 < cellsize < math.inf:
        raise ValueError(f"cellsize must be positive and finite, got {cellsize}")
    # depth is relative, 0 on the boundary: a tangent region may fall short of 0 by rounding,
    # and an overflowed depth keeps its sign
    with np.errstate(over="ignore"):
        contained = _least_depth(dom, region) > -1e-9
    if not contained:
        raise RegionNotContained("integration region is not contained in the domain")
    if isinstance(dom, Polygon) and isinstance(region, Polygon) and (
            region.vertices[:, None] == dom.vertices).all(axis=2).any():
        return math.inf  # a vertex at a corner, as floats: exact
    return _polar_area(dom, region, math.inf, cellsize * cellsize)


def triangle_area_experiment(alpha: float, truncation: float, cellsize: float) -> float:
    """Busemann area of a truncated ideal triangle in the standard triangle.

    The ambient domain is the triangle with vertices (0,0), (1,0), (0,1); the
    inscribed triangle has vertices (0, 1/2), (alpha, 0), (1/2, 1/2), all on
    the boundary of the domain.  Its area is finite but grows without bound
    as alpha decreases toward 0 and the vertex (alpha, 0) nears the corner
    (0, 0).  Truncating to the Hilbert ball of the given radius around the
    inscribed triangle's barycenter makes the growth observable as a monotone
    sequence of finite areas.  ``cellsize`` sets the relative tolerance
    ``cellsize**2`` as in busemann_area.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 1/2]")
    if not (0.0 < truncation < math.inf and 0.0 < cellsize < math.inf):
        raise ValueError("truncation and cellsize must be positive and finite")
    dom = Polygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    region = Polygon([[0.0, 0.5], [alpha, 0.0], [0.5, 0.5]])
    return _polar_area(dom, region, truncation, cellsize * cellsize)
