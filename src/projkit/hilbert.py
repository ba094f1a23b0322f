"""Hilbert distance and Busemann area on properly convex planar domains.

Domains are given either as strictly convex polygons or as conic ovals
(ellipses cut out by a quadratic form).  Chords are solved exactly: per-edge
linear solves for polygons, one quadratic per direction for conics.  The
Hilbert distance is the half-log cross ratio of a chord.

The area density is pi over the Euclidean area of the unit ball of the Finsler
norm, in closed form for both domain types (Alvarez Paiva & Thompson, "Volumes
on normed and Finsler spaces", 2004).  Areas are integrated in polar
coordinates: adaptive Gauss-Kronrod in the angle, Gauss-Legendre in the Hilbert
distance along each ray, in which the integrand stays smooth up to the boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints, PointOutsideDomain, RegionNotContained

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

# adaptive refinement limits: the narrowest panel (radians; its nodes stay far
# enough from a break that a ray never meets a boundary point by rounding), the
# panels split per round, and the panel count that ends refinement
_MIN_PANEL = 1e-8
_MAX_SPLITS = 64
_MAX_PANELS = 2048


class ConvexDomain:
    """A properly convex region of the affine chart, supporting chord queries."""

    def contains(self, pts, tol: float = 0.0):
        """Interior test: each point's depth (``_depth``, per class) exceeds ``tol``.

        The depth is positive inside and 0 on the boundary, and ``tol`` is a
        relative margin: positive demands points at least that deep inside,
        negative admits the closure up to ``|tol|``.  Returns a bool for a
        single point, a boolean array for an (n, 2) batch.
        """
        pts = np.asarray(pts, dtype=float)
        inside = self._depth(pts.reshape(-1, 2)) > tol
        return bool(inside[0]) if pts.ndim == 1 else inside

    def extreme_points(self):
        """Points whose containment certifies containment of the region."""
        raise NotImplementedError

    def _density(self, pts):
        """Busemann density pi / area(unit Finsler ball) at each of the (n, 2) points."""
        raise NotImplementedError

    def _exits_paired(self, x, u):
        """Forward/backward boundary parameters from x[i] along u[i], and the depth of x[i];
        callers set the numpy error state (a direction along an edge divides by 0)."""
        raise NotImplementedError


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
        self._scale = max(1.0, float(np.max(np.abs(v))))
        for arr in (self.vertices, self.normals, self.offsets):
            arr.setflags(write=False)

    def _slack(self, pts):
        return self.offsets[None, :] - pts @ self.normals.T

    def _depth(self, pts):
        # the least edge slack relative to the polygon's scale max(1, max |vertex|)
        return self._slack(pts).min(axis=1) / self._scale

    def extreme_points(self):
        return self.vertices

    def _density(self, pts):
        # F(w) = (g(w) + g(-w)) / 2 with the gauge g(w) = max_e n_e.w / slack_e is
        # linear between the rays +-(v_i - x), so the unit ball is the polygon
        # with vertices +-(v_i - x) / F(v_i - x)
        rays = self.vertices[None, :, :] - pts[:, None, :]  # (n, E, 2)
        # ratio[e, k, i] = n_e.(v_i - x_k) / slack_e(x_k), edges first for the reductions
        ratio = (self.normals @ rays.reshape(-1, 2).T).reshape(-1, *rays.shape[:2])
        ratio /= self._slack(pts).T[:, :, None]
        ball = (rays @ [1.0, 1j]) * (2.0 / (ratio.max(axis=0) - ratio.min(axis=0)))
        ball = np.concatenate([ball, -ball], axis=1)
        ball = np.take_along_axis(ball, np.argsort(np.angle(ball), axis=1), axis=1)
        # twice the shoelace area of the ball
        return 2.0 * math.pi / np.sum((ball.conj() * np.roll(ball, -1, axis=1)).imag, axis=1)

    def _exits_paired(self, x, u):
        slack = self._slack(x)  # (n, E)
        den = u @ self.normals.T  # (n, E)
        ratio = slack / den
        # a NaN den (a non-finite direction) gives NaN exits, not an exit at infinity
        t_fwd = np.where(den <= 0.0, np.inf, ratio).min(axis=1)
        t_bwd = np.where(den >= 0.0, np.inf, -ratio).min(axis=1)
        return t_fwd, t_bwd, slack.min(axis=1) / self._scale


class ConicOval(ConvexDomain):
    """Oval cut out by a x^2 + b xy + c y^2 + d x + e y + f = 0.

    The sign is normalized so the quadratic part is positive definite and the
    interior is the sublevel set {q < 0}; construction rejects quadratic
    forms that are not ellipses with nonempty interior.  Every query goes
    through the centred form q(x) = (x - center)^T A (x - center) + q_min,
    which keeps its accuracy far from the origin.
    """

    _EXTREME_SAMPLES = 256

    def __init__(self, coeffs):
        coeffs = tuple(float(x) for x in coeffs)
        if len(coeffs) != 6:
            raise ValueError("conic needs 6 coefficients (a, b, c, d, e, f)")
        a, b, c, d, e, f = coeffs
        if b * b - 4.0 * a * c >= 0.0:
            raise ValueError("quadratic form does not cut out an oval (not an ellipse)")
        if a + c < 0.0:
            a, b, c, d, e, f = (-a, -b, -c, -d, -e, -f)
        quad = np.array([[a, b / 2.0], [b / 2.0, c]])
        center = np.linalg.solve(2.0 * quad, -np.array([d, e]))
        # q(center) = f + (d, e) . center / 2, since 2 A center = -(d, e)
        self._init_centred(center, quad, f + 0.5 * (d * center[0] + e * center[1]))

    def _init_centred(self, center, quad, qmin: float) -> None:
        if not qmin < 0.0:
            raise ValueError("conic has an empty real locus")
        self.center = center
        self._quad = quad
        self._qmin = qmin

    @classmethod
    def disk(cls, center, radius: float) -> "ConicOval":
        cx, cy = (float(v) for v in center)
        # built in centred form: the constant term cx^2 + cy^2 - r^2 cancels
        oval = cls.__new__(cls)
        oval._init_centred(np.array([cx, cy]), np.eye(2), -float(radius) ** 2)
        return oval

    @classmethod
    def unit_circle(cls) -> "ConicOval":
        return cls.disk((0.0, 0.0), 1.0)

    def _depth(self, pts):
        """q / q_min = 1 + d^T A d / q_min at the offsets d = x - center: positive inside."""
        d = pts - self.center
        return 1.0 + ((d @ self._quad) * d).sum(axis=1) / self._qmin

    def extreme_points(self):
        w, vecs = np.linalg.eigh(self._quad)
        radii = np.sqrt(-self._qmin / w)
        phi = np.linspace(0.0, 2.0 * math.pi, self._EXTREME_SAMPLES, endpoint=False)
        circle = np.stack([radii[0] * np.cos(phi), radii[1] * np.sin(phi)], axis=1)
        return self.center[None, :] + circle @ vecs.T

    def _density(self, pts):
        # the Klein-model area element (1 - |y|^2)^(-3/2) moved by the affine map
        # taking the unit disk onto {q < 0}
        depth = self._depth(pts)
        return math.sqrt(np.linalg.det(self._quad)) / -self._qmin * depth ** -1.5

    def _exits_paired(self, x, u):
        # depth(x + t u) = depth(x) - 2 h t - a t^2 with h = (x - c)^T A u / -q_min and
        # a = u^T A u / -q_min; each root is taken in the form free of cancellation
        ua = (u @ self._quad) / -self._qmin
        a = (ua * u).sum(axis=1)
        h = (ua * (x - self.center)).sum(axis=1)
        depth = self._depth(x)
        w = np.abs(h) + np.sqrt(h * h + a * depth)
        near, far = depth / w, w / a
        return np.where(h < 0.0, far, near), np.where(h < 0.0, near, far), depth


@dataclass(frozen=True)
class Chord:
    """Boundary intersections of a line through two interior points.

    Ordered so that p, x, y, q are collinear in this order.
    """

    p: np.ndarray
    q: np.ndarray


def _exits(dom: ConvexDomain, direction, *points):
    """Interior check and exit solve of the scalar chord queries, in one kernel call.

    x is interior when its depth is positive, y = x + u when t+ > 1; the answer
    comes from the same solve, so a point within rounding of the boundary is
    decided once.  Raises PointOutsideDomain naming the first exterior point.
    Returns the points, u (given, or y - x) and the exits (t+, t-) from x.
    """
    pts = np.array([np.asarray(p, dtype=float).reshape(2) for p in points])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = pts[1] - pts[0] if direction is None else np.asarray(direction, dtype=float).reshape(2)
        t_fwd, t_bwd, depth = dom._exits_paired(pts[:1], u[None, :])
    for k, inside in enumerate([depth[0] > 0.0, t_fwd[0] > 1.0][: len(pts)]):
        if not inside:
            raise PointOutsideDomain(f"point {'xy'[k]} = {pts[k].tolist()} is not interior")
    return pts, u, float(t_fwd[0]), float(t_bwd[0])


def _cross_ratio(t_fwd, t_bwd, rho):
    """Cross ratio of p = x - t- u, x, x + rho u, q = x + t+ u, in which the norms of u
    cancel; half its log is the Hilbert distance from x to x + rho u."""
    return (t_bwd + rho) * t_fwd / (t_bwd * (t_fwd - rho))


def chord(dom: ConvexDomain, x, y) -> Chord:
    """Boundary intersections of the line xy, ordered as p, x, y, q."""
    (x, y), u, t_fwd, t_bwd = _exits(dom, None, x, y)
    if np.linalg.norm(u) <= 1e-15 * max(1.0, np.linalg.norm(x), np.linalg.norm(y)):
        raise CoincidentPoints("chord endpoints coincide")
    return Chord(p=x - t_bwd * u, q=x + t_fwd * u)


def hilbert_distance(dom: ConvexDomain, x, y) -> float:
    """Hilbert distance (1/2) log(|p-y||q-x| / (|p-x||q-y|)).

    Symmetric, zero exactly when x = y, and equal to the Klein-model
    hyperbolic distance when the domain boundary is a conic.
    """
    (x, y), _, t_fwd, t_bwd = _exits(dom, None, x, y)
    if np.array_equal(x, y):
        return 0.0
    # The cross ratio less 1 is z = (t+ + t-) / (t- (t+ - 1)).  Below z = 1,
    # log1p(z) keeps short distances to rounding, where the log of the rounded
    # cross ratio loses eps / |y - x|; from z = 1 on that log loses nothing.
    z = (1.0 + t_fwd / t_bwd) / (t_fwd - 1.0)
    return 0.5 * (math.log1p(z) if z < 1.0 else math.log(_cross_ratio(t_fwd, t_bwd, 1.0)))


def finsler_norm(dom: ConvexDomain, x, direction) -> float:
    """Infinitesimal Hilbert norm (1/2)(1/t+ + 1/t-) of a tangent vector.

    t+ and t- are the parameters at which the rays x +/- t*direction leave
    the domain; the norm is first-order consistent with hilbert_distance and
    homogeneous of degree 1 in the direction.
    """
    _, u, t_fwd, t_bwd = _exits(dom, direction, x)
    if not np.linalg.norm(u) > 0.0:
        raise ValueError("direction must be nonzero")
    return 0.5 * (1.0 / t_fwd + 1.0 / t_bwd)


@functools.cache
def _radial_rule():
    """Gauss-Legendre rule in the Hilbert distance along a ray, loaded on first
    use so that importing projkit does not pay for importing numpy.polynomial."""
    return np.polynomial.legendre.leggauss(24)


def _smoothstep(t):
    return t * t * (3.0 - 2.0 * t)


def _polar_area(dom, region, base: np.ndarray, radius: float, rtol: float) -> float:
    """Busemann area of the points of region within Hilbert distance radius of base.

    The region must be star-shaped about the interior point base.  Along the
    ray base + rho u the Hilbert distance from base is s, with
    rho(s) = t- t+ (e^{2s} - 1) / (t+ + t- e^{2s}) for the chord exits t+-, so
    the radial integral of density * rho drho is taken in s, where the
    integrand stays smooth up to the boundary.  In the angle, Gauss-Kronrod
    panels break where the integrand has kinks: at the directions of the
    region's and the domain's vertices and their opposites (kinks of the exits
    t+ and t-), and where the region exit and the radius trade places.
    """

    def exits(theta):
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        x = np.broadcast_to(base, u.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_fwd, t_bwd, _ = dom._exits_paired(x, u)
            # the region may touch the boundary: never leave the domain
            rho = np.minimum(region._exits_paired(x, u)[0], t_fwd)
            s = 0.5 * np.log(_cross_ratio(t_fwd, t_bwd, rho))
        return u, t_fwd[:, None], t_bwd[:, None], np.minimum(s, radius)

    radial_x, radial_w = _radial_rule()

    def radial_integral(theta):
        u, tf, tb, s_max = exits(theta)
        finite = np.isfinite(s_max)
        half = 0.5 * np.where(finite, s_max, 0.0)[:, None]
        # a radius past the float range overflows e^{2s}, and the total comes out inf
        with np.errstate(over="ignore", invalid="ignore"):
            grow = np.exp(2.0 * half * (1.0 + radial_x))  # e^{2s}, (m, N)
            den = tf + tb * grow
            rho = tb * tf * (grow - 1.0) / den
            drho = 2.0 * grow * tb * tf * (tb + tf) / (den * den)
            density = dom._density((base + rho[:, :, None] * u[:, None, :]).reshape(-1, 2))
            radial = (density.reshape(rho.shape) * rho * drho) @ radial_w
        return np.where(finite, half[:, 0] * radial, np.inf)

    def evaluate(rows):
        # row (start, length, lo, hi, estimate, error): t in [lo, hi] of the break panel
        # theta = start + length * smoothstep(t), flat at t = 0 and 1, so the growth towards
        # a vertex touching the boundary (1/sqrt on a conic) becomes smooth in t
        start, length, lo, hi = rows.T[:4, :, None]
        t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GK_X
        vals = radial_integral((start + length * _smoothstep(t)).ravel()).reshape(t.shape)
        vals *= 0.5 * (hi - lo) * length * 6.0 * t * (1.0 - t)
        with np.errstate(invalid="ignore"):
            rows[:, 4], rows[:, 5] = vals @ _GK_W, np.abs(vals @ (_GK_W - _G7_W))
        return rows

    # break at the directions +-(v - base) of all vertices, and at the axes so
    # that no break panel is wider than a quarter turn
    rays = [shape.vertices - base for shape in (dom, region) if isinstance(shape, Polygon)]
    rays = np.concatenate(rays + [np.eye(2)])
    rays = np.concatenate([rays, -rays])
    angles = np.arctan2(rays[:, 1], rays[:, 0]) % (2.0 * math.pi)
    edges = np.unique(np.append(angles, 2.0 * math.pi))
    if math.isfinite(radius):
        # bisect each sign change of (region exit - radius) between breaks to rounding
        inside = exits(edges)[3] < radius
        idx = np.nonzero(inside[:-1] != inside[1:])[0]
        lo, hi = edges[idx], edges[idx + 1]
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            same = (exits(mid)[3] < radius) == inside[idx]
            lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        edges = np.sort(np.concatenate([edges, 0.5 * (lo + hi)]))
    edges = np.concatenate([edges[:1], edges[1:][np.diff(edges) > _MIN_PANEL]])

    ends = np.ones(len(edges) - 1)
    rows = evaluate(np.stack([edges[:-1], np.diff(edges), 0.0 * ends, ends, ends, ends], axis=1))
    while math.isfinite(total := math.fsum(rows[:, 4])) and np.sum(rows[:, 5]) > rtol * total:
        # split panels over their share of the error budget, unless at rounding level or
        # the width floor; the caps bound the work where rounding noise exceeds the tolerance
        start, length, lo, hi, est, err = rows.T
        share = np.maximum(rtol * total * length * (hi - lo) / (2.0 * math.pi), 1e-14 * est)
        wide = length * (_smoothstep(hi) - _smoothstep(lo)) > _MIN_PANEL
        over = np.nonzero((err > share) & wide)[0]
        if len(over) == 0 or len(rows) >= _MAX_PANELS:
            break
        split = np.zeros(len(rows), dtype=bool)
        split[over[np.argsort(err[over])[-_MAX_SPLITS:]]] = True
        left, right = rows[split], rows[split]
        left[:, 3] = right[:, 2] = 0.5 * (left[:, 2] + left[:, 3])
        rows = np.concatenate([rows[~split], evaluate(np.concatenate([left, right]))])
    return total if math.isfinite(total) else math.inf


def busemann_area(dom: ConvexDomain, region: ConvexDomain, cellsize: float) -> float:
    """Busemann (Hilbert) area of a convex region inside the domain.

    Integrates the exact density pi / EuclideanArea(unit Finsler ball) over
    the region by polar quadrature about an interior point of the region.
    ``cellsize`` sets the accuracy: the relative tolerance is ``cellsize**2``,
    the error a midpoint grid of that cell size has on a smooth integrand.
    The region may touch the domain boundary; it has finite area when it
    touches it only at points, and the result is ``math.inf`` when it shares
    a boundary arc.
    """
    if not 0.0 < cellsize < math.inf:
        raise ValueError(f"cellsize must be positive and finite, got {cellsize}")
    probes = region.extreme_points()
    if not np.all(dom.contains(probes, tol=-1e-9)):
        raise RegionNotContained("integration region is not contained in the domain")
    return _polar_area(dom, region, probes.mean(axis=0), math.inf, cellsize * cellsize)


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
    barycenter = np.array([(0.5 + alpha) / 3.0, 1.0 / 3.0])
    return _polar_area(dom, region, barycenter, truncation, cellsize * cellsize)
