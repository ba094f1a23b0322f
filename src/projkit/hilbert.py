"""Hilbert distance and Busemann area on properly convex planar domains.

Domains are given either as strictly convex polygons or as conic ovals
(ellipses cut out by a quadratic form).  Chords are solved exactly: per-edge
linear solves for polygons, one quadratic per direction for conics.  The
Hilbert distance is the half-log cross ratio of a chord.

The area density is pi over the Euclidean area of the unit ball of the Finsler
norm F(u) = (1/t+ + 1/t-) / 2 (Alvarez Paiva & Thompson, "Volumes on normed and
Finsler spaces", 2004).  A polygon's ball is spanned by the rays to its vertices,
F read from the chord kernel.  ``busemann_area`` integrates it in polar
coordinates where no closed form applies: a polygon region in a triangle has one
here (``_triangle_area``), and every region in a conic, the Klein model, has one in
``projkit._klein``, loaded on first use.
"""

import functools
import math

from .errors import (
    CoincidentPoints,
    NonFiniteResult,
    PointOutsideDomain,
    RegionNotContained,
    _freezer,
    _Record,
)

# numpy is imported inside the functions that make or take arrays, so that importing
# projkit and the scalar queries do not pay for it

# adaptive refinement limits: the narrowest panel refinement may split (radians, in
# theta; breaks closer than this are merged, and the smoothstep map still packs nodes
# closer than this to a break, where a ray can round onto a boundary vertex: ROADMAP
# item 2) and the panel count that ends refinement
_MIN_PANEL = 1e-8
_MAX_PANELS = 2048


class ConvexDomain:
    """A properly convex region of the affine chart, supporting chord queries."""

    def contains(self, pts):
        """Interior test: each point's depth (``_depth``, per class) is positive.

        The depth is positive inside and 0 on the boundary, relative to the
        domain's scale.  Returns a bool for a single point, shape (2,), and a
        boolean array for an (n, 2) batch; any other shape raises ValueError.
        """
        import numpy as np

        pts = np.asarray(pts, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != 2:
            raise ValueError(f"contains needs shape (2,) or (n, 2), got {pts.shape}")
        # an overflowed slack keeps its sign; a non-finite coordinate gives a NaN depth
        with np.errstate(over="ignore", invalid="ignore"):
            inside = self._depth(*pts.reshape(-1, 2).T) > 0.0
        return bool(inside[0]) if pts.ndim == 1 else inside

    def _exits_paired(self, x0, x1, u0, u1):
        """Forward/backward boundary parameters from x along u, and the depth of x, over
        components that are all floats (scalar queries) or include arrays (the area
        quadrature; callers set the numpy error state: an edge along u divides by 0)."""
        raise NotImplementedError


# The chord kernels' branch, and the operations that raise on Python floats where numpy
# returns inf or NaN: numpy's values on floats too, numpy's functions on arrays.

def _where(cond, a, b):
    if cond is True:
        return a
    if cond is False:
        return b
    import numpy as np

    return np.where(cond, a, b)


def _minimum(a, b):  # NaN if either is NaN, and b where a == b (-0.0 and 0.0 too)
    less = a < b
    if less is True:
        return a
    if less is False:
        return b if a == a else a
    import numpy as np

    return np.minimum(a, b)


def _div(a, b):
    zero = b == 0.0
    return a * math.copysign(math.inf, b) if zero is True else a / b


def _sqrt(v):
    sign = v >= 0.0
    if sign is True:
        return math.sqrt(v)
    if sign is False:
        return math.nan
    import numpy as np

    return np.sqrt(v)


# read-only arrays of a pair of floats, and of n pairs
_array2 = _freezer(2)


def _rows(pairs):
    return _freezer(2 * len(pairs))(sum(pairs, ())).reshape(-1, 2)


class Polygon(ConvexDomain):
    """Strictly convex polygon with counterclockwise vertices, kept once as Python floats
    with each edge's unit normal, offset and slack at the vertex mean; ``vertices``,
    ``normals`` and ``offsets`` are read-only arrays built from them on access."""

    def __init__(self, vertices):
        try:
            rows = [list(p) for p in vertices]
        except TypeError:
            rows = []
        if len(rows) < 3 or any(len(p) != 2 for p in rows):
            raise ValueError("polygon needs an (n, 2) vertex array with n >= 3")
        self._vertices = v = tuple(map(_coords, rows))
        if not all(math.isfinite(c) for p in v for c in p):
            raise ValueError("polygon vertices must be finite")
        # half edges scaled by powers of two, exact in direction: nothing below overflows
        edges = []
        for (a0, a1), (b0, b1) in zip(v, v[1:] + v[:1]):
            e0, e1 = 0.5 * b0 - 0.5 * a0, 0.5 * b1 - 0.5 * a1
            k = -math.frexp(max(abs(e0), abs(e1)))[1]
            edges.append((math.ldexp(e0, k), math.ldexp(e1, k)))
        nxt = edges[1:] + edges[:1]
        if not all(e0 * f1 - e1 * f0 > 0.0 for (e0, e1), (f0, f1) in zip(edges, nxt)):
            raise ValueError("polygon must be strictly convex with counterclockwise vertices")
        norms = [math.sqrt(e1 * e1 + e0 * e0) for e0, e1 in edges]  # as np.linalg.norm, not hypot
        normals = [(e1 / norm, -e0 / norm) for (e0, e1), norm in zip(edges, norms)]
        offsets = [n0 * v0 + n1 * v1 for (n0, n1), (v0, v1) in zip(normals, v)]
        # each edge's slack at the vertex mean, the vertices divided first: their sum overflows
        m0, m1 = (math.fsum(c / len(v) for c in cs) for cs in zip(*v))
        self._edges = [
            (n0, n1, o, o - (n0 * m0 + n1 * m1)) for (n0, n1), o in zip(normals, offsets)]

    vertices = property(lambda self: _rows(self._vertices))
    normals = property(lambda self: _rows([edge[:2] for edge in self._edges]))
    offsets = property(lambda self: _freezer(len(self._edges))([e[2] for e in self._edges]))

    def _depth(self, x0, x1):
        # the least ratio slack_e(x) / slack_e(vertex mean): 1 there, 0 on the boundary and
        # unchanged by affine maps, as a conic's q / q_min
        return functools.reduce(_minimum, [
            (offset - (n0 * x0 + n1 * x1)) / mean for n0, n1, offset, mean in self._edges])

    def _density(self, x0, x1, w):
        """Busemann density pi / area(unit Finsler ball) at x times w^2, over components
        and lengths w that are arrays of one shape (the quadrature's rays by radial
        nodes); callers set the numpy error state, as for ``_exits_paired``."""
        # F(v_i - x) = (1/t+ + 1/t-) / 2 from the chord kernel, as in finsler_norm.  F is
        # linear between the rays +-(v_i - x), so the unit ball is the polygon with vertices
        # +-(v_i - x) / F(v_i - x), here taken in units of w
        import numpy as np

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

    The sign is normalized so the quadratic part is positive definite and the interior is
    the sublevel set {q < 0}; construction rejects quadratic forms that are not ellipses
    with nonempty interior.  Queries go through the centred form q(x) = (x - center)^T A
    (x - center) + q_min, accurate far from the origin, whose centre and A / -q_min are kept
    once as floats; ``center`` is a read-only array built from them on access.  Its
    Hilbert geometry is the Klein model of the hyperbolic plane, so its areas are
    hyperbolic areas, in closed form (``busemann_area``).
    """

    def __init__(self, coeffs):
        given = [float(x) for x in coeffs]
        # a scale class: an exact power of two brings the largest of a, b, c into [1, 2)
        scale = 1 - math.frexp(max(map(abs, given[:3]), default=0.0))[1]
        try:
            coeffs = [math.ldexp(x, scale) for x in given]
        except OverflowError:  # d, e or f past the float range in units of a, b, c
            coeffs = []
        if len(coeffs) != 6 or not all(map(math.isfinite, coeffs)):
            raise ValueError("conic needs 6 coefficients, finite in units of max |a|, |b|, |c|")
        a, b, c, d, e, f = coeffs
        # a or c flushed to 0 leaves b^2 - 4ac >= 0; a flushed b cannot change its sign
        if (a == 0.0 != given[0]) or (c == 0.0 != given[2]):
            raise ValueError("conic's a, b, c span more than the float range: a nonzero a or c "
                             "is 0 in units of max |a|, |b|, |c|")
        if (disc := b * b - 4.0 * a * c) >= 0.0:
            raise ValueError("quadratic form does not cut out an oval (not an ellipse)")
        if a + c < 0.0:
            a, b, c, d, e, f = (-a, -b, -c, -d, -e, -f)
        # Cramer's rule for 2 A center = -(d, e), forward stable for 2 x 2 (Higham, "Accuracy
        # and Stability of Numerical Algorithms", 2nd ed., 1.10.1); q(center) = f + (d, e).center/2
        cx, cy = (2.0 * c * d - b * e) / disc, (2.0 * a * e - b * d) / disc
        self._init_centred(cx, cy, a, 0.5 * b, c, f + 0.5 * (d * cx + e * cy))

    def _init_centred(self, cx, cy, a, h, c, qmin) -> None:
        if not qmin < 0.0:
            raise ValueError("conic has an empty real locus")
        # one rounding, shared by every multiple of the conic
        f00, f01, f11 = a / -qmin, h / -qmin, c / -qmin
        if not all(map(math.isfinite, (qmin, f00, f01, f11))):
            raise ValueError(f"conic's form A / -q_min is not finite: q_min = {qmin!r}")
        self._entries = (f00, f01, f11, cx, cy)

    center = property(lambda self: _array2(self._entries[3:]))
    _form = property(lambda self: _rows([self._entries[:2], self._entries[1:3]]))

    @classmethod
    def disk(cls, center, radius: float) -> "ConicOval":
        (cx, cy), r = (float(v) for v in center), float(radius)
        if not (math.isfinite(cx) and math.isfinite(cy) and 2.0 ** -1022 <= r * r < math.inf):
            raise ValueError(
                f"disk needs a finite centre and a radius whose square is a normal float: {r!r}")
        # centred: cx^2 + cy^2 - r^2 cancels.  r^2 is normal: q_min = -r^2 keeps its bits
        oval = cls.__new__(cls)
        oval._init_centred(cx, cy, 1.0, 0.0, 1.0, -(r * r))
        return oval

    @classmethod
    def unit_circle(cls) -> "ConicOval":
        return cls.disk((0.0, 0.0), 1.0)

    def _depth(self, x0, x1):
        """q / q_min = 1 - d^T (A / -q_min) d at the offsets d = x - center: positive inside."""
        f00, f01, f11, c0, c1 = self._entries
        d0, d1 = x0 - c0, x1 - c1
        return 1.0 - ((d0 * f00 + d1 * f01) * d0 + (d0 * f01 + d1 * f11) * d1)

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


class Chord(_Record):
    """Boundary intersections p, q (read-only numpy arrays of two coordinates) of a
    line through two interior points; ``==`` and ``hash`` go by their coordinates.

    Ordered so that p, x, y, q are collinear in this order.
    """

    _fields = ("p", "q")

    def __init__(self, p, q):
        setattr_ = object.__setattr__  # frozen
        setattr_(self, "p", p)
        setattr_(self, "q", q)

    def _values(self) -> tuple:
        return tuple(tuple(map(float, end)) for end in (self.p, self.q))


def _coords(p) -> tuple:
    """A point's two coordinates as floats; - 0.0 keeps -0.0 and refuses a string."""
    x0, x1 = p
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
    return Chord(p=_array2((x0 - t_bwd * u0, x1 - t_bwd * u1)),
                 q=_array2((x0 + t_fwd * u0, x1 + t_fwd * u1)))


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
    homogeneous of degree 1 in the direction.  Raises NonFiniteResult where
    the norm passes the float range, as chord queries do.
    """
    x, (u0, u1), rho, t_fwd, t_bwd = _exits(dom, direction, x)
    if not ((u0 or u1) and math.isfinite(u0) and math.isfinite(u1)):
        raise ValueError("direction must be finite and nonzero")
    norm = 0.5 * (1.0 / t_fwd + 1.0 / t_bwd) * rho
    if norm == math.inf:
        raise NonFiniteResult(f"the norm at x = {list(x)} passes the float range")
    return norm


@functools.cache
def _kronrod_rule():
    """Gauss-Kronrod (7, 15) rule on [-1, 1] (QUADPACK, Piessens et al. 1983): the 15
    nodes, their Kronrod weights and the weights of the 7 Gauss nodes (0 elsewhere)."""
    import numpy as np

    # the nonnegative Kronrod nodes, their weights, and the weights of the Gauss nodes
    k15 = np.array([
        [0.991455371120812639, 0.949107912342758525, 0.864864423359769073, 0.741531185599394440,
         0.586087235467691130, 0.405845151377397167, 0.207784955007898468, 0.0],
        [0.022935322010529225, 0.063092092629978553, 0.104790010322250184, 0.140653259715525919,
         0.169004726639267903, 0.190350578064785410, 0.204432940075298892, 0.209482141084727828],
        [0.0, 0.129484966168869693, 0.0, 0.279705391489276668,
         0.0, 0.381830050505118945, 0.0, 0.417959183673469388],
    ])
    nodes = np.concatenate([-k15[0], k15[0, -2::-1]])
    kronrod, gauss = np.concatenate([k15[1:], k15[1:, -2::-1]], axis=1)
    return nodes, kronrod, gauss


@functools.cache
def _radial_rule():
    """Gauss-Legendre rule in the Hilbert distance along a ray."""
    import numpy as np

    return np.polynomial.legendre.leggauss(24)


def _smoothstep(t):
    return t * t * (3.0 - 2.0 * t)


def _polar_area(dom, region, rtol: float) -> float:
    """Busemann area of region, by quadrature to the relative tolerance rtol.

    The domain is a polygon.  The integral runs in polar coordinates about base, the
    region's centre (a conic) or vertex mean (a polygon).  Along the ray base + rho u the
    Hilbert distance from base is s, with rho(s) = t- t+ (e^{2s} - 1) / (t+ + t- e^{2s})
    for the chord exits t+-, so the radial integral (density w^2) ds,
    w^2 = rho drho / ds, is taken in s, where the integrand stays smooth up to
    the boundary.  In the angle, Gauss-Kronrod panels break where the integrand
    has kinks: at the directions of the region's and the domain's vertices and
    their opposites (kinks of the exits t+ and t-).  A polygon region in a
    triangle does not come here: ``_triangle_area`` gives its area exactly.  A
    conic region in a triangle does, with the density of every polygon.
    """
    import numpy as np

    base = region.center if isinstance(region, ConicOval) else region.vertices.mean(axis=0)
    b0, b1 = base.tolist()
    radial_x, radial_w = _radial_rule()
    gk_x, gk_w, g7_w = _kronrod_rule()

    def radial_integral(theta):
        u0, u1 = np.cos(theta), np.sin(theta)
        # the exits t+- from base along u and the region's exit rho; the region may touch
        # the boundary: never leave the domain
        tf, tb, _ = dom._exits_paired(b0, b1, u0, u1)
        rho = _minimum(region._exits_paired(b0, b1, u0, u1)[0], tf)
        # the distance to the region's exit: log1p of the cross ratio less 1, and expm1 below,
        # keep a region of small Hilbert size to rounding, where log(1 + z) and e^{2s} - 1 lose
        # eps / s
        s_max = 0.5 * np.log1p(rho * _div(1.0 + _div(tf, tb), tf - rho))
        tf, tb, s_max = tf[:, None], tb[:, None], s_max[:, None]
        finite = np.isfinite(s_max)
        half = 0.5 * np.where(finite, s_max, 0.0)
        grow_m1 = np.expm1(2.0 * half * (1.0 + radial_x))  # e^{2s} - 1, (m, N)
        grow = grow_m1 + 1.0
        # each exit divided by den first, so that no product of exits overflows
        den = tf + tb * grow
        near, far = tb / den, tf / den
        rho = grow_m1 * near * tf
        # the density in units of w, w^2 = rho d rho / ds, d rho / ds = 2 e^{2s} (near + far)
        # near t+: each factor rooted alone, as their product leaves the float range
        w = np.sqrt(rho) * np.sqrt(2.0 * grow * (near + far) * near * tf)
        density = dom._density(b0 + rho * u0[:, None], b1 + rho * u1[:, None], w)
        return np.where(finite[:, 0], half[:, 0] * (density @ radial_w), np.inf)

    def evaluate(rows):
        # row (start, length, lo, hi, estimate, error): t in [lo, hi] of the break panel
        # theta = start + length * smoothstep(t), flat at t = 0 and 1, so the growth towards
        # a vertex touching the boundary (1/sqrt on a conic) becomes smooth in t
        start, length, lo, hi = rows.T[:4, :, None]
        t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gk_x
        vals = radial_integral((start + length * _smoothstep(t)).ravel()).reshape(t.shape)
        vals *= 0.5 * (hi - lo) * length * 6.0 * t * (1.0 - t)
        rows[:, 4], rows[:, 5] = vals @ gk_w, np.abs(vals @ (gk_w - g7_w))
        return rows

    # break at the directions +-(v - base) of all vertices, and at the axes so
    # that no break panel is wider than a quarter turn
    rays = [shape.vertices - base for shape in (dom, region) if isinstance(shape, Polygon)]
    rays = np.concatenate(rays + [np.eye(2)])
    rays = np.concatenate([rays, -rays])
    angles = np.arctan2(rays[:, 1], rays[:, 0]) % (2.0 * math.pi)
    edges = np.unique(np.append(angles, 2.0 * math.pi))
    edges = np.concatenate([edges[:1], edges[1:][np.diff(edges) > _MIN_PANEL]])
    # one error state for the quadrature: an edge along u divides by 0 in the exits, and the
    # total comes out inf where e^{2s} overflows or a base on the boundary has depth 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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


def _depths(dom: ConvexDomain, region: ConvexDomain) -> list:
    """Depths of the domain whose least is its least over the region, exact to rounding:
    a polygon region's vertex depths (depth is concave), and for a conic region c + L w,
    |w| <= 1, L's columns its semi-axes (``_eigh2``), in a polygon, each edge's least
    slack offset - n.c - |L^T n| over its slack at the vertex mean."""
    if isinstance(region, Polygon):
        return [dom._depth(*p) for p in region._vertices]
    g00, g01, g11, e0, e1 = region._entries
    w_lo, w_hi, v0, v1 = _eigh2(g00, g01, g11)
    r_lo, r_hi = math.sqrt(w_lo), math.sqrt(w_hi)
    x0, x1, y0, y1 = v0 / r_lo, v1 / r_lo, -v1 / r_hi, v0 / r_hi
    reach = [(n0 * x0 + n1 * x1, n0 * y0 + n1 * y1) for n0, n1, _, _ in dom._edges]
    return [(offset - (n0 * e0 + n1 * e1) - math.sqrt(nx * nx + ny * ny)) / mean
            for (n0, n1, offset, mean), (nx, ny) in zip(dom._edges, reach)]


def _contained(*depths) -> float:
    """The least of the depths, once the region is accepted: depth is relative, 0 on the
    boundary, and a tangent region may fall short of 0 by rounding, so -1e-9 refuses."""
    if not (least := functools.reduce(_minimum, depths)) > -1e-9:
        raise RegionNotContained("integration region is not contained in the domain")
    return least


def _eigh2(a, b, c):
    """The eigenvalues lo <= hi of the symmetric [[a, b], [b, c]] and lo's unit eigenvector
    (v0, v1), hi's being (-v1, v0): one Jacobi rotation (Golub & Van Loan, "Matrix
    Computations", 4th ed., 2013, 8.5.2), which returns a diagonal matrix as it is."""
    if b == 0.0:
        return (a, c, 1.0, 0.0) if a <= c else (c, a, 0.0, 1.0)
    tau = (c - a) / (2.0 * b)
    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
    cs = 1.0 / math.sqrt(1.0 + t * t)
    sn = t * cs
    # the rotation [[cs, sn], [-sn, cs]] takes it to diag(a - t b, c + t b)
    lo, hi = a - t * b, c + t * b
    return (lo, hi, cs, -sn) if lo <= hi else (hi, lo, sn, cs)


# Li2(1) = pi^2 / 6, and the Bernoulli coefficients B_2k / (2k + 1)!, k = 9 down to 1, of
# Li2(x) = u - u^2 / 4 + sum_k B_2k u^(2k + 1) / (2k + 1)! in u = -log(1 - x)
_LI2_ONE = 1.6449340668482264
_LI2_SERIES = (4.518980029619918e-16, -1.9939295860721074e-14, 8.921691020456452e-13,
               -4.0647616451442256e-11, 1.8978869988971e-09, -9.185773074661964e-08,
               4.72411186696901e-06, -0.0002777777777777778, 0.027777777777777776)


def _li2(x: float) -> float:
    """The dilogarithm Li2(x) = -int_0^x log(1 - t) dt / t, for -1 <= x <= 1.

    On [-1, 1/2] the Bernoulli series in u = -log(1 - x), |u| <= log 2, which the
    terms above end at ~1e-19 relative; above 1/2 the reflection formula
    Li2(x) = pi^2 / 6 - log(x) log(1 - x) - Li2(1 - x) (Zagier, "The dilogarithm
    function", 2007).  Within 2 ulp of Li2 on 15 points of [-1, 1] (mpmath).
    """
    if x > 0.5:
        if x == 1.0:
            return _LI2_ONE
        return _LI2_ONE - math.log(x) * math.log1p(-x) - _li2(1.0 - x)
    u = -math.log1p(-x)
    u2 = u * u
    tail = 0.0
    for c in _LI2_SERIES:
        tail = tail * u2 + c
    return u + u2 * (u * tail - 0.25)


def _log_over_t(l0, t0, l1, t1, dt):
    """The integral of log(l) dt / t along an edge, from (l0, t0) to (l1, t1), dt = t1 - t0.

    l > 0 is a barycentric coordinate and t the offset of y from a pole of the Green
    potential, both linear along the edge, t of one sign.  With l = l_r + m t, l_r the
    value at t = 0, an antiderivative is A(t) = log(l_r) log|t| - Li2(w), w = 1 - l / l_r,
    taken where l_r > 0 and w >= -1; elsewhere the inversion formula's
    B(t) = log|t| (log|m| + log|t| / 2) + Li2(1 / w), which keeps the log(l_r)^2-sized
    terms of A off an edge whose line passes near a corner.  A - B is the constant
    pi^2 / 6 + log(|m| / l_r)^2 / 2 for l_r > 0, added where the two ends differ in form.
    Each end is evaluated from its own coordinates, so an end with l = 0 takes Li2(1)
    exactly.  At an end with t = 0 the term log(l_r) log|t| is dropped: the other edge
    there has the same l_r = l, and the two cancel.
    """
    # l_r from the end nearer t = 0, exact where that end has t = 0
    near_l, near_t = (l0, t0) if abs(t0) <= abs(t1) else (l1, t1)
    reach = near_t / dt
    if abs(reach) == math.inf:
        return 0.0  # dt / t underflows: the integral, ~log(l) dt / t, is below rounding
    lr = near_l - (l1 - l0) * reach
    ends = []
    for l, t in ((l0, t0), (l1, t1)):
        if t == 0.0:
            ends.append((True, 0.0))
        elif 0.0 < lr and l <= 2.0 * lr:
            ends.append((True, math.log(lr) * math.log(abs(t)) - _li2(1.0 - l / lr)))
        else:
            # l1 != l0 here: a constant l = l_r > 0 keeps w = 0
            log_m, log_t = math.log(abs(l1 - l0)) - math.log(abs(dt)), math.log(abs(t))
            ends.append((False, log_t * (log_m + 0.5 * log_t) + _li2(lr / (lr - l))))
    (form0, v0), (form1, v1) = ends
    if form0 != form1:
        shift = _LI2_ONE + 0.5 * (log_m - math.log(lr)) ** 2
        v0, v1 = (v0, v1 + shift) if form0 else (v0 + shift, v1)
    return v1 - v0


def _triangle_area(verts, base=None, radius: float = math.inf) -> float:
    """Busemann area of a convex polygon in the standard triangle, exact to rounding.

    verts are the polygon's counterclockwise vertices as barycentric coordinates
    (x, y, z), z = 1 - x - y, each at least 0.  With radius, the polygon is first
    truncated to the Hilbert ball of that radius about base (a triple too).

    The triangle is a normed plane in log-barycentric coordinates, whose density is
    pi / (12 x y z) (de la Harpe, "On Hilbert's metric for simplices", 1993), and
    F = log(x / z) / (y (1 - y)) has dF/dx = 1 / (x y z).  By Green's theorem the area
    is pi / 12 times the sum over the edges of the integral of F dy, which splits
    into the four integrals of log(l) / t dt, l in {x, z} and t in {y, y - 1}, that
    ``_log_over_t`` takes in closed form.  A vertex at a corner, or an edge along a
    side, is infinite area: there the log terms diverge rather than cancel.

    The Hilbert ball in a triangle is the hexagon p_j >= e^{-2R} (b_j / b_i) p_i
    (i != j) in barycentric coordinates p, a ball of the normed plane: where every one
    of its vertices lies in the polygon, no side cuts it and its area is pi R^2
    exactly, which the edge sum would give only to eps / R^2.  Otherwise the polygon
    is clipped to it (Sutherland-Hodgman), each crossing a combination of two vertices
    with weights in [0, 1], so that no coordinate rounds below 0 or underflows where
    the vertices do not.  From R ~ 372 on e^{-2R} is 0 and nothing is clipped.

    The error is a few ulp of the largest edge terms, ~log^2 of the least distance of
    a vertex to a side.  Against the 60-digit edge sum of tests/triangle_areas.py:
    at most 6.7e-16 relative for projkit area's defaults and 3.6e-15 over 40 random
    regions (untruncated and at R = 0.5, 2, 6); up to 1.9e-14 for R = 100 .. 360 with
    alpha from 0.5 down to 5e-324, where clipped vertices lie e^{-2R} from the sides.
    Where e^{-2R} b_j / b_i is subnormal (R ~ 354 .. 372) the hexagon's sides keep
    only its few bits, which moves the area of a region within that distance of a
    corner: 2.6e-6 for alpha = 5e-324 at R = 372.
    """
    if radius < math.inf:
        k = math.exp(-2.0 * radius)
        # the hexagon's vertices: p_i / b_i proportional to (1, k, k), (1, 1, k), permuted
        hexagon = [[b * w for b, w in zip(base, q)] for q in (
            (1.0, k, k), (k, 1.0, k), (k, k, 1.0), (1.0, 1.0, k), (1.0, k, 1.0), (k, 1.0, 1.0))]
        # det(p, q, h) >= 0 where h lies left of the edge p q
        if all((p[1] * q[2] - p[2] * q[1]) * h0 + (p[2] * q[0] - p[0] * q[2]) * h1
               + (p[0] * q[1] - p[1] * q[0]) * h2 >= 0.0
               for p, q in zip(verts, verts[1:] + verts[:1]) for h0, h1, h2 in hexagon):
            return math.pi * radius * radius
        for i in range(3):
            for j in range(3):
                if i != j:
                    verts = _clip(verts, i, j, k * (base[j] / base[i]))
    terms = []
    for p, q in zip(verts, verts[1:] + verts[:1]):
        if p.count(0.0) > 1 or any(a == b == 0.0 for a, b in zip(p, q)):
            return math.inf
        (x0, y0, z0), (x1, y1, z1) = p, q
        dy = y1 - y0
        if dy:
            # t = y at the side y = 0, and t = y - 1 = -(x + z) at the corner y = 1
            s0, s1 = -(x0 + z0), -(x1 + z1)
            terms += [_log_over_t(x0, y0, x1, y1, dy), -_log_over_t(x0, s0, x1, s1, dy),
                      -_log_over_t(z0, y0, z1, y1, dy), _log_over_t(z0, s0, z1, s1, dy)]
    return math.pi / 12.0 * math.fsum(terms)


def _clip(verts, i, j, c):
    """The part of the polygon verts (barycentric triples) where p_j >= c p_i."""
    out = []
    for p, q in zip(verts, verts[1:] + verts[:1]):
        fp, fq = p[j] - c * p[i], q[j] - c * q[i]
        if fp >= 0.0:
            out.append(p)
        if (fp >= 0.0) != (fq >= 0.0):
            wp, wq = fq / (fq - fp), fp / (fp - fq)
            out.append(tuple(wp * a + wq * b for a, b in zip(p, q)))
    return out


def _barycentric(corners, points):
    """Barycentric coordinates (x, y, z) of points in the triangle with these corners.

    The affine map taking the corners to (0, 0), (1, 0), (0, 1) takes a point to
    (x, y), and z = 1 - x - y.  Each coordinate is the slack of its own edge over that
    of the opposite corner, so it keeps its digits near that edge; a point within
    rounding outside an edge (the containment margin) is put on it.
    """
    # in units of powers of two, each largest value brought into [1, 2): of the corners, so
    # that no difference overflows (and a subnormal point of the standard triangle keeps its
    # bits), then of the sides, so that no product of differences underflows
    e = 1 - math.frexp(max(abs(c) for corner in corners for c in corner))[1]
    corners = [(math.ldexp(c0, e), math.ldexp(c1, e)) for c0, c1 in corners]
    points = [(math.ldexp(p0, e), math.ldexp(p1, e)) for p0, p1 in points]
    f = 1 - math.frexp(max(abs(u - v) for a in corners for b in corners for u, v in zip(a, b)))[1]
    coords = []
    for k in range(3):
        (a0, a1), (b0, b1), (c0, c1) = corners[k:] + corners[:k]
        e0, e1 = math.ldexp(b0 - a0, f), math.ldexp(b1 - a1, f)

        def slack(p0, p1):
            return e0 * math.ldexp(p1 - a1, f) - e1 * math.ldexp(p0 - a0, f)

        height = slack(c0, c1)
        coords.append([max(slack(p0, p1) / height, 0.0) for p0, p1 in points])
    # the slack of edge k (corner k to k + 1) is the coordinate of corner k + 2
    y, z, x = coords
    return list(zip(x, y, z))


def busemann_area(dom: ConvexDomain, region: ConvexDomain, cellsize: float) -> float:
    """Busemann (Hilbert) area of a convex region inside the domain.

    Three cases have their area in closed form, exact to rounding, and ``cellsize``
    has no effect on them: a polygon region in a triangle (``_triangle_area``: within
    1e-14 relative of a 60-digit reference on the tested cases), and any region in a
    conic, the Klein model of the hyperbolic plane, which ``projkit._klein._area``
    takes: a polygon as a fan of hyperbolic triangles, a conic by Bulirsch's ``cel``
    (``_conic_area`` states its error bound).  In a polygon with more than three sides,
    and for a conic region in a triangle, the density is integrated by polar quadrature
    (``_polar_area``) to the relative tolerance ``cellsize**2``, the error a midpoint
    grid of that cell size has on a smooth integrand.  The region may touch the domain
    boundary.  It has finite area when it touches it only at points of a polygon's
    edges, or of a conic at a polygon's vertices (ideal vertices).  ``math.inf`` means
    that it shares a boundary arc, that a conic region touches a conic domain, that a
    vertex lies past a conic within the containment margin, or that it has a vertex at
    a corner of a polygon domain: near a corner the Hilbert geometry is a simplex's, a
    normed plane in log coordinates (de la Harpe, "On Hilbert's metric for simplices",
    1993), where a wedge at the corner is an infinite half-strip.  A region that leaves
    the domain raises RegionNotContained (``_contained``).  A conic domain whose form
    is singular to rounding (``_klein._unit_frame``) raises NonFiniteResult, first for
    a conic region.
    """
    if not 0.0 < cellsize < math.inf:
        raise ValueError(f"cellsize must be positive and finite, got {cellsize}")
    if isinstance(dom, ConicOval):
        from ._klein import _area

        return _area(dom, region)
    _contained(*_depths(dom, region))
    if isinstance(region, Polygon):
        if len(dom._vertices) == 3:
            return _triangle_area(_barycentric(dom._vertices, region._vertices))
        if not set(region._vertices).isdisjoint(dom._vertices):
            return math.inf  # a vertex at a corner, as floats: exact (_triangle_area has its own)
    return _polar_area(dom, region, cellsize * cellsize)


def triangle_area_experiment(alpha: float, truncation: float, cellsize: float) -> float:
    """Busemann area of a truncated ideal triangle in the standard triangle.

    The ambient domain is the triangle with vertices (0,0), (1,0), (0,1); the
    inscribed triangle has vertices (0, 1/2), (alpha, 0), (1/2, 1/2), all on
    the boundary of the domain.  Its area is finite but grows without bound
    as alpha decreases toward 0 and the vertex (alpha, 0) nears the corner
    (0, 0).  Truncating to the Hilbert ball of the given radius around the
    inscribed triangle's barycenter makes the growth observable as a monotone
    sequence of finite areas.  The area is exact to rounding (see
    ``_triangle_area`` for the bound): ``cellsize`` is checked as in
    busemann_area and has no effect.
    """
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 1/2]")
    if not (0.0 < truncation < math.inf and 0.0 < cellsize < math.inf):
        raise ValueError("truncation and cellsize must be positive and finite")
    # the ball's centre is the region's vertex mean
    *region, base = _barycentric([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [
        (0.0, 0.5), (alpha, 0.0), (0.5, 0.5), ((0.5 + alpha) / 3.0, 1.0 / 3.0)])
    return _triangle_area(region, base, truncation)
