"""Hilbert metric: chords, distances, Finsler norms and Busemann areas."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import projkit as pk


def unit_circle():
    return pk.ConicOval.unit_circle()


def unit_square():
    return pk.Polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])


def standard_triangle():
    return pk.Polygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def affine_disk(m, shift, center, radius):
    """The conic m . disk(center, radius) + shift."""
    inv = np.linalg.inv(m)
    q = inv.T @ inv
    c = m @ np.asarray(center, dtype=float) + shift
    qc = q @ c
    return pk.ConicOval(
        [q[0, 0], 2.0 * q[0, 1], q[1, 1], -2.0 * qc[0], -2.0 * qc[1], c @ qc - radius**2]
    )


def clip(poly, f):
    """Sutherland-Hodgman: the part of a convex polygon where the affine f is >= 0."""
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        fp, fq = f(p), f(q)
        if fp >= 0.0:
            out.append(p)
        if (fp >= 0.0) != (fq >= 0.0):
            out.append(p + fp / (fp - fq) * (q - p))
    return out


def truncated_region(vertices, base, radius):
    """A polygon inside the standard triangle cut to the Hilbert ball about base.

    In barycentric coordinates p = (x, y, 1 - x - y) the ball is the hexagon
    p_i <= e^{2R} (b_i / b_j) p_j.
    """
    def bary(p):
        return np.array([p[0], p[1], 1.0 - p[0] - p[1]])

    b = bary(base)
    poly = [np.asarray(v, dtype=float) for v in vertices]
    for i in range(3):
        for j in range(3):
            if i != j:
                k = math.exp(2.0 * radius) * b[i] / b[j]
                poly = clip(poly, lambda p, i=i, j=j, k=k: k * bary(p)[j] - bary(p)[i])
    return np.array(poly)


class TestDomains:
    def test_clockwise_polygon_rejected(self):
        with pytest.raises(ValueError):
            pk.Polygon([[-1, -1], [-1, 1], [1, 1], [1, -1]])

    def test_collinear_polygon_rejected(self):
        with pytest.raises(ValueError):
            pk.Polygon([[0, 0], [1, 0], [2, 0], [0, 1]])

    def test_hyperbola_rejected(self):
        with pytest.raises(ValueError):
            pk.ConicOval([1, 0, -1, 0, 0, -1])

    def test_empty_conic_rejected(self):
        with pytest.raises(ValueError):
            pk.ConicOval([1, 0, 1, 0, 0, 1])

    def test_sign_normalization(self):
        dom = pk.ConicOval([-1, 0, -1, 0, 0, 1])  # negated unit circle
        assert dom.contains([0.0, 0.0])
        assert not dom.contains([2.0, 0.0])

    def test_contains(self):
        sq = unit_square()
        assert sq.contains([0.0, 0.0])
        assert not sq.contains([1.5, 0.0])
        assert not sq.contains([1.0, 0.0])  # boundary is not interior
        flags = sq.contains(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert list(flags) == [True, False]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4), st.floats(1.0, 1e3))
@example(1e4, 1e4, 1.0)
def test_disk_contains_points_near_boundary_far_from_origin(cx, cy, r):
    """c + (1 - 1e-12) r e1 is interior.  With r >= 1 and |c| <= 1e4 the rounded
    point stays inside, since 1e-12 r exceeds half a unit in the last place."""
    x = np.array([cx + (1.0 - 1e-12) * r, cy])
    assert (x[0] - cx) ** 2 + (x[1] - cy) ** 2 < r * r
    assert pk.ConicOval.disk((cx, cy), r).contains(x)


class TestChord:
    def test_circle_diameter(self):
        c = pk.chord(unit_circle(), [0.0, 0.0], [0.5, 0.0])
        assert c.p == pytest.approx([-1.0, 0.0], abs=1e-12)
        assert c.q == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_square_vertical(self):
        c = pk.chord(unit_square(), [0.0, 0.0], [0.0, 0.5])
        assert c.p == pytest.approx([0.0, -1.0], abs=1e-12)
        assert c.q == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_coincident_points(self):
        with pytest.raises(pk.CoincidentPoints):
            pk.chord(unit_circle(), [0.1, 0.2], [0.1, 0.2])

    def test_outside_point(self):
        with pytest.raises(pk.PointOutsideDomain):
            pk.chord(unit_circle(), [2.0, 0.0], [0.0, 0.0])
        # the message names the first exterior point
        for x, y, named in (([0, 0], [0, 3], "y = [0.0, 3.0]"), ([2, 0], [0, 3], "x = [2.0, 0.0]")):
            for query in (pk.chord, pk.hilbert_distance):
                with pytest.raises(pk.PointOutsideDomain, match=re.escape(f"point {named} is")):
                    query(unit_circle(), x, y)

    def test_endpoints_on_boundary_and_ordering(self):
        rng = np.random.default_rng(53)
        dom = unit_circle()
        for _ in range(100):
            x = rng.uniform(-0.6, 0.6, size=2)
            y = rng.uniform(-0.6, 0.6, size=2)
            if np.allclose(x, y):
                continue
            c = pk.chord(dom, x, y)
            assert np.linalg.norm(c.p) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(c.q) == pytest.approx(1.0, abs=1e-9)
            # p, x, y, q collinear in this order
            u = y - x
            tp = np.dot(c.p - x, u) / np.dot(u, u)
            tq = np.dot(c.q - x, u) / np.dot(u, u)
            assert tp < 0.0 < 1.0 < tq


class TestDistance:
    def test_half_log_three(self):
        d = pk.hilbert_distance(unit_circle(), [0.0, 0.0], [0.5, 0.0])
        assert d == pytest.approx(0.5 * math.log(3.0), rel=1e-12)

    def test_zero_iff_equal(self):
        assert pk.hilbert_distance(unit_circle(), [0.3, 0.1], [0.3, 0.1]) == 0.0
        assert pk.hilbert_distance(unit_circle(), [0.3, 0.1], [0.3, 0.1001]) > 0.0

    @pytest.mark.parametrize("r", [0.1 * k for k in range(1, 10)])
    def test_matches_klein_model(self, r):
        d = pk.hilbert_distance(unit_circle(), [0.0, 0.0], [r, 0.0])
        assert abs(d - math.atanh(r)) <= 1e-12

    def test_symmetry(self):
        dom = unit_square()
        a, b = [0.3, -0.5], [-0.2, 0.7]
        assert pk.hilbert_distance(dom, a, b) == pytest.approx(
            pk.hilbert_distance(dom, b, a), rel=1e-12
        )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(59)
        dom = unit_circle()
        for _ in range(1000):
            pts = rng.uniform(-0.7, 0.7, size=(3, 2))
            dxy = pk.hilbert_distance(dom, pts[0], pts[1])
            dyz = pk.hilbert_distance(dom, pts[1], pts[2])
            dxz = pk.hilbert_distance(dom, pts[0], pts[2])
            assert dxz <= dxy + dyz + 1e-9

    def test_sheared_ellipse_matches_circle(self):
        """Distances on the affine image of the disk (a conic with a cross
        term) agree with the disk distances of the preimages."""
        ellipse = pk.ConicOval([1.0, -1.0, 1.25, 0.0, 0.0, -1.0])
        a = np.array([[1.0, 0.5], [0.0, 1.0]])  # ellipse = a . unit disk
        circle = unit_circle()
        rng = np.random.default_rng(13)
        for _ in range(50):
            x, y = rng.uniform(-0.6, 0.6, size=(2, 2))
            base = pk.hilbert_distance(circle, x, y)
            moved = pk.hilbert_distance(ellipse, a @ x, a @ y)
            assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(61)
        square = [[-1, -1], [1, -1], [1, 1], [-1, 1]]
        for _ in range(50):
            a = rng.normal(size=(2, 2))
            if np.linalg.det(a) < 0.1:
                continue
            b = rng.uniform(-1.0, 1.0, size=2)
            x, y = rng.uniform(-0.8, 0.8, size=(2, 2))
            base = pk.hilbert_distance(pk.Polygon(square), x, y)
            imgs = [a @ np.asarray(v) + b for v in square]
            moved = pk.hilbert_distance(pk.Polygon(imgs), a @ x + b, a @ y + b)
            assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestFinslerNorm:
    def test_unit_at_center(self):
        assert pk.finsler_norm(unit_circle(), [0.0, 0.0], [1.0, 0.0]) == 1.0
        assert pk.finsler_norm(unit_circle(), [0.0, 0.0], [0.6, 0.8]) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_homogeneity(self):
        dom = unit_square()
        base = pk.finsler_norm(dom, [0.2, -0.3], [0.4, 0.5])
        assert pk.finsler_norm(dom, [0.2, -0.3], [2.0, 2.5]) == pytest.approx(
            5.0 * base, rel=1e-12
        )

    def test_off_center_chord_distances(self):
        assert pk.finsler_norm(unit_circle(), [0.5, 0.0], [1.0, 0.0]) == pytest.approx(
            4.0 / 3.0, rel=1e-12
        )

    def test_first_order_consistency(self):
        dom = unit_circle()
        x = np.array([0.3, -0.2])
        u = np.array([0.7, 0.4])
        norm = pk.finsler_norm(dom, x, u)
        errs = []
        for eps in (1e-3, 1e-4):
            d = pk.hilbert_distance(dom, x, x + eps * u)
            errs.append(abs(d - eps * norm) / eps)
        # the relative first-order defect shrinks linearly with eps
        assert errs[1] <= 0.2 * errs[0]
        assert errs[1] < 1e-4

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            pk.finsler_norm(unit_circle(), [0.0, 0.0], [0.0, 0.0])


class TestDensity:
    def test_triangle_closed_form(self):
        """The standard triangle's density is pi / (12 x y z), also next to an edge."""
        pts = np.array([
            [1.0 / 3.0, 1.0 / 3.0], [0.1, 0.7], [0.6, 0.2],
            [1e-5, 0.5], [0.3, 1e-5], [0.5, 0.5 - 1e-5],
        ])
        x, y = pts[:, 0], pts[:, 1]
        exact = math.pi / (12.0 * x * y * (1.0 - x - y))
        # 1e-5 from an edge, either formula loses ~eps / 1e-5 to the slack
        assert standard_triangle()._density(pts) == pytest.approx(exact, rel=1e-10)

    def test_klein_disk(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.3, -0.6], [0.0, 0.99]])
        exact = (1.0 - np.sum(pts**2, axis=1)) ** -1.5
        assert unit_circle()._density(pts) == pytest.approx(exact, rel=1e-12)


class TestBusemannArea:
    ORACLE = 2.0 * math.pi * (1.0 / math.sqrt(0.75) - 1.0)

    def test_klein_disk_oracle(self):
        area = pk.busemann_area(unit_circle(), pk.ConicOval.disk((0, 0), 0.5), 0.01)
        assert area == pytest.approx(self.ORACLE, rel=0.02)

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_klein_disk_exact(self, r):
        area = pk.busemann_area(unit_circle(), pk.ConicOval.disk((0, 0), r), 0.001)
        assert area == pytest.approx(2.0 * math.pi * (math.cosh(math.atanh(r)) - 1.0), rel=1e-9)

    def test_ellipse_matches_disk(self):
        """Areas are invariant under an affine map applied to domain and region."""
        m, shift = np.array([[1.0, 0.5], [-0.3, 1.2]]), np.array([0.3, -0.2])
        base = pk.busemann_area(unit_circle(), pk.ConicOval.disk((0.2, 0.1), 0.5), 1e-4)
        moved = pk.busemann_area(
            affine_disk(m, shift, (0.0, 0.0), 1.0), affine_disk(m, shift, (0.2, 0.1), 0.5), 1e-4
        )
        assert moved == pytest.approx(base, rel=1e-9)

    @pytest.mark.parametrize("region", ["disk", "quadrilateral"])
    def test_hexagon_projective_invariance(self, region):
        """Areas in a regular hexagon are invariant under a projective map p that
        keeps the hexagon's closure in the affine chart (its third row is
        positive there): the hexagon goes to a hexagon, a disk to an ellipse
        and a quadrilateral to a quadrilateral.  The hexagon's density is only
        piecewise smooth, so this checks the quadrature away from triangles."""
        p = np.array([[1.0, 0.2, 0.1], [-0.15, 0.9, 0.05], [0.25, -0.2, 1.0]])

        def move(pts):
            h = np.column_stack([pts, np.ones(len(pts))]) @ p.T
            return h[:, :2] / h[:, 2:]

        angles = math.pi / 3.0 * np.arange(6)
        hexagon = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        if region == "disk":
            (cx, cy), r = (0.1, -0.05), 0.4
            # the disk's homogeneous quadratic form, pulled back through p^-1
            conic = np.array([[1.0, 0.0, -cx], [0.0, 1.0, -cy], [-cx, -cy, cx * cx + cy * cy]])
            conic[2, 2] -= r * r
            inv = np.linalg.inv(p)
            c = inv.T @ conic @ inv
            before = pk.ConicOval.disk((cx, cy), r)
            after = pk.ConicOval([c[0, 0], 2 * c[0, 1], c[1, 1], 2 * c[0, 2], 2 * c[1, 2], c[2, 2]])
        else:
            quad = np.array([[-0.5, -0.3], [0.4, -0.5], [0.6, 0.4], [-0.3, 0.5]])
            before, after = pk.Polygon(quad), pk.Polygon(move(quad))
        cellsize = 1e-4
        base = pk.busemann_area(pk.Polygon(hexagon), before, cellsize)
        moved = pk.busemann_area(pk.Polygon(move(hexagon)), after, cellsize)
        assert moved == pytest.approx(base, rel=100.0 * cellsize**2)

    def test_grid_convergence(self):
        coarse = pk.busemann_area(unit_circle(), pk.ConicOval.disk((0, 0), 0.5), 0.02)
        fine = pk.busemann_area(unit_circle(), pk.ConicOval.disk((0, 0), 0.5), 0.01)
        assert abs(fine - coarse) / fine < 0.01

    def test_tiny_region(self):
        r, c = 1e-6, np.array([0.2, 0.2])
        tiny = pk.ConicOval.disk(c, r)
        exact = math.pi * r * r * (1.0 - c @ c) ** -1.5
        assert pk.busemann_area(unit_circle(), tiny, 0.01) == pytest.approx(exact, rel=1e-5)

    def test_monotone_under_inclusion(self):
        small = pk.busemann_area(unit_circle(), pk.ConicOval.disk((0, 0), 0.3), 0.01)
        large = pk.busemann_area(unit_circle(), pk.ConicOval.disk((0, 0), 0.5), 0.01)
        assert small < large

    def test_polygon_region(self):
        square = pk.Polygon([[-0.2, -0.2], [0.2, -0.2], [0.2, 0.2], [-0.2, 0.2]])
        area = pk.busemann_area(unit_circle(), square, 0.01)
        assert 0.16 < area < 0.2  # slightly above the Euclidean area 0.16

    def test_region_not_contained(self):
        with pytest.raises(pk.RegionNotContained):
            pk.busemann_area(unit_circle(), pk.ConicOval.disk((0, 0), 2.0), 0.05)

    def test_deterministic(self):
        region = pk.ConicOval.disk((0.1, 0), 0.4)
        a1 = pk.busemann_area(unit_circle(), region, 0.01)
        a2 = pk.busemann_area(unit_circle(), region, 0.01)
        assert a1 == a2

    def test_bad_cellsize(self):
        with pytest.raises(ValueError):
            pk.busemann_area(unit_circle(), pk.ConicOval.disk((0, 0), 0.5), 0.0)

    @pytest.mark.parametrize("cellsize", [math.nan, math.inf, -math.inf, -0.01])
    def test_non_finite_cellsize_rejected(self, cellsize):
        with pytest.raises(ValueError):
            pk.busemann_area(unit_circle(), pk.ConicOval.disk((0, 0), 0.5), cellsize)

    def test_klein_ideal_triangle(self):
        """An ideal triangle touches the boundary at three points; its area is pi."""
        angles = math.pi / 2.0 + 2.0 * math.pi / 3.0 * np.arange(3)
        ideal = pk.Polygon(np.stack([np.cos(angles), np.sin(angles)], axis=1))
        assert pk.busemann_area(unit_circle(), ideal, 0.001) == pytest.approx(math.pi, rel=1e-6)

    def test_ideal_triangle_in_triangle_is_limit_of_truncations(self):
        ideal = pk.Polygon([[0.0, 0.5], [0.25, 0.0], [0.5, 0.5]])
        area = pk.busemann_area(standard_triangle(), ideal, 0.001)
        # the truncation at Hilbert radius 12 leaves out less than 1e-9 of it
        truncated = pk.triangle_area_experiment(0.25, 12.0, 0.001)
        assert area == pytest.approx(truncated, rel=1e-6)

    def test_shared_boundary_arc_is_infinite(self):
        tri = standard_triangle()
        assert pk.busemann_area(tri, tri, 0.01) == math.inf
        assert pk.busemann_area(unit_circle(), unit_circle(), 0.01) == math.inf


class TestTriangleExperiment:
    def test_decreasing_in_alpha(self):
        areas = [
            pk.triangle_area_experiment(a, 3.0, 0.01) for a in (0.5, 0.25, 0.1)
        ]
        assert areas[0] < areas[1] < areas[2]

    def test_truncation_monotone(self):
        small = pk.triangle_area_experiment(0.25, 2.0, 0.01)
        large = pk.triangle_area_experiment(0.25, 4.0, 0.01)
        assert small <= large

    def test_symmetric_alpha_half_under_axis_swap(self):
        """The truncated region is the polygon region ∩ Hilbert hexagon.

        Integrating that polygon about its vertex mean, and its x <-> y mirror
        (a symmetry of the standard triangle), gives the same area as the
        experiment's integration about the barycenter with the truncation
        radius as a bound.
        """
        h = 1e-5
        direct = pk.triangle_area_experiment(0.5, 3.0, h)
        region = [[0.0, 0.5], [0.5, 0.0], [0.5, 0.5]]
        clipped = truncated_region(region, [1.0 / 3.0, 1.0 / 3.0], 3.0)
        dom = standard_triangle()
        assert pk.busemann_area(dom, pk.Polygon(clipped), h) == pytest.approx(direct, rel=1e-9)
        mirrored = pk.Polygon(clipped[::-1, ::-1])
        assert pk.busemann_area(dom, mirrored, h) == pytest.approx(direct, rel=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pk.triangle_area_experiment(0.6, 5.0, 0.01)
        with pytest.raises(ValueError):
            pk.triangle_area_experiment(0.25, -1.0, 0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_truncation_and_cellsize_rejected(self, bad):
        with pytest.raises(ValueError):
            pk.triangle_area_experiment(0.25, bad, 0.01)
        with pytest.raises(ValueError):
            pk.triangle_area_experiment(0.25, 5.0, bad)
