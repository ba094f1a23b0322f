"""Hilbert metric: chords, distances, Finsler norms and Busemann areas."""

import json
import math
import pathlib
import re
import sys
import time
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import projkit as pk
from conftest import assert_refuses
from projkit import _klein


def unit_circle():
    return pk.ConicOval.unit_circle()


def unit_square():
    return pk.Polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])


def standard_triangle():
    return pk.Polygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


# 60-digit areas of polygon regions in the standard triangle, from tests/triangle_areas.py
TRIANGLE_AREAS = {row["case"]: row for row in json.loads(
    pathlib.Path(__file__).with_name("triangle_areas.json").read_text())}


def reference_area(case):
    return float(TRIANGLE_AREAS[case]["area"])


# the untruncated inscribed triangles toward the corner, alpha from 1e-2 to 1e-300
_DIVERGENCE = [case for case in TRIANGLE_AREAS
               if case.endswith(" untruncated") and case != "alpha=0.5 untruncated"]


# 50-digit areas of conic regions in conic domains, from tests/conic_areas.py
CONIC_AREAS = {row["case"]: row for row in json.loads(
    pathlib.Path(__file__).with_name("conic_areas.json").read_text())}


def regular_hexagon():
    angles = math.pi / 3.0 * np.arange(6)
    return pk.Polygon(np.stack([np.cos(angles), np.sin(angles)], axis=1))


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

    @pytest.mark.parametrize("s", [1e-300, 1e-170, 1e-5, 1.0, 3.0, 11.0, 1e170, 1e200])
    def test_conic_coefficients_are_a_scale_class(self, s):
        """The unit circle's coefficients times s give the same distance and area, bit
        for bit.  b^2 - 4ac underflowed to 0 for s <= 1e-170 ("not an oval"), the
        density overflowed to an infinite area for s >= 1e170, and with A and q_min
        applied one after the other the area differed in its last bit at s = 1e-5, 11."""
        dom, unit = pk.ConicOval([s, 0.0, s, 0.0, 0.0, -s]), unit_circle()
        region = pk.ConicOval.disk((0.0, 0.0), 0.5)
        assert pk.hilbert_distance(dom, [0, 0], [0.5, 0]) == pk.hilbert_distance(unit, [0, 0], [0.5, 0])
        assert pk.busemann_area(dom, region, 0.01) == pk.busemann_area(unit, region, 0.01)

    @pytest.mark.parametrize("a, f", [(1.0, -1e300), (1.3, -1.3e160), (1.0, -1.69e308)])
    def test_huge_disk_from_coefficients(self, a, f):
        """a (x^2 + y^2) + f = 0 is the disk of radius sqrt(-f / a).  Scaling the
        coefficients by the largest of all six took a and c toward underflow: at
        f = -1e300 4ac was 0 ("not an oval"), at f = -1.3e160 det A was subnormal and
        the density 2e-5 off.  The area of the radius-1e150 disk was inf: the radial
        map overflowed; so did the cross ratio's product of exits at radius 1.3e154."""
        r = math.sqrt(-f / a)
        dom, disk = pk.ConicOval([a, 0.0, a, 0.0, 0.0, f]), pk.ConicOval.disk((0.0, 0.0), r)
        # the disk's constant term is the rounded r^2, not f / a
        assert pk.hilbert_distance(dom, [0, 0], [r / 2, 0]) == pytest.approx(
            pk.hilbert_distance(disk, [0, 0], [r / 2, 0]), rel=1e-15)
        region = pk.ConicOval.disk((0.0, 0.0), r / 2)
        area = pk.busemann_area(dom, region, 0.01)
        assert math.isfinite(area)
        assert area == pytest.approx(pk.busemann_area(disk, region, 0.01), rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_conic_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            pk.ConicOval([1.0, 0.0, 1.0, 0.0, 0.0, bad])

    def test_conic_past_the_float_range_rejected(self):
        """Its centre, -(d, e) / 2a, is ~5e309: d is not finite in units of a."""
        with pytest.raises(ValueError, match="finite"):
            pk.ConicOval([1e-300, 0.0, 1e-300, 1e10, 0.0, -1.0])

    @pytest.mark.parametrize("coeffs", [[1e-300, 0.0, 1e300, 0.0, 0.0, -1.0],
                                        [1e300, 1e-300, 5e-324, 0.0, 0.0, -1.0]])
    def test_conic_axes_past_the_float_range_rejected(self, coeffs):
        """Semi-axes 1e150 and 1e-150: scaling max |a|, |b|, |c| into [1, 2) flushed a
        (or c) to 0, and the ellipse was refused as "not an ellipse"; still refused, now
        for the coefficient range."""
        with pytest.raises(ValueError, match="span more than the float range"):
            pk.ConicOval(coeffs)

    def test_conic_whose_b_flushes_to_zero_is_accepted(self):
        """A b below the float range in units of a and c leaves the sign of b^2 - 4ac,
        so the ellipse stays accepted, as the circle it rounds to."""
        oval = pk.ConicOval([1e10, 5e-324, 1e10, 0.0, 0.0, -1e10])
        assert pk.hilbert_distance(oval, [0, 0], [0.5, 0]) == pk.hilbert_distance(
            unit_circle(), [0, 0], [0.5, 0])

    @pytest.mark.parametrize("center, radius", [
        ((0.0, 0.0), math.inf), ((math.nan, 0.0), 1.0), ((0.0, -math.inf), 1.0),
        ((0.0, 0.0), 1e160), ((0.0, 0.0), 1e-200), ((0.0, 0.0), 1e-155),
    ])
    def test_disk_refuses_what_it_cannot_hold(self, center, radius):
        """An infinite radius was accepted and its distances were nan, a non-finite
        centre was accepted, a radius past ~1.3e154 raised a bare OverflowError
        from r ** 2, one below ~1.5e-162, whose square underflows to 0, was
        refused as an empty real locus, and one whose square is subnormal was
        accepted with an overflowing A / -q_min."""
        with pytest.raises(ValueError, match="finite.*radius"):
            pk.ConicOval.disk(center, radius)

    def test_subnormal_q_min(self):
        """At q_min = -1e-310, A / -q_min overflowed (a numpy warning) and the conic
        refused its own centre; a subnormal q_min whose form is finite still works."""
        with pytest.raises(ValueError, match="q_min"):
            pk.ConicOval([1, 0, 1, 0, 0, -1e-310])
        tiny = pk.ConicOval([1, 0, 1, 0, 0, -2e-308])
        assert pk.hilbert_distance(tiny, (0, 0), (1e-160, 0)) == 7.071067811866653e-07

    def test_sign_normalization(self):
        dom = pk.ConicOval([-1, 0, -1, 0, 0, 1])  # negated unit circle
        assert dom.contains([0.0, 0.0])
        assert not dom.contains([2.0, 0.0])

    def test_polygon_near_the_float_range(self):
        """A vertex at 1e308: the edge normals overflowed and came out zero."""
        dom = pk.Polygon([[-1, -1], [1e308, -1], [1, 1], [-1, 1]])
        assert np.all(np.abs(np.linalg.norm(dom.normals, axis=1) - 1.0) <= 1e-15)
        assert dom.contains([0.0, 0.0]) and not dom.contains([0.0, 1.5])

    def test_contains(self):
        sq = unit_square()
        assert sq.contains([0.0, 0.0])
        assert not sq.contains([1.5, 0.0])
        assert not sq.contains([1.0, 0.0])  # boundary is not interior
        flags = sq.contains(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert list(flags) == [True, False]

    @pytest.mark.parametrize("dom", [unit_square(), unit_circle()], ids=["square", "disk"])
    @pytest.mark.parametrize("pts", [
        [], [0.5], [0.5, 0.5, 9.0, 9.0], [[0.5, 0.5, 9.0, 9.0]], [[0.5], [0.5]], 0.5,
        np.zeros((1, 2, 2)), np.zeros((0,)), np.zeros((3, 3))])
    def test_contains_refuses_other_shapes(self, dom, pts):
        """Only a point, shape (2,), or a batch, shape (n, 2), is read: [0.5, 0.5, 9, 9]
        answered for its first two numbers, [[x, y, z, w]] was read as two points and []
        raised IndexError."""
        with pytest.raises(ValueError, match="shape"):
            dom.contains(pts)
        assert dom.contains(np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("dom", [unit_square(), unit_circle()], ids=["square", "disk"])
    def test_contains_non_finite(self, dom):
        """A NaN or infinite coordinate is not interior, as the chord queries' refusal
        has it; inf times a zero normal entry raised numpy's invalid-value warning."""
        for p in ([math.inf, 0.0], [-math.inf, 0.0], [0.0, math.nan], [math.nan, -math.inf]):
            assert dom.contains(p) is False
        assert dom.contains([[0.0, 0.0], [math.inf, 0.0], [0.0, math.nan]]).tolist() == [
            True, False, False]

    @pytest.mark.parametrize("make", [
        lambda: pk.Polygon(_hexagon()),
        lambda: pk.ConicOval([2.309, -1.149, 1.102, -1.909, -1.611, -8.26]),
        lambda: pk.ConicOval.disk((3.0, -1.0), 0.5)], ids=["hexagon", "conic", "disk"])
    def test_one_copy_read_only(self, make):
        """Each domain keeps its geometry once, as floats; its arrays are read-only views
        of exactly the floats the kernels read, and no instance attribute is an array."""
        dom = make()
        assert not any(isinstance(v, np.ndarray) for v in vars(dom).values())
        if isinstance(dom, pk.Polygon):
            views = {"vertices": [list(p) for p in dom._vertices],
                     "normals": [[n0, n1] for n0, n1, _, _ in dom._edges],
                     "offsets": [offset for _, _, offset, _ in dom._edges]}
        else:
            f00, f01, f11, c0, c1 = dom._entries
            views = {"center": [c0, c1], "_form": [[f00, f01], [f01, f11]]}
        for name, floats in views.items():
            array = getattr(dom, name)
            assert array.dtype == np.float64 and array.tolist() == floats
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0

    def test_centre_cannot_leave_the_kernels(self):
        """The centre was a writable array apart from the kernels' floats: after
        d.center[0] = 5.0 distances were unchanged and this area raised
        RegionNotContained."""
        d = pk.ConicOval([1, 0, 1, -0.2, 0, -1])
        distance, area = pk.hilbert_distance(d, [0.1, 0], [0.2, 0]), pk.busemann_area(
            d, pk.ConicOval.disk((0.1, 0), 0.3), 0.01)
        with pytest.raises(ValueError):
            d.center[0] = 5.0
        assert d.center.tolist() == [0.1, 0.0]
        assert pk.hilbert_distance(d, [0.1, 0], [0.2, 0]) == distance
        assert pk.busemann_area(d, pk.ConicOval.disk((0.1, 0), 0.3), 0.01) == area

    def test_string_coordinates_refused(self):
        """np.asarray read the polygon vertex "1" as 1.0, where a chord point "1" is refused."""
        with pytest.raises(TypeError):
            pk.chord(unit_circle(), ["0.1", 0], [0.2, 0])
        with pytest.raises(TypeError):
            pk.Polygon([[0, 0], ["1", 0], [0, 1]])


def _centre_coeffs(cx, cy, angle, ratio, size):
    """An ellipse about (cx, cy): axes at angle, eigenvalues 1 and ratio, q_min ~ -size."""
    co, si = math.cos(angle), math.sin(angle)
    a, c, b = co * co + ratio * si * si, si * si + ratio * co * co, 2.0 * (1.0 - ratio) * si * co
    d, e = -(2.0 * a * cx + b * cy), -(b * cx + 2.0 * c * cy)
    return [a, b, c, d, e, a * cx * cx + b * cx * cy + c * cy * cy - size]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(0.0, math.pi),
       st.floats(-8.0, 0.0).map(lambda k: 10.0 ** k), st.floats(0.1, 10.0))
@example(0.7, -1.3, 0.5, 0.3, 1.0)  # tilted and off-centre
@example(999.5, -1000.0, 1.1, 0.05, 2.0)  # a centre near 1e3
@example(3.0, 2.0, 0.8, 1e-8, 1.0)  # 4ac - b^2 ~ 4e-8 (a + c)^2
@example(0.0, 2.2250738585e-313, 0.0, 10.0 ** -1.5, 1.0)  # a subnormal centre
def test_conic_centre_within_its_condition(cx, cy, angle, ratio, size):
    """ConicOval's centre lies within 2 kappa eps (relative, 2-norm) of the exact solution
    of 2 A x = -(d, e) for its float coefficients, in fractions, kappa the condition
    number of 2 A: Cramer's rule is forward stable for 2 x 2 systems (Higham, "Accuracy
    and Stability of Numerical Algorithms", 2nd ed., 1.10.1).  Over 20,000 seeded
    ellipses of this family the worst error was 0.82 kappa eps (LAPACK's solve: 0.77).
    Below 2^-1022 the floats are 2^-1074 apart, which the bound adds in quadrature:
    the subnormal centre y = 2.2250738582e-313 is the float nearest the exact one, 0.46
    of that spacing off, and 1.4e3 kappa eps relative."""
    coeffs = _centre_coeffs(cx, cy, angle, ratio, size)
    a, b, c, d, e, _ = map(Fraction, coeffs)
    det = 4 * a * c - b * b
    exact = ((b * e - 2 * c * d) / det, (b * d - 2 * a * e) / det)
    top = float(a + c) + math.sqrt(float((a - c) ** 2 + b * b))  # the larger eigenvalue of 2 A
    kappa = top * top / float(det)
    err = sum((Fraction(got) - want) ** 2 for got, want in zip(
        pk.ConicOval(coeffs).center.tolist(), exact))
    assert err <= Fraction(2.0 * kappa * sys.float_info.epsilon) ** 2 * sum(
        want * want for want in exact) + Fraction(2.0 ** -1074) ** 2


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

    @pytest.mark.parametrize("x", [[0.1, 0.2], [-0.7, 0.3], [0.0, 0.0], [1e-300, -0.5]])
    def test_adjacent_floats_have_a_chord(self, x):
        """y one float away from x spans a line, and its chord ends on the circle.  A
        relative 1e-15 threshold on |y - x| used to refuse it as coincident."""
        x = np.array(x)
        c = pk.chord(unit_circle(), x, np.nextafter(x, 1.0))
        assert np.all(np.abs(unit_circle()._depth(*np.stack([c.p, c.q]).T)) <= 1e-12)

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


def _hexagon():
    angles = math.pi / 3.0 * np.arange(6)
    return np.stack([1.0 + 2.0 * np.cos(angles), -1.0 + 2.0 * np.sin(angles)], axis=1)


# each case is a domain and what places its boundary points, by a parameter a in
# [0, 1): a conic's m, shift, c and r give m (c + r e^{2 pi i a}) + shift, and a
# polygon's vertices give the point at a share a of its perimeter's edges
_ELLIPSE = (np.array([[1.0, 0.5], [-0.3, 1.2]]), np.array([0.3, -0.2]), (0.2, 0.1), 0.5)
NEAR_BOUNDARY_DOMAINS = [
    (unit_circle(), np.eye(2), np.zeros(2), (0.0, 0.0), 1.0),
    (pk.ConicOval.disk((3.0, -2.0), 0.7), np.eye(2), np.zeros(2), (3.0, -2.0), 0.7),
    (affine_disk(*_ELLIPSE), *_ELLIPSE),
    (unit_square(), np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])),
    (standard_triangle(), np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
    (pk.Polygon(_hexagon()), _hexagon()),
]


def _boundary_point(case, a):
    if isinstance(case[0], pk.Polygon):
        verts = case[1]
        i, s = divmod(a * len(verts), 1.0)
        i = int(i)
        return verts[i] + s * (verts[(i + 1) % len(verts)] - verts[i]), verts.mean(axis=0)
    _, m, shift, c, r = case
    phi = 2.0 * math.pi * a
    c = np.asarray(c)
    return m @ (c + r * np.array([math.cos(phi), math.sin(phi)])) + shift, m @ c + shift


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(
    st.integers(0, len(NEAR_BOUNDARY_DOMAINS) - 1),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 0.95),
    st.integers(-4, 4),
)
def test_near_boundary_chord_and_distance_agree(k, a, f, ulps):
    """y a boundary point moved -4..4 ulps along the chord from an interior x:
    chord and hilbert_distance both raise PointOutsideDomain or both answer,
    with a finite distance.  They decided y apart (a containment test and
    then the exit solve), and a y within rounding of the boundary gave
    ZeroDivisionError or a math domain error."""
    case = NEAR_BOUNDARY_DOMAINS[k]
    dom = case[0]
    y, centre = _boundary_point(case, a)
    x = centre + f * (_boundary_point(case, (a + 0.5) % 1.0)[0] - centre)
    for _ in range(abs(ulps)):  # outwards for ulps > 0
        y = np.nextafter(y, y + math.copysign(1.0, ulps) * (y - x))
    answers = []
    for query in (pk.chord, pk.hilbert_distance):
        try:
            answers.append(query(dom, x, y))
        except pk.PointOutsideDomain:
            answers.append(None)
    assert (answers[0] is None) == (answers[1] is None)
    if answers[1] is not None:
        assert math.isfinite(answers[1]) and answers[1] > 0.0
        assert np.all(np.isfinite(answers[0].p)) and np.all(np.isfinite(answers[0].q))


def _atanh_50(r: float) -> Decimal:
    """atanh(r) = log((1 + r) / (1 - r)) / 2 of the float r, to 50 digits."""
    x = Decimal(r)
    with localcontext() as ctx:
        ctx.prec = 60 - min(0, x.adjusted())  # 1 + r keeps all digits of a tiny r
        return ((1 + x) / (1 - x)).ln() / 2


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.floats(1e-300, 1.0 - 1e-12) | st.integers(1, 12).map(lambda k: 1.0 - 10.0**-k))
@example(1e-300)
@example(1e-160)
@example(1e-150)
@example(1e-10)
@example(1.0 - 1e-12)
@example(1.0 - 1e-9)
@example(1.0 - 1e-6)
def test_distance_is_backward_stable(r):
    """d(0, (r, 0)) on the unit disk is atanh(r).  Its relative error stays within
    8 cond(r) eps, cond(r) = r / ((1 - r^2) atanh r) the condition number of
    atanh at r: the digits lost near the boundary are the problem's own (one
    rounding of r moves atanh(r) by as much), and short distances keep theirs,
    down to 1e-300: the exit solve runs on (r, 0) rescaled by a power of two,
    where u^T A u underflowed below r ~ 1e-154."""
    d = pk.hilbert_distance(unit_circle(), [0.0, 0.0], [r, 0.0])
    cond = r / ((1.0 - r * r) * math.atanh(r)) if r > 1e-8 else 1.0
    ref = _atanh_50(r)
    assert abs(Decimal(d) - ref) <= Decimal(8.0 * cond * 2.0**-52) * ref


@pytest.mark.parametrize("r", [1e-160, 1e-300])
def test_tiny_step_distance_on_a_conic(r):
    d = pk.hilbert_distance(unit_circle(), [0.0, 0.0], [r, 0.0])
    assert abs(Decimal(d) - _atanh_50(r)) <= Decimal(8.0 * 2.0**-52 * r)


def rim(dom):
    """Boundary points: a polygon's vertices, 256 equally spaced in a conic's
    eccentric angle."""
    if isinstance(dom, pk.Polygon):
        return dom.vertices
    w, vecs = np.linalg.eigh(dom._form)
    radii = 1.0 / np.sqrt(w)
    phi = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    circle = np.stack([radii[0] * np.cos(phi), radii[1] * np.sin(phi)], axis=1)
    return dom.center[None, :] + circle @ vecs.T


_FAR_DISK = pk.ConicOval.disk((3e5, -2e5), 1.0)
SCALE_DOMAINS = [
    unit_circle(), pk.ConicOval([2.0, 0.7, 1.0, 0.3, -0.2, -1.5]), _FAR_DISK, unit_square()
]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    st.integers(0, len(SCALE_DOMAINS) - 1),
    st.integers(0, 255),
    st.integers(0, 255),
    st.floats(0.0, 0.99),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.integers(-1000, 1000),
)
@example(0, 0, 128, 0.5, (1.0, 0.5), -600)
@example(1, 3, 200, 0.9, (-0.3, 0.7), -1000)
@example(2, 10, 90, 0.2, (0.6, -0.8), 1000)
@example(3, 0, 2, 0.3, (0.5, 0.25), 600)
def test_finsler_norm_scales_exactly(k, i, j, f, v, power):
    """finsler_norm(x, 2^j v) is 2^j finsler_norm(x, v) exactly wherever that is a
    normal float: the exit solve sees v rescaled by a power of two, whatever its
    size.  A conic's u^T A u underflowed below |v| ~ 1e-154, and the polygon's norm
    of v overflowed past ~1e154 and underflowed to 0 below ~1e-162."""
    dom = SCALE_DOMAINS[k]
    pts = rim(dom)
    centre, chord_mid = pts.mean(axis=0), 0.5 * (pts[i % len(pts)] + pts[j % len(pts)])
    x = centre + f * (chord_mid - centre)
    v = np.array(v)
    scaled = np.ldexp(v, power)
    assume(v.any() and np.array_equal(np.ldexp(scaled, -power), v))
    base = pk.finsler_norm(dom, x, v)
    assume(sys.float_info.min <= min(base, base * 2.0**power) and base * 2.0**power < math.inf)
    assert pk.finsler_norm(dom, x, scaled) == base * 2.0**power


class TestDistance:
    @pytest.mark.parametrize("verts, x, y, expected", [
        ([[-1, -1], [1e308, -1], [1, 1], [-1, 1]], [0.18240924359246036] * 2,
         [1.4366681146128056e307, 0.6881984436753196], 355.298697288858688913370002956),
        # x at a subnormal distance from the edge behind it
        ([[0, 0], [1, 0], [0, 1]], [1e-310, 0.25], [0.5, 0.25], 357.103421968131164741311306889),
    ])
    def test_past_the_cross_ratio_overflow(self, verts, x, y, expected):
        """Cross ratios past the float range: it overflowed and the distance was inf.
        The references are the chords' exact cross ratios, to 30 digits."""
        assert pk.hilbert_distance(pk.Polygon(verts), x, y) == pytest.approx(expected, rel=1e-14)

    def test_exit_at_the_smallest_subnormal(self):
        """t- (t+ - 1) underflowed to 0 and the cross ratio raised ZeroDivisionError.
        The exit behind x = (5e-324, 0.25) has one significant bit, so the distance
        is good to that only: the exact value is 372.7693."""
        d = pk.hilbert_distance(pk.Polygon([[0, 0], [1, 0], [0, 1]]), [5e-324, 0.25], [0.6, 0.25])
        assert d == pytest.approx(372.769342105024686, rel=1e-3)

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

    @pytest.mark.parametrize("direction", [[math.nan, 0.0], [math.inf, 0.0], [1.0, -math.inf]])
    def test_non_finite_direction_rejected(self, direction):
        """An infinite direction gave NaN."""
        for dom in (unit_circle(), unit_square()):
            with pytest.raises(ValueError, match="finite and nonzero"):
                pk.finsler_norm(dom, [0.0, 0.0], direction)


_KERNEL_DOMAINS = [
    unit_circle(), pk.ConicOval.disk((3e5, -2e5), 1.0), affine_disk(*_ELLIPSE),
    unit_square(), standard_triangle(), pk.Polygon(_hexagon()),
]


def _same(a, b):
    """Equal floats with the same sign, or both NaN."""
    return (a != a and b != b) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


_COORD = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.integers(0, len(_KERNEL_DOMAINS) - 1),
    st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD, st.integers(-1, 5)), min_size=1, max_size=6),
)
# a corner, where the depth is 0.0 and -0.0 over two edges: numpy's minimum takes the second
@example(4, [(0.0, -0.0, 0.0, 0.0, 0)])
def test_float_kernel_is_the_array_kernel(k, rows):
    """The chord kernel on Python floats gives row i of the same kernel on (n,)
    arrays, bit for bit: inside and outside, for zero, non-finite and edge-parallel
    steps (an index e >= 0 takes the step along the polygon's edge e)."""
    dom = _KERNEL_DOMAINS[k]
    if isinstance(dom, pk.Polygon):
        edges = np.roll(dom.vertices, -1, axis=0) - dom.vertices
        rows = [(x0, x1, *edges[e % len(edges)].tolist()) if e >= 0 else (x0, x1, u0, u1)
                for x0, x1, u0, u1, e in rows]
    cols = [np.array(c) for c in zip(*[row[:4] for row in rows])]
    with np.errstate(all="ignore"):
        batch = dom._exits_paired(*cols)
    for i, row in enumerate(rows):
        scalar = dom._exits_paired(*row[:4])
        assert all(type(v) is float for v in scalar)
        assert all(_same(v, col[i]) for v, col in zip(scalar, batch)), (row, scalar)


@pytest.mark.parametrize("dom", _KERNEL_DOMAINS, ids=lambda d: type(d).__name__)
class TestFloatKernelOutcomes:
    """The scalar queries' answers where a float operation raises and numpy did not."""

    def test_coincident_points(self, dom):
        x = rim(dom).mean(axis=0).tolist()
        with pytest.raises(pk.CoincidentPoints):
            pk.chord(dom, x, x)
        assert pk.hilbert_distance(dom, x, list(x)) == 0.0

    @pytest.mark.parametrize("direction", [[0.0, 0.0], [-0.0, 0.0], [math.nan, 1.0], [0.0, math.inf]])
    def test_zero_or_non_finite_direction(self, dom, direction):
        with pytest.raises(ValueError, match="finite and nonzero"):
            pk.finsler_norm(dom, rim(dom).mean(axis=0), direction)

    @pytest.mark.parametrize("x, y", [
        ([math.nan, 0.0], None), (None, [math.nan, 0.0]), ([math.inf, 0.0], None),
        (None, [0.0, -math.inf]), ([1e6, 1e6], None), (None, [-1e6, 3.0]),
    ])
    def test_nan_or_exterior_point(self, dom, x, y):
        centre = rim(dom).mean(axis=0).tolist()
        named = "x" if x is not None else "y"
        x, y = x or centre, y or centre
        for query in (pk.chord, pk.hilbert_distance):
            with pytest.raises(pk.PointOutsideDomain, match=f"point {named} = "):
                query(dom, x, y)
        if named == "x":
            with pytest.raises(pk.PointOutsideDomain):
                pk.finsler_norm(dom, x, [1.0, 0.0])


class TestFloatRange:
    """The square with vertices +-1.5e308, where a chord's slack or step passes the float
    range: a named error, not a wrong number."""

    SQUARE = pk.Polygon([[-1.5e308, -1.5e308], [1.5e308, -1.5e308], [1.5e308, 1.5e308],
                         [-1.5e308, 1.5e308]])

    def test_overflowing_exit(self):
        """The slack 2e308 of the far edge overflows: the distance was NaN (exact log 2),
        the chord's q [inf, nan] and the norm 5e-309 (exact 7.5e-309)."""
        x, y = (-5e307, 0.0), (5e307, 0.0)
        for query, *args in ((pk.hilbert_distance, x, y), (pk.chord, x, y),
                             (pk.finsler_norm, x, (1.0, 0.0))):
            with pytest.raises(pk.NonFiniteResult, match="passes the float range"):
                query(self.SQUARE, *args)

    def test_overflowing_step(self):
        """y - x = 2e308 overflowed and y was called exterior."""
        for query in (pk.hilbert_distance, pk.chord):
            with pytest.raises(pk.NonFiniteResult, match="passes the float range"):
                query(self.SQUARE, (-1e308, 0.0), (1e308, 0.0))

    def test_overflowing_norm(self):
        """A finite direction whose norm passes the float range: the norm was inf."""
        for dom in (pk.ConicOval.unit_circle(), unit_square()):
            with pytest.raises(pk.NonFiniteResult, match="passes the float range"):
                pk.finsler_norm(dom, [0.5, 0.0], [1.7e308, 1.7e308])
        assert pk.finsler_norm(pk.ConicOval.unit_circle(), [0.5, 0.0], [1e307, 1e307]) < math.inf

    def test_in_range_queries(self):
        """contains ignores numpy's overflow warning (an error in this suite): an overflowed
        slack keeps its sign.  Queries whose exits stay in range still answer."""
        assert self.SQUARE.contains([-5e307, 0.0])
        assert self.SQUARE.contains([[1.4e308, -1.4e308], [-1.6e308, 0.0]]).tolist() == [True, False]
        assert pk.hilbert_distance(self.SQUARE, (0.0, 0.0), (1e307, 0.0)) == pytest.approx(
            math.atanh(1.0 / 15.0), rel=1e-14)
        assert pk.finsler_norm(self.SQUARE, (0.0, 0.0), (1.0, 0.0)) == pytest.approx(
            1.0 / 1.5e308, rel=1e-14)


def test_refusals():
    """Refusals that no other test reaches raise their own error and message."""
    assert_refuses(lambda: pk.Polygon([[0.0, 0.0], [1.0, 0.0], [math.nan, 1.0]]), ValueError,
                   "polygon vertices must be finite")


@pytest.mark.parametrize("dom", [unit_square(), pk.Polygon(_hexagon())], ids=["square", "hexagon"])
def test_direction_along_an_edge(dom):
    """A step parallel to an edge never meets it (a float division by 0 raised): the
    answers are those of a direction 1e-9 off the edge, to first order."""
    x = dom.vertices.mean(axis=0)
    u = dom.vertices[1] - dom.vertices[0]
    off = u + np.array([-u[1], u[0]]) * 1e-9
    c, ref = pk.chord(dom, x, x + 0.25 * u), pk.chord(dom, x, x + 0.25 * off)
    assert np.allclose(c.p, ref.p, atol=1e-8) and np.allclose(c.q, ref.q, atol=1e-8)
    assert pk.finsler_norm(dom, x, u) == pytest.approx(pk.finsler_norm(dom, x, off), rel=1e-8)
    assert pk.hilbert_distance(dom, x, x + 0.25 * u) == pytest.approx(
        pk.hilbert_distance(dom, x, x + 0.25 * off), rel=1e-8)


class TestDensity:
    def test_triangle_closed_form(self):
        """The standard triangle's density is pi / (12 x y z), also next to an edge, and
        so is the density times s^2 of the triangle with legs s at the points scaled by
        s: the unit ball is taken in units of the length w = s."""
        pts = np.array([
            [1.0 / 3.0, 1.0 / 3.0], [0.1, 0.7], [0.6, 0.2],
            [1e-5, 0.5], [0.3, 1e-5], [0.5, 0.5 - 1e-5],
        ])
        x, y = pts[:, 0], pts[:, 1]
        exact = math.pi / (12.0 * x * y * (1.0 - x - y))
        # 1e-5 from an edge, the density loses ~eps / 1e-5 to the slack
        for s in (1.0, 1e-300, 1e300):
            legs = pk.Polygon(s * standard_triangle().vertices)
            assert legs._density(*(s * pts).T, s) == pytest.approx(exact, rel=1e-10)
        # an affine image, no angle right and no two sides equal, divides it by |det a|
        a, b = np.array([[2.2, -1.0], [0.6, 2.1]]), np.array([0.3, -0.2])
        image = pk.Polygon(standard_triangle().vertices @ a.T + b)
        density = image._density(*(pts @ a.T + b).T, 1.0)
        assert density == pytest.approx(exact / np.linalg.det(a), rel=1e-10)

    @pytest.mark.parametrize("half", [
        [[math.cos(a), math.sin(a)] for a in math.pi / 3.0 * np.arange(3)],
        [[2.0, 0.0], [1.5, 1.0], [0.5, 1.5], [-1.0, 1.5]],
    ], ids=["regular-hexagon", "octagon"])
    def test_centre_of_a_symmetric_polygon(self, half):
        """At the centre of a centrally symmetric polygon the unit ball is the polygon
        itself, so the density is pi / area.  In the octagon the ray to (2, 0) is
        parallel to an edge: the kernel divides by 0 there, under the caller's state."""
        v = np.array(half + [[-x, -y] for x, y in half])
        area = 0.5 * math.fsum(v[k - 1, 0] * v[k, 1] - v[k, 0] * v[k - 1, 1] for k in range(len(v)))
        with np.errstate(divide="ignore"):
            density = pk.Polygon(v)._density(np.zeros(1), np.zeros(1), np.ones(1))[0]
        assert density == pytest.approx(math.pi / area, rel=4e-16, abs=0.0)


class TestBusemannArea:
    ORACLE = 2.0 * math.pi * (1.0 / math.sqrt(0.75) - 1.0)

    def test_klein_disk_oracle(self):
        area = pk.busemann_area(unit_circle(), pk.ConicOval.disk((0, 0), 0.5), 0.01)
        assert area == pytest.approx(self.ORACLE, rel=0.02)

    def test_domain_past_1e102(self):
        """The radial map's derivative was a product cubic in the chord exits, which
        overflowed for exits past ~5e102: the area came out inf.  The Busemann area is
        invariant under scaling domain and region together."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = pk.busemann_area(pk.ConicOval.disk((0, 0), 1e150),
                                   pk.ConicOval.disk((0, 0), 5e149), 0.01)
        unit = pk.busemann_area(unit_circle(), pk.ConicOval.disk((0, 0), 0.5), 0.01)
        assert big == pytest.approx(unit, rel=1e-12)

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
        area = pk.busemann_area(unit_circle(), tiny, 0.01)
        # abs=0.0: approx's default abs of 1e-12 is 28% of this area
        assert area == pytest.approx(exact, rel=1e-5, abs=0.0)

    @pytest.mark.parametrize("r", [1e-9, 1e-12, 1e-150])
    def test_small_hilbert_size_to_rounding(self, r):
        """Below r = 1e-9 the density varies by less than 1e-18 over the disk, so the
        area is pi r^2 (1 - |c|^2)^-1.5 to rounding.  The log of a cross ratio near 1
        and e^{2s} - 1 lost eps / s (1.7e-5 off at r = 1e-12); at r = 1e-150 a base
        point off the centre by rounding overflowed the exits (inf), the centre gave 0.0."""
        c = np.array([0.1, 0.2])
        exact = math.pi * r * r * (1.0 - c @ c) ** -1.5
        area = pk.busemann_area(unit_circle(), pk.ConicOval.disk(c, r), 0.01)
        assert area == pytest.approx(exact, rel=1e-14, abs=0.0)

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

    def test_edge_between_rim_samples_is_refused(self):
        """The unit disk in a quadrilateral whose edge cuts 3e-5 into it, its normal
        halfway between two of the 256 rim points that used to decide containment:
        the disk was accepted and its area came out inf."""
        n = np.array([math.cos(math.pi / 256), math.sin(math.pi / 256)])
        t, d = np.array([-n[1], n[0]]), 1.0 - 3e-5
        quad = pk.Polygon([d * n - 3.0 * t, d * n + 3.0 * t, [-4.0, 3.0], [-4.0, -3.0]])
        with pytest.raises(pk.RegionNotContained):
            pk.busemann_area(quad, unit_circle(), 0.01)

    @pytest.mark.parametrize("s, p, shift", [(1e-3, 1e-6, 0.0), (1e-6, 1e-4, 0.0),
                                             (1.0, 1e-4, 1e6)], ids=["small", "tiny", "far"])
    def test_polygon_margin_is_relative(self, s, p, shift):
        """A triangle leaving the square [-s, s]^2 + (shift, 0) by p of its size: with the
        depth's old scale max(1, max |vertex|) the margin was absolute below size 1 and
        grew with the distance from the origin, and the areas came out 1.37, inf, inf."""
        r = s * (1.0 + p)
        square = pk.Polygon([[shift - s, -s], [shift + s, -s], [shift + s, s], [shift - s, s]])
        tri = pk.Polygon([[shift - r, -r / 2], [shift + r, -r / 2], [shift, r / 2]])
        with pytest.raises(pk.RegionNotContained):
            pk.busemann_area(square, tri, 0.01)

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

    def test_vertex_at_a_corner_is_infinite(self):
        """The triangle on alternate vertices of a regular hexagon: near a corner the
        geometry is a simplex's, in which a wedge at the corner is an infinite
        half-strip.  The quadrature stopped at its panel cap at 36.1 (cellsize 1e-5).
        Pulled in by 1 - eps the area is finite and grows ~2.5 per decade of eps."""
        hexagon = regular_hexagon()
        tri = hexagon.vertices[::2]
        assert pk.busemann_area(hexagon, pk.Polygon(tri), 1e-5) == math.inf
        near, far = (pk.busemann_area(hexagon, pk.Polygon((1.0 - eps) * tri), 1e-3)
                     for eps in (1e-4, 1e-2))
        assert far + 5.0 < near < math.inf

    @pytest.mark.parametrize("s", [3e-307, 1e-306, 1e-305, 1e-300, 1e-200, 1e-160, 1e-100,
                                   1e100, 1e153, 1e154, 1e155, 1e200, 1e300])
    def test_polygon_area_at_every_scale(self, s):
        """The square [-s, s]^2 and a triangle in it.  In absolute units the density
        (~1 / s^2) and the ball's shoelace (~s^2) left the float range: the area was inf
        at s = 1e-160 and from 1e155 on, 0.0 at 1e154.  In units of the length w, w^2 =
        rho d rho / ds, it keeps its value to 4 ulp; in units of the radius rho, against
        d rho / rho, it was inf from s = 1e-305 down.  So does a triangle in the triangle
        with legs s, whose area is the exact edge sum over barycentric coordinates, each a
        ratio of slacks in power-of-two units, to 16 ulp (5 measured): its vertices scale
        exactly, but the slacks are products in the mantissa of s, which round differently."""
        def area(s):
            square = pk.Polygon([[-s, -s], [s, -s], [s, s], [-s, s]])
            triangle = pk.Polygon([[0.0, 0.0], [s, 0.0], [0.0, s]])
            return [pk.busemann_area(square, pk.Polygon([[-s / 2, -s / 4], [s / 2, -s / 4],
                                                         [0.0, s / 4]]), 1e-3),
                    pk.busemann_area(triangle, pk.Polygon([[s / 8, s / 4], [s / 2, s / 8],
                                                           [s / 4, s / 2]]), 1e-3)]
        for at_s, unit, ulps in zip(area(s), area(1.0), (4.0, 16.0)):
            assert abs(at_s - unit) <= ulps * math.ulp(unit)

    def test_refinement_ends_with_nothing_left_to_split(self, monkeypatch):
        """At cellsize 1e-300 the tolerance is 0, so refinement ends where every panel's
        error is at rounding level or its width at the floor, before the panel cap: a cap
        4 times as high gives the same bits, and the value is the converged one."""
        hexagon = regular_hexagon()
        quad = pk.Polygon([[-0.5, -0.3], [0.4, -0.5], [0.6, 0.4], [-0.3, 0.5]])
        area = pk.busemann_area(hexagon, quad, 1e-300)
        monkeypatch.setattr(pk.hilbert, "_MAX_PANELS", 4 * pk.hilbert._MAX_PANELS)
        assert pk.busemann_area(hexagon, quad, 1e-300) == area
        assert area == pytest.approx(pk.busemann_area(hexagon, quad, 1e-6), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("center, radius, image", [
        ((0.3, 0.3), 0.2, None), ((0.25, 0.25), 0.2, None), ((0.1, 0.1), 0.05, None),
        ((0.2, 0.5), 0.1, None), ((0.3, 0.25), 0.15, ([[2.2, -1.0], [0.6, 2.1]], [0.3, -0.2])),
    ], ids=["centre", "near-two-sides", "near-corner", "off-centre", "affine"])
    def test_conic_region_in_a_triangle_by_greens_theorem(self, center, radius, image):
        """A disk in the standard triangle, or an affine image of both: the reference is
        pi / 12 times the integral of log(x / z) / (y (1 - y)) dy round the disk, whose
        x-derivative is the density pi / (12 x y z) over pi / 12 (Green's theorem).  The
        periodic trapezoid rule converges geometrically on a disk off the sides: 4096
        and 8192 points agree to rounding."""
        theta = 2.0 * math.pi * np.arange(4096) / 4096
        x, y = center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)
        f = np.log(x / (1.0 - x - y)) / (y * (1.0 - y)) * radius * np.cos(theta)
        reference = math.pi / 12.0 * 2.0 * math.pi / len(theta) * math.fsum(f)
        m, shift = (np.eye(2), np.zeros(2)) if image is None else map(np.array, image)
        dom = pk.Polygon(standard_triangle().vertices @ m.T + shift)
        cellsize = 1e-4
        area = pk.busemann_area(dom, affine_disk(m, shift, center, radius), cellsize)
        assert area == pytest.approx(reference, rel=100.0 * cellsize**2)

    def test_shared_boundary_arc_is_infinite(self):
        tri = standard_triangle()
        assert pk.busemann_area(tri, tri, 0.01) == math.inf
        assert pk.busemann_area(unit_circle(), unit_circle(), 0.01) == math.inf
        # crossing the boundary within the margin, centred on it: its part inside the
        # disk shares an arc with the boundary; the density at the centre divided by 0
        assert pk.busemann_area(unit_circle(), pk.ConicOval.disk((1, 0), 1e-13), 0.01) == math.inf


class TestConicDomainAreas:
    """A conic domain is the Klein model: its areas are in closed form, Bulirsch's complete
    elliptic integral or a series for a conic region and a fan of hyperbolic triangles for
    a polygon."""

    @pytest.mark.parametrize("case", list(CONIC_AREAS))
    def test_decimal_reference(self, case):
        """Each area of the committed 50-digit reference within the bound _conic_area
        states, 8 eps (1 + 2 pi / area) + eps / d relative, d the least depth of the
        domain over the region; the reference is of the conics as projkit stores them."""
        import conic_areas

        row = CONIC_AREAS[case]
        dom, region = (conic_areas.build(row[key]) for key in ("domain", "region"))
        assert [list(dom._entries), list(region._entries)] == row["entries"]
        area, ref = pk.busemann_area(dom, region, 0.01), float(row["area"])
        eps = sys.float_info.epsilon
        depth = _klein._least_depth(*_klein._normal_form(dom, region))
        bound = 8.0 * eps * (1.0 + 2.0 * math.pi / ref) + eps / depth
        assert abs(area - ref) <= bound * ref

    @pytest.mark.parametrize("case", [case for case in CONIC_AREAS if case.startswith("needle")])
    def test_needles(self, case):
        """A needle of half-width 1e-100 (area ~1e-99) gave -8.9e-16 or 1.8e-15, and one
        of half-width 1e-154 gave inf: 2 pi + area in the cel form keeps none of their
        digits.  The series takes every region whose cel form falls below the area of the
        centred disk at m = 4, and each needle's area is positive and within the stated
        60 eps + eps / d of the reference."""
        import conic_areas

        row = CONIC_AREAS[case]
        dom, region = (conic_areas.build(row[key]) for key in ("domain", "region"))
        area, ref = pk.busemann_area(dom, region, 0.01), float(row["area"])
        depth = _klein._least_depth(*_klein._normal_form(dom, region))
        eps = sys.float_info.epsilon
        assert 0.0 < area < math.inf
        assert abs(area - ref) <= (60.0 * eps + eps / depth) * ref

    def test_thin_regions_at_the_margin_return_at_once(self):
        """The series needs about 1 / d terms for a thin region at depth d (1.7e7, 9 s, at
        d = 2e-6), and near the containment margin it would not end.  Past 50,000 terms the
        cel form is kept where it keeps a digit, and refused where it keeps none: at d =
        2e-12 both answers come at once.  An area kept grows with the region: the needle of
        half-width 1e-2 reaching to d = 2e-12 holds the ones reaching to 2e-9 and 2e-3."""
        dom = pk.ConicOval.unit_circle()

        def needle(d, width):
            return pk.ConicOval([1.0 / (1.0 - d / 2.0) ** 2, 0.0, width**-2, 0.0, 0.0, -1.0])

        start = time.perf_counter()
        areas = [pk.busemann_area(dom, needle(d, 1e-2), 0.01) for d in (2e-3, 2e-9, 2e-12)]
        assert_refuses(lambda: pk.busemann_area(dom, needle(2e-12, 1e-100), 0.01),
                       pk.NonFiniteResult, "the area of the region keeps no digit")
        assert time.perf_counter() - start < 1.0
        assert 0.0 < areas[0] < areas[1] < areas[2] < math.inf

    def test_reference_matches_its_generator(self):
        """The committed reference is what tests/conic_areas.py writes, shown on the
        cheapest case."""
        import conic_areas

        row = CONIC_AREAS["small off-centre disk"]
        assert format(conic_areas.area(*row["entries"]), ".30e") == row["area"]

    @pytest.mark.parametrize("case", [case for case, row in CONIC_AREAS.items()
                                      if row["region"].get("disk", [None])[0] == [0.0, 0.0]])
    def test_centred_disks_match_their_closed_form(self, case):
        """A centred disk of stored form p (x^2 + y^2) <= 1 in the unit disk has the area
        2 pi (sqrt(p / (p - 1)) - 1): the reference's quadrature agrees with it to the
        digits it writes."""
        import conic_areas

        row = CONIC_AREAS[case]
        assert row["domain"] == conic_areas.UNIT
        with localcontext() as ctx:
            ctx.prec = 50
            p = Decimal(row["entries"][1][0])
            exact = 2 * conic_areas._pi() * ((p / (p - 1)).sqrt() - 1)
            assert abs(Decimal(row["area"]) / exact - 1) <= Decimal("1e-29")

    def test_near_the_boundary_of_the_unit_disk(self):
        """The stored disk r = 1 - 1e-12 has the area 2 pi (sqrt(p / (p - 1)) - 1), p its
        stored form's entry, p - 1 exact; the quadrature missed it by 3.9e-5 at cellsize
        1e-4, where it was asked for 1e-8."""
        region = pk.ConicOval.disk((0.0, 0.0), 1.0 - 1e-12)
        p = region._entries[0]
        exact = 2.0 * math.pi * (math.sqrt(p / (p - 1.0)) - 1.0)
        assert pk.busemann_area(unit_circle(), region, 1e-4) == pytest.approx(
            exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("dom, vertices", [
        ("circle", [[math.cos(a), math.sin(a)] for a in math.pi / 2.0 + 2.0 * math.pi / 3.0
                    * np.arange(3)]),
        ("circle", [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        ("hexagonal",
         [[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, -1.0]]),
    ], ids=["triangle", "square", "hexagon"])
    def test_ideal_polygons(self, dom, vertices):
        """An ideal polygon with E vertices has the area (E - 2) pi.  The vertices have
        depth 0 as floats: on the unit circle, and on x^2 + xy + y^2 = 1."""
        dom = unit_circle() if dom == "circle" else pk.ConicOval([1.0, 1.0, 1.0, 0.0, 0.0, -1.0])
        assert all(dom._depth(*v) == 0.0 for v in vertices)
        exact = (len(vertices) - 2) * math.pi
        area = pk.busemann_area(dom, pk.Polygon(vertices), 0.01)
        assert abs(area - exact) <= 4.0 * math.ulp(exact)

    def test_tiny_triangle_keeps_its_digits(self):
        """A triangle of size 1e-100 in the unit disk, against its fan term in 50-digit
        decimals, where atan(t) = t to far beyond that precision.  The angle sum
        pi - sum theta would give 0.0."""
        verts = [[1e-100, 2e-100], [-3e-100, 1e-100], [-1e-100, -2.5e-100]]
        with localcontext() as ctx:
            ctx.prec = 50
            (x, y), (z, w), (u, v) = [[Decimal(c) for c in p] for p in verts]
            depth = [1 - a * a - b * b for a, b in ((x, y), (z, w), (u, v))]
            polar = [1 - x * z - y * w, 1 - z * u - w * v, 1 - u * x - v * y]
            roots = [d.sqrt() for d in depth]
            den = (roots[0] * roots[1] * roots[2] + polar[0] * roots[2] + polar[1] * roots[0]
                   + polar[2] * roots[1])
            exact = 2 * abs((z - x) * (v - y) - (w - y) * (u - x)) / den
        area = pk.busemann_area(unit_circle(), pk.Polygon(verts), 0.01)
        assert area == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("s", [1e-150, 1e150])
    def test_polygon_area_at_every_scale(self, s):
        """A quadrilateral in the disk of radius s, both scaled from unit size: its area
        keeps the unit size's to 4 ulp."""
        quad = [[-0.5, -0.3], [0.4, -0.5], [0.6, 0.4], [-0.3, 0.5]]

        def area(s):
            dom = pk.ConicOval.disk((0.0, 0.0), s)
            return pk.busemann_area(dom, pk.Polygon([[s * x, s * y] for x, y in quad]), 0.01)

        assert abs(area(s) - area(1.0)) <= 4.0 * math.ulp(area(1.0))

    def test_cellsize_has_no_effect(self):
        """cellsize is validated and then unused: each area is the same float at every
        cellsize."""
        ellipse = pk.ConicOval([2.309, -1.149, 1.102, -1.909, -1.611, -8.26])
        for dom, region in ((unit_circle(), pk.ConicOval.disk((0.3, -0.2), 0.5)),
                            (ellipse, pk.Polygon([[0.0, 0.0], [1.5, 0.3], [1.4, 2.0]]))):
            assert len({pk.busemann_area(dom, region, h) for h in (0.5, 1e-3, 1e-300)}) == 1

    def test_form_singular_to_rounding_refused(self):
        """x^2 + (2 - 2^-52) xy + y^2 = 1.125 is an ellipse, but its stored form A / -q_min
        has three equal entries: a strip, whose areas raise NonFiniteResult, as a chord
        along it does.  The quadrature gave 6.5e-19 for this triangle and inf for the disk."""
        dom = pk.ConicOval([1.0, 2.0 - 2.0 ** -52, 1.0, 0.0, 0.0, -1.125])
        for region in (pk.ConicOval.disk((0.0, 0.0), 1e-3),
                       pk.Polygon([[-0.1, 0.1], [0.0, 0.0], [0.1, -0.1 + 1e-9]])):
            with pytest.raises(pk.NonFiniteResult, match="singular to rounding"):
                pk.busemann_area(dom, region, 0.01)

    def test_infinite_where_the_region_reaches_the_boundary(self):
        """A disk tangent to the unit circle, or a vertex past it within the containment
        margin, leaves an infinite area; a vertex on the circle is ideal, with a finite one."""
        u = unit_circle()
        assert pk.busemann_area(u, pk.ConicOval.disk((0.5, 0.0), 0.5), 0.01) == math.inf
        outside = pk.Polygon([[1.0 + 1e-10, 0.0], [-0.5, 0.5], [-0.5, -0.5]])
        assert pk.busemann_area(u, outside, 0.01) == math.inf
        on = pk.Polygon([[1.0, 0.0], [-0.5, 0.5], [-0.5, -0.5]])
        assert 1.0 < pk.busemann_area(u, on, 0.01) < math.pi


def _reference_least_depth(dom, region):
    """The least depth of dom over the region's boundary, in 50-digit decimals: the
    least of 128 samples of a boundary parametrisation, each local minimum among them
    refined by golden-section search.  Depth is concave, so it is least on the
    boundary.  A polygon region's vertices are samples; a conic region's boundary
    point in direction u is c + u sqrt(-q_min / u^T A u), u running round the square
    [-1, 1]^2.  A conic is read as its stored form A / -q_min, so q_min = -1, and a
    polygon's depth is each edge's slack over its slack at the vertex mean."""

    def dec(a):
        return [dec(x) for x in a] if isinstance(a, list) else Decimal(a)

    with localcontext() as ctx:
        ctx.prec = 50
        if isinstance(region, pk.Polygon):
            verts = dec(region.vertices.tolist())

            def rim(t):
                k = int(t * len(verts))
                f, a, b = t * len(verts) - k, verts[k], verts[(k + 1) % len(verts)]
                return [a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1])]
        else:
            (rc0, rc1), ((ra, rh), (_, rb)), rq = dec(region.center.tolist()), dec(
                region._form.tolist()), Decimal(-1)

            def rim(t):
                k = int(8 * t) // 2
                f = 8 * t - 2 * k - 1
                u0, u1 = [(1, f), (-f, 1), (-1, -f), (f, -1)][k]
                r = (-rq / (ra * u0 * u0 + 2 * rh * u0 * u1 + rb * u1 * u1)).sqrt()
                return [rc0 + r * u0, rc1 + r * u1]
        if isinstance(dom, pk.Polygon):
            vs = dec(dom.vertices.tolist())
            mean = [sum(v[i] for v in vs) / len(vs) for i in range(2)]
            edges = [(p, q[0] - p[0], q[1] - p[1]) for p, q in zip(vs, vs[1:] + vs[:1])]
            edges = [(p, dx, dy, dx * (mean[1] - p[1]) - dy * (mean[0] - p[0]))
                     for p, dx, dy in edges]

            def depth(x):
                return min((dx * (x[1] - p[1]) - dy * (x[0] - p[0])) / n for p, dx, dy, n in edges)
        else:
            (c0, c1), ((a, h), (_, b)), q = dec(dom.center.tolist()), dec(
                dom._form.tolist()), Decimal(-1)

            def depth(x):
                d0, d1 = x[0] - c0, x[1] - c1
                return 1 + (a * d0 * d0 + 2 * h * d0 * d1 + b * d1 * d1) / q

        def f(t):
            return depth(rim(t % 1 + (t < 0)))

        n = 128
        vals = [f(Decimal(i) / n) for i in range(n)]
        best = min(vals)
        golden = (Decimal(5).sqrt() - 1) / 2
        for i in range(n):
            if vals[i] <= vals[i - 1] and vals[i] <= vals[(i + 1) % n]:
                lo, hi = Decimal(i - 1) / n, Decimal(i + 1) / n
                x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
                f1, f2 = f(x1), f(x2)
                for _ in range(50):
                    if f1 < f2:
                        hi, x2, f2 = x2, x1, f1
                        x1 = hi - golden * (hi - lo)
                        f1 = f(x1)
                    else:
                        lo, x1, f1 = x1, x2, f2
                        x2 = lo + golden * (hi - lo)
                        f2 = f(x2)
                best = min(best, f1, f2)
        return best


def _rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


def _near_tangent_pair(kind, shape, axes, shift, contact, size, jitter, eps):
    """A domain and a region touching it at one point, the region then moved outwards
    by eps (inwards for eps < 0) in units of the domain's size.

    kind 0: an ellipse domain and its image under x -> p + T (x - p), p on its
    boundary, T = size (I + s t t^T) with t the tangent at p and s = jitter[0]; for
    (1 + s)^2 > 1 / size the image crosses the boundary near p.
    kind 1: a polygon with vertices on an ellipse, at angles jittered about equal
    steps from the contact angle, and an ellipse touching its first edge.
    kind 2: an ellipse and a polygon with such vertices on it, all but the first
    pulled inwards by up to 5%.
    """
    m = _rotation(shape) @ np.diag(axes)
    shift = np.asarray(shift)
    dom = affine_disk(m, shift, (0.0, 0.0), 1.0)
    if kind == 0:
        w = np.array([math.cos(contact), math.sin(contact)])
        p, nu = m @ w + shift, np.linalg.solve(m.T, w)
        nu /= np.linalg.norm(nu)
        t = np.array([-nu[1], nu[0]])
        big_t = size * (np.eye(2) + jitter[0] * np.outer(t, t))
        moved = p + big_t @ (shift - p) + eps * max(axes) * nu
        return dom, affine_disk(big_t @ m, moved, (0.0, 0.0), 1.0)
    k = len(jitter)
    angles = 2.0 * math.pi * (np.arange(k) + 0.6 * np.asarray(jitter)) / k + contact
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1) @ m.T
    if kind == 2:
        pull = np.concatenate([[1.0 + eps], 1.0 - 0.05 * np.asarray(jitter[1:])])
        return dom, pk.Polygon(pts * pull[:, None] + shift)
    poly = pk.Polygon(pts + shift)
    a, b = poly.vertices[0], poly.vertices[1]
    touch = a + size * (b - a) + eps * max(1.0, np.abs(poly.vertices).max()) * poly.normals[0]
    lm = _rotation(contact) @ np.diag([0.5 * size, 0.2 + 0.3 * jitter[0]]) * min(axes)
    reach = lm @ (lm.T @ poly.normals[0])
    return poly, affine_disk(lm, touch - reach / np.linalg.norm(lm.T @ poly.normals[0]),
                             (0.0, 0.0), 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 2),
    st.floats(0.0, math.pi),
    st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.1, 0.9),
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=7),
    st.just(0.0) | st.builds(lambda i, s: s * 10.0 ** (i / 1000.0), st.integers(-11000, -7000),
                             st.sampled_from([-1.0, 1.0])),
)
# each kind on each side of the margin, eps = s 10^(i / 1000) at i = -9010 and -8990; kind 1
# in a diamond, where a depth scaled by max(1, max |vertex|) reads -eps and is accepted
@example(0, 0.7, (1.0, 2.0), (1.0, -2.0), 1.0, 0.5, [0.1, 0.0, 0.0, 0.0], 10.0 ** -9.01)
@example(0, 0.7, (1.0, 2.0), (1.0, -2.0), 1.0, 0.5, [0.1, 0.0, 0.0, 0.0], -(10.0 ** -8.99))
@example(1, 0.3, (2.0, 0.5), (1.0, -2.0), 0.0, 0.5, [0.0, 0.0, 0.0, 0.0], 10.0 ** -9.01)
@example(1, 0.3, (2.0, 0.5), (1.0, -2.0), 0.0, 0.5, [0.0, 0.0, 0.0, 0.0], -(10.0 ** -8.99))
@example(2, 0.4, (2.0, 1.0), (1.0, 0.0), 2.0, 0.5, [0.3, 0.2, 0.6, 0.1, 0.5], 10.0 ** -9.01)
@example(2, 0.4, (2.0, 1.0), (1.0, 0.0), 2.0, 0.5, [0.3, 0.2, 0.6, 0.1, 0.5], -(10.0 ** -8.99))
def test_containment_agrees_with_a_decimal_reference(kind, shape, axes, shift, contact, size,
                                                      jitter, eps):
    """busemann_area refuses a region exactly when the domain's least depth over it is at
    most -1e-9, outside a 1e-12 band about that margin.  The reference minimises over
    the region's boundary in 50-digit decimals.  The examples pin the margin's cases:
    the generated ones are drawn from a pool that holds the package's float literals, so
    they move when those change."""
    dom, region = _near_tangent_pair(kind, shape, axes, shift, contact, size, jitter, eps)
    ref = _reference_least_depth(dom, region)
    try:
        pk.busemann_area(dom, region, 10.0)  # only the decision counts: the coarsest quadrature
        accepted = True
    except pk.RegionNotContained:
        accepted = False
    if abs(ref + Decimal("1e-9")) > Decimal("1e-12"):
        assert accepted == (ref > Decimal("-1e-9")), float(ref)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-8.0, -0.5 * math.log10(2.0)))
@example(-8.0)
@example(-0.5 * math.log10(2.0))
def test_cel_meets_legendres_relation(log_kc):
    """_cel's K = cel(kc, 1, 1, 1) and E = cel(kc, 1, 1, kc^2), at kc and at its complement
    k = sqrt(1 - kc^2), meet Legendre's relation E K' + E' K - K K' = pi / 2 to 4 eps K K'.
    The relation is symmetric in k and kc, so kc <= 1 / sqrt(2) reaches every modulus."""
    kc = 10.0 ** log_kc
    k = math.sqrt((1.0 - kc) * (1.0 + kc))
    big_k, big_e = _klein._cel(kc, 1.0, 1.0, 1.0), _klein._cel(kc, 1.0, 1.0, kc * kc)
    big_k2, big_e2 = _klein._cel(k, 1.0, 1.0, 1.0), _klein._cel(k, 1.0, 1.0, k * k)
    residual = big_e * big_k2 + big_e2 * big_k - big_k * big_k2 - 0.5 * math.pi
    assert abs(residual) <= 4.0 * sys.float_info.epsilon * big_k * big_k2, residual


def _conic_pair(scale, shape, flat, shift, angle, dist, turn, size, thin):
    """A domain, the unit disk under y -> scale R(shape) diag(1, flat) y + scale shift, and
    the image under the same map of an ellipse of semi-axes size and size thin, turned by
    turn, centred at dist (cos angle, sin angle)."""
    m = scale * _rotation(shape) @ np.diag([1.0, flat])
    centre = scale * np.asarray(shift) + m @ (dist * np.array([math.cos(angle), math.sin(angle)]))
    region = m @ _rotation(turn) @ np.diag([size, size * thin])
    return (affine_disk(m, scale * np.asarray(shift), (0.0, 0.0), 1.0),
            affine_disk(region, centre, (0.0, 0.0), 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.builds(
    _conic_pair, st.builds(lambda e: 10.0 ** e, st.floats(-100.0, 100.0)), st.floats(0.0, math.pi),
    st.floats(0.5, 1.0), st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 1.2), st.floats(0.0, math.pi),
    st.builds(lambda e: 10.0 ** e, st.floats(-6.0, 0.0)), st.floats(0.5, 1.0)))
@example((unit_circle(), pk.ConicOval([2.0, 1.0, 5.0, 0.0, 0.0, -0.3])))  # centred: g = 0
# the domain's centre on the region's minor axis, the hard case (g_0 = 0)
@example((unit_circle(), pk.ConicOval([4.0, 0.0, 25.0, 0.0, -15.0, 1.25])))
@example((unit_circle(), pk.ConicOval.disk((0.3, -0.2), 0.5)))  # a disk: both gaps 0
@example((unit_circle(), pk.ConicOval.disk((0.3, -0.2), 1e-150)))
# b = inf: 1e-156 of the domain across, its form past the float range in the unit disk
@example((pk.ConicOval.disk((-3e99, 0.0), 1e100),
          pk.ConicOval([4e-196, 0.0, 1e112, 0.0, 0.0, -1.0])))
@example((unit_circle(), pk.ConicOval.disk((0.3, -0.2), 1.0 - math.hypot(0.3, 0.2) - 1e-12)))
# depth -3: the region (y0 - 1)^2 + 4 y1^2 <= 1, whose z0 comes out 9e-16 short of 1
@example(_conic_pair(7.36525012271228, 1.0, 0.5, (0.0, 0.0), 0.0, 1.0, 0.0, 1.0, 0.5))
def test_conic_least_depth_against_a_decimal_reference(pair):
    """_klein's least depth of a conic domain over a conic region, from the region's
    normal form in the domain's unit disk, is a lower bound to rounding: never above the
    50-digit reference by more than 8 eps, nor below it by more than 16 eps, where the
    depth is at least -1 and containment is decided.  Below -1 the band widens by
    (1 - depth) / 2: each entry of the normal form (a, b, z0, z1) carries a few ulp of its
    own size, and the least depth 1 - |y|^2, y = z + diag(a, b)^(-1/2) w at |w| = 1 with
    |z| + a^(-1/2) <= sqrt(2) |y|, moves by them times |y|^2 = 1 - depth.  The domain and
    region are each within an axis ratio of 2 of a disk; a more eccentric form loses about
    eps times the square of its ratio in its eigenvalues."""
    dom, region = pair
    eps = Decimal(sys.float_info.epsilon)
    ref = _reference_least_depth(dom, region)
    gap = Decimal(_klein._least_depth(*_klein._normal_form(dom, region))) - ref
    width = eps * max(1, (1 - ref) / 2)
    assert -16 * width <= gap <= 8 * width, float(gap / eps)


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
        # the truncation crossings are solved, not bisected: the experiment's panels break
        # where the clipped polygon has its corners, down to a vertex near the corner (0, 0)
        for alpha in (0.01, 0.1, 0.25):
            region = [[0.0, 0.5], [alpha, 0.0], [0.5, 0.5]]
            for radius in (0.5, 8.0):
                clipped = truncated_region(region, [(0.5 + alpha) / 3.0, 1.0 / 3.0], radius)
                assert pk.busemann_area(dom, pk.Polygon(clipped), h) == pytest.approx(
                    pk.triangle_area_experiment(alpha, radius, h), rel=1e-9)

    @pytest.mark.parametrize("truncation", [18.0, 25.0, 40.0, 1e300])
    def test_large_truncation_is_untruncated_area(self, truncation):
        """Beyond radius ~17 the truncation leaves out nothing at this tolerance.  A
        bisected break then fell within e^-36 rad of a vertex direction, after the
        narrow-panel filter, and its nodes met the boundary: the area was inf."""
        area = pk.triangle_area_experiment(0.25, truncation, 0.05)
        ideal = pk.Polygon([[0.0, 0.5], [0.25, 0.0], [0.5, 0.5]])
        assert area == pytest.approx(pk.busemann_area(standard_triangle(), ideal, 0.05), rel=1e-9)

    @pytest.mark.parametrize("radius", [1e-310, 1e-200, 1e-100, 1e-20, 1e-8, 1e-3, 0.1, 0.3])
    def test_small_truncation_is_a_normed_disk(self, radius):
        """A Hilbert ball in a triangle is a ball of a normed plane (de la Harpe 1993),
        whose Busemann area is pi R^2 exactly; 0.0 where pi R^2 underflows.  With the
        density taken against d rho / rho, ~1 / (e^{2s} - 1), it was inf at R = 1e-310."""
        area = pk.triangle_area_experiment(0.25, radius, 1e-3)
        disk = math.pi * radius * radius
        assert area == pytest.approx(disk, rel=1e-13, abs=0.0) if disk else area == 0.0

    @pytest.mark.parametrize("truncation", [1e308, 1.7976931348623157e308])
    def test_radius_past_the_float_range_without_warnings(self, truncation):
        """e^{-2R} is 0, so the ball clips nothing: the area is the untruncated one, finite
        for a vertex (5e-324, 0) off the corner, with no warning.  The quadrature, whose
        e^{2s} overflowed along the rays, gave inf."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            area = pk.triangle_area_experiment(5e-324, truncation, 0.05)
        assert area == pytest.approx(reference_area("alpha=5e-324 truncation=1e308"),
                                     rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("case", list(TRIANGLE_AREAS))
    def test_decimal_reference(self, case):
        """Each area of the committed 60-digit reference to 1e-13: the experiment for a
        truncated case, busemann_area in the standard triangle for an untruncated one."""
        row = TRIANGLE_AREAS[case]
        if row["truncation"] is None:
            area = pk.busemann_area(standard_triangle(), pk.Polygon(row["region"]), 1e-3)
        else:
            area = pk.triangle_area_experiment(row["region"][1][0], row["truncation"], 0.002)
        assert area == pytest.approx(reference_area(case), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("case", _DIVERGENCE)
    def test_divergence_law(self, case):
        """The untruncated triangle (0, 1/2), (alpha, 0), (1/2, 1/2), alpha from 1e-2 to
        1e-300, to 1e-14 of its reference.  Its 60-digit area from tests/triangle_areas.py
        meets area = (pi/24)(L^2 + pi^2) - (pi/12) alpha L + r, L = log(1 / alpha), a law
        measured, not derived: r / (alpha^2 L) is -0.103, -0.117 and -0.124 at alpha =
        1e-2, 1e-4 and 1e-8, so |r| <= (pi/24) alpha^2 L, up to the generator's rounding,
        1e-55 of the area.  That checks both terms down to alpha = 1e-30, where the second
        is 1.8e-29; at 1e-300 it is 1.8e-298, below 60 digits, and the leading term alone
        is checked there."""
        import triangle_areas

        row = TRIANGLE_AREAS[case]
        area = pk.busemann_area(standard_triangle(), pk.Polygon(row["region"]), 1e-3)
        assert area == pytest.approx(reference_area(case), rel=1e-14, abs=0.0)
        with localcontext() as ctx:
            ctx.prec = triangle_areas.DIGITS
            pi, area = triangle_areas._pi(), triangle_areas.area(row["region"], None)
            alpha = Decimal(row["region"][1][0])
            log = (1 / alpha).ln()
            r = area - pi / 24 * (log * log + pi * pi) + pi / 12 * alpha * log
            rounding = Decimal(10) ** -(triangle_areas.DIGITS - 5) * area
            assert abs(r) <= pi / 24 * alpha * alpha * log + rounding

    def test_reference_matches_its_generator(self):
        """The committed reference is what tests/triangle_areas.py writes, shown on the
        cheapest case."""
        import triangle_areas

        name, region, radius = next(c for c in triangle_areas.CASES if c[0] == "interior")
        assert format(triangle_areas.area(region, radius), ".30e") == TRIANGLE_AREAS[name]["area"]

    def test_cellsize_has_no_effect(self):
        """The areas are exact: cellsize is validated and then unused, so the defaults of
        projkit area and the near-corner region give the same floats at every cellsize.
        The quadrature gave the near-corner region 69.73621865464321 at cellsize 1e-3 and
        inf at 1e-5, where a ray's outer node rounded onto the boundary."""
        for alpha in (0.5, 0.25, 0.1, 0.05, 0.01):
            assert len({pk.triangle_area_experiment(alpha, 5.0, h)
                        for h in (0.5, 0.002, 1e-300)}) == 1
        near = pk.Polygon([[1e-7, 1e-7], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        areas = {pk.busemann_area(standard_triangle(), near, h) for h in (1e-3, 1e-5, 1e-300)}
        assert len(areas) == 1 and math.isfinite(*areas)

    @pytest.mark.parametrize("s", [9e-308, 1.0, 1e300, 1e308])
    def test_triangle_at_every_scale(self, s):
        """The triangle with legs s and a triangle in it, against the reference at 1e-13.
        The quadrature gave 0.4438202913903209 at s = 1e308, a 0.35% error."""
        triangle = pk.Polygon([[0.0, 0.0], [s, 0.0], [0.0, s]])
        region = pk.Polygon([[s / 8, s / 4], [s / 2, s / 8], [s / 4, s / 2]])
        assert pk.busemann_area(triangle, region, 1e-3) == pytest.approx(
            reference_area("interior"), rel=1e-13, abs=0.0)

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
