"""Projective primitives: pairings, genericity tests, flag validation."""

import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import projkit as pk
from conftest import assert_refuses, random_flag, random_generic_triple, standard_triangle_flags


def line(u, w):
    return pk.ProjLine(u, w)


def point(*coords):
    return pk.ProjPoint(list(coords))


class TestPairing:
    def test_identity_determinant(self):
        assert pk.pairing13(point(1, 0, 0), line([0, 1, 0], [0, 0, 1])) == 1.0

    def test_incident_point_vanishes(self):
        assert pk.pairing13(point(0, 1, 0), line([0, 1, 0], [0, 0, 1])) == 0.0

    def test_linear_in_point(self):
        assert pk.pairing13(point(2, 0, 0), line([0, 1, 0], [0, 0, 1])) == 2.0

    def test_triple_det_values(self):
        assert pk.triple_det(point(1, 0, 0), point(0, 1, 0), point(0, 0, 1)) == 1.0
        p = point(1, 2, 3)
        assert pk.triple_det(p, p, point(0, 0, 1)) == 0.0
        assert pk.triple_det(point(1, 0, 0), point(0, 2, 0), point(0, 0, 3)) == 6.0
        # a . (a x c) whose exact sum overflows on the way: numpy's value, NaN
        a, c = (1e200, 1e200, 1e200), (1.0, 1e200, -1e200)
        with np.errstate(all="ignore"):
            expected = np.array(a) @ np.cross(a, c)
        np.testing.assert_equal(pk.triple_det(point(*a), point(*a), point(*c)), expected)
        assert math.isnan(expected)

    def test_multilinearity_under_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = (rng.normal(size=3) for _ in range(3))
            s = rng.uniform(-4.0, 4.0)
            while abs(s) < 0.1:
                s = rng.uniform(-4.0, 4.0)
            base = pk.triple_det(point(*a), point(*b), point(*c))
            scaled = pk.triple_det(point(*(s * a)), point(*b), point(*c))
            assert scaled == pytest.approx(s * base, rel=1e-12, abs=1e-12)
            pline = line(b, c)
            assert pk.pairing13(point(*(s * a)), pline) == pytest.approx(
                s * pk.pairing13(point(*a), pline), rel=1e-12, abs=1e-12
            )


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.just(0.0) | st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6),
                 min_size=9, max_size=9),
        st.lists(st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3), min_size=3, max_size=3),
    )
    def test_pairing_is_determinant(self, entries, scales):
        """pairing13(p, line(u, w)) against LAPACK's det of the columns (p, u, w),
        and its multilinearity, both relative to the Hadamard bound |p||u||w|
        (entries of magnitude 0 or 1e-6 .. 1e3, so that bound does not underflow)."""
        p, u, w = np.array(entries).reshape(3, 3)
        size = np.linalg.norm(p) * np.linalg.norm(u) * np.linalg.norm(w)
        assume(p.any() and np.linalg.norm(np.cross(u, w)) > 1e-9 * size)
        value = pk.pairing13(point(*p), line(u, w))
        assert abs(value - np.linalg.det(np.column_stack([p, u, w]))) <= 1e-12 * size
        cp, cu, cw = scales
        scaled = pk.pairing13(point(*(cp * p)), line(cu * u, cw * w))
        assert abs(scaled - cp * cu * cw * value) <= 1e-12 * abs(cp * cu * cw) * size


class TestConstruction:
    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            point(0, 0, 0)

    def test_dependent_span_rejected(self):
        with pytest.raises(ValueError):
            line([1, 2, 3], [2, 4, 6])

    def test_line_beyond_the_square_root_of_the_float_range(self):
        """|u|^2 overflowed for coordinates past ~1.3e154, so the independence test
        compared inf with inf and refused the line, with a numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l = line([1e160, 0, 0], [0, 1, 0])
        assert l.normal.tolist() == [0.0, 0.0, 1e160]

    @pytest.mark.parametrize("size", [1e-200, 1e160])
    def test_line_whose_cross_product_leaves_the_float_range(self, size):
        """u x w underflows to 0 (1e-200) or overflows (1e160), and both lines were
        refused: the pair is scaled by powers of two first, so the normal is a
        positive multiple of u x w, a point pairs to 0 exactly when it lies on the
        line, and flag incidence is judged against the scaled pair."""
        l = line([size, 0, 0], [0, size, 0])
        assert l.normal[:2].tolist() == [0.0, 0.0] and l.normal[2] > 0.0
        assert l.u.tolist() == [size, 0.0, 0.0] and l.w.tolist() == [0.0, size, 0.0]
        for on in (point(1, -1, 0), point(size, 3 * size, 0)):
            assert pk.pairing13(on, l) == 0.0
        for off in (point(0, 0, 1), point(size, 0, size)):
            assert pk.pairing13(off, l) > 0.0
        pk.Flag(point(size, size, 0), l)
        with pytest.raises(ValueError, match="flag point does not lie on its line"):
            pk.Flag(point(size, 0, size), l)

    def test_normal_is_the_cross_product_in_range(self):
        """Where |u||w| lies in the float range the normal is numpy's u x w, bit for
        bit, from magnitudes 1e-130 to 1e130 per vector."""
        rng = np.random.default_rng(8)
        for _ in range(2000):
            u, w = rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-130, 130, size=(2, 1))
            assert line(u, w).normal.tobytes() == np.cross(u, w).tobytes()

    @pytest.mark.parametrize("normal, on", [
        ([1e-200, 1e-200, 0], [1, -1, 0]),
        ([1e-170, 2e-170, 1e-170], [1, 0, -1]),
        ([1e160, 1e160, 0], [1, -1, 0]),
        ([1e200, 1, 0], [1, -1e200, 0]),
    ])
    def test_from_normal_far_from_unit_size(self, normal, on):
        """The second spanning vector n x (n x e_k) has the size |n|^2, so these lines
        were refused as dependent (1e-200, 1e-170) or non-finite (1e160, 1e200).  n is
        first scaled by a power of two: the line's normal is a positive multiple of n."""
        l = pk.ProjLine.from_normal(normal)
        assert pk.pairing13(point(*on), l) == 0.0
        assert float(np.dot(l.normal, normal)) > 0.0

    def test_from_normal_in_range_keeps_its_spanning_vectors(self):
        """A normal whose largest |component| lies in [2^-500, 2^500] is used as given:
        the spanning vectors are n x e_k and n x (n x e_k), bit for bit."""
        rng = np.random.default_rng(10)
        for _ in range(500):
            n = rng.normal(size=3) * 10.0 ** rng.uniform(-150, 150)
            u = np.cross(n, np.eye(3)[np.argmin(np.abs(n))])
            l = pk.ProjLine.from_normal(n)
            assert (l.u.tobytes(), l.w.tobytes()) == (u.tobytes(), np.cross(n, u).tobytes())

    def test_independence_of_given_pairs_and_of_images(self):
        """A pair is dependent when each component of u x w cancels to within 1e-12 of its
        terms |u_i w_j| + |u_j w_i|, whether the caller gives it or transform builds it; no
        angle enters.  A diagonal map that brings the spanning vectors to within 1e-14 of
        parallel keeps a line, the same line as the plain constructor's on that pair; a
        singular map does not."""
        rng = np.random.default_rng(9)
        for _ in range(2000):
            u, r = rng.normal(size=(2, 3))
            w = u + 10.0 ** rng.uniform(-14, -9) * r
            ratio = max(abs(n) / (abs(u[j] * w[k]) + abs(u[k] * w[j]))
                        for n, (j, k) in zip(np.cross(u, w), ((1, 2), (2, 0), (0, 1))))
            if ratio > 2e-12:
                line(u, w)
            elif ratio < 0.5e-12:
                with pytest.raises(ValueError, match="linearly independent"):
                    line(u, w)
        # parallel to within 1e-13, and u x w = (0, 0, 1e-13) has no cancellation
        assert line([1, 0, 0], [1, 1e-13, 0]).normal.tolist() == [0.0, 0.0, 1e-13]
        flag = pk.Flag(point(0.0, 1.0, 2.0), line([0.0, 1.0, 2.0], [1.0, 2.0, -1.0]))
        image = flag.transform(np.diag([1e-5, 1e10, 1e-5]))
        u, w = image.line.u, image.line.w
        assert np.linalg.norm(np.cross(u, w)) < 1e-14 * np.linalg.norm(u) * np.linalg.norm(w)
        assert image.line.normal / 1e5 == pytest.approx([-5.0, 2e-15, -1.0], rel=1e-15)
        assert line(u, w).normal.tobytes() == image.line.normal.tobytes()
        with pytest.raises(ValueError, match="linearly independent"):
            flag.transform(np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]))

    def test_flag_requires_incidence(self):
        with pytest.raises(ValueError):
            pk.Flag(point(1, 0, 0), line([0, 1, 0], [0, 0, 1]))

    def test_flag_from_raw_coordinates(self):
        """Flag(p, (u, w)) with plain lists wraps them itself, bit for bit as the
        wrapped form, and checks incidence the same way."""
        raw = pk.Flag([1, 2, 1], ([1, 2, 1], [0, 1, 0]))
        wrapped = pk.Flag(point(1, 2, 1), line([1, 2, 1], [0, 1, 0]))
        for a, b in ((raw.point.v, wrapped.point.v), (raw.line.u, wrapped.line.u),
                     (raw.line.w, wrapped.line.w), (raw.line.normal, wrapped.line.normal)):
            assert a.tobytes() == b.tobytes()
        assert_refuses(lambda: pk.Flag([0, 0, 1], ([1, 0, 0], [0, 1, 0])), ValueError,
                       "flag point does not lie on its line")

    def test_incidence_bound_covers_the_rounding_of_a_sheared_pair(self):
        """The pair (u, w + k u) spans the line of (u, w), and its cross product carries
        rounding of ~eps k |u|^2: a bound of |p| |u x w| alone refused 184 of 300 points
        s u + t w at k = 1e8.  The terms of det(p, u, w) cover it: every one is taken."""
        rng = np.random.default_rng(12)
        for k in (1e4, 1e8, 1e10):
            for _ in range(300):
                u, w = rng.normal(size=(2, 3))
                s, t = rng.normal(size=2)
                pk.Flag(point(*(s * u + t * w)), line(u, w + k * u))

    def test_incidence_residual_is_own_pairing(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            flag = random_flag(rng)
            residual = pk.pairing13(flag.point, flag.line)
            bound = 1e-9 * (
                np.linalg.norm(flag.point.v)
                * np.linalg.norm(flag.line.u)
                * np.linalg.norm(flag.line.w)
            )
            assert abs(residual) <= bound

    def test_json_round_trip(self):
        flag = standard_triangle_flags(0.25)[0]
        again = pk.Flag.from_json(flag.to_json())
        assert np.array_equal(again.point.v, flag.point.v)
        assert np.array_equal(again.line.u, flag.line.u)


def _accepts(p, u, w) -> bool:
    """Whether Flag takes the point p on the line spanned by u and w."""
    try:
        pk.Flag(point(*p), line(u, w))
    except ValueError as exc:
        assert "does not lie on its line" in str(exc)
        return False
    return True


# 0 or a magnitude from 1e-3 to 1, so that no product of the rule underflows
_UNIT = st.just(0.0) | st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3)


@st.composite
def _incidence_cases(draw):
    """(u, w, p, on): a spanning pair that cancels by less than 1e-2 of its largest term,
    and p = s u + t w, on the line, or that point moved 1e-6 |p| along the unit normal."""
    u, w = (draw(st.tuples(_UNIT, _UNIT, _UNIT)) for _ in range(2))
    n = np.cross(u, w)
    terms = [abs(u[j] * w[k]) + abs(u[k] * w[j]) for j, k in ((1, 2), (2, 0), (0, 1))]
    assume(np.linalg.norm(n) > 1e-2 * max(terms))
    s, t = draw(_UNIT), draw(_UNIT)
    p = s * np.array(u) + t * np.array(w)
    assume(np.linalg.norm(p) > 1e-3 * (abs(s) * np.linalg.norm(u) + abs(t) * np.linalg.norm(w)))
    on = draw(st.booleans())
    if not on:
        p = p + 1e-6 * np.linalg.norm(p) * n / np.linalg.norm(n)
    return u, w, tuple(p.tolist()), on


_BULGED = pk.bulging_configuration()[3].transform(pk.bulging_matrix(150.0)).line


def _normwise(p, u, w) -> float:
    """|p . (u x w)| / (|p| |u x w|): the sine of the angle between p and the line's plane."""
    n = np.cross(u, w)
    with np.errstate(over="ignore", invalid="ignore"):  # nan where a product overflows
        return abs(np.dot(p, n)) / (np.linalg.norm(p) * np.linalg.norm(n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_incidence_cases(), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
# bulging_configuration()'s fourth line bulged by v = 150, where |p| |u| |w| took (0, 0, 1)
@example((tuple(_BULGED._u), tuple(_BULGED._w), (0.0, 0.0, 1.0), False), 0.0, 0.0)
# a point on the line whose pairing overflows to inf - inf: the NaN residual is refused
@example(((0.0, 0.0, 1e100), (1e100, 1e100, 0.0), (1e200, 1e200, 0.0), False), 1.0, -1.0)
def test_incidence_under_diagonal_maps(case, a, b):
    """Flag incidence is judged against the six terms of det(p, u, w), which a diagonal map
    D = diag(e^a, e^b, 1) scales by det D as it does the determinant, plus |p| |u x w|.  A
    point on the line is taken before D and after, however near parallel D brings the
    spanning vectors, and the image written by to_json reads back and rescales.  A point
    1e-6 off the line is refused before D; after D it is refused while it stays 2e-9 off
    in angle, and taken where D brings it within 0.5e-9 of the line's plane, which the
    rounding of a general map could do to a point on it."""
    u, w, p, on = case
    d = (math.exp(a), math.exp(b), 1.0)
    assert _accepts(p, u, w) == on
    image = [tuple(x * y for x, y in zip(d, v)) for v in (p, u, w)]
    if on:
        assert _accepts(*image)
        flag = pk.Flag(point(*p), line(u, w)).transform(np.diag(d))
        again = pk.Flag.from_json(json.loads(json.dumps(flag.to_json())))
        assert again.line.normal.tobytes() == flag.line.normal.tobytes()
        again.rescaled(-3.0, 1e-5, 7.0)
    elif math.isfinite(angle := _normwise(*image)):
        event("off point taken after D" if angle < 0.5e-9 else "off point refused after D")
        if angle > 2e-9:
            assert not _accepts(*image)
        elif angle < 0.5e-9:
            assert _accepts(*image)


@st.composite
def _rotations(draw):
    """An orthogonal matrix, from a unit quaternion (a, b, c, d)."""
    a, b, c, d = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4))
    size = math.sqrt(a * a + b * b + c * c + d * d)
    assume(size > 0.1)
    a, b, c, d = a / size, b / size, c / size, d / size
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_incidence_cases(), _rotations())
# (1, 1, 0) on z = 0, turned and turned back: each of the point and the spanning vectors
# comes back with its own ~eps third coordinate, which the terms alone refused
@example(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0), True),
         np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0])
def test_incidence_under_orthogonal_maps(case, r):
    """A flag's image under an orthogonal map R, and its image under R and then R^T, read
    back from to_json: flags drawn at or near coordinate position, with points that are
    not a spanning vector.  The rounding of a general map is ~eps |p| |u x w|, not ~eps
    of each term, and the |p| |u x w| in the incidence scale covers it."""
    u, w, p, on = case
    assume(on)
    flag = pk.Flag(point(*p), line(u, w))
    for image in (flag.transform(r), flag.transform(r).transform(r.T)):
        pk.Flag.from_json(json.loads(json.dumps(image.to_json()))).rescaled(-3.0, 1e-5, 7.0)


class TestGenericity:
    def test_inscribed_triangle_is_generic(self):
        assert pk.is_generic_triple(*standard_triangle_flags(0.25), tol=1e-9)

    def test_repeated_flag_not_generic(self):
        e, f, g = standard_triangle_flags(0.25)
        assert not pk.is_generic_triple(e, e, g, tol=1e-9)

    def test_point_on_other_line_not_generic(self):
        e, f, g = standard_triangle_flags(0.25)
        # a flag whose point lies on e's line {w1 = 0}
        bad = pk.Flag(point(0, 0, 1), line([0, 0, 1], [1, 0, 1]))
        assert not pk.is_generic_triple(e, f, bad, tol=1e-9)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            flags = random_generic_triple(rng)
            results = {
                pk.is_generic_triple(*perm, tol=1e-9)
                for perm in itertools.permutations(flags)
            }
            assert len(results) == 1

    def test_bulging_configuration_is_generic(self):
        flags = pk.bulging_configuration(1.0, 1.0)
        assert pk.is_generic_quadruple(*flags, tol=1e-9)

    def test_repeated_quadruple_flag_not_generic(self):
        e, f, g, _ = pk.bulging_configuration(1.0, 1.0)
        assert not pk.is_generic_quadruple(e, f, g, g, tol=1e-9)

    def test_collinear_points_not_generic(self):
        e, f, g, _ = pk.bulging_configuration(1.0, 1.0)
        # point on the line joining e and f (the second axis is zero there)
        l = pk.Flag(point(1.0, 0.0, 2.0), line([1, 0, 2], [0, 1, 0]))
        assert not pk.is_generic_quadruple(e, f, g, l, tol=1e-9)

    def test_tolerance_must_be_positive(self):
        flags = standard_triangle_flags(0.25)
        with pytest.raises(ValueError):
            pk.is_generic_triple(*flags, tol=0.0)
        quadruple = pk.bulging_configuration(1.0, 1.0)
        for tol in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                pk.is_generic_triple(*flags, tol=tol)
            with pytest.raises(ValueError):
                pk.is_generic_quadruple(*quadruple, tol=tol)


def _unit_reference(flags):
    """|pairing| of every point with every other flag's line and |det| of every
    point triple, on unit representatives, in exact rationals: det(p, u, w) over
    |p| |u x w| and det(a, b, c) over |a| |b| |c|, squared, then rounded once and
    rooted.  LAPACK determinants of norm-scaled columns, with an orthonormal basis
    of each line's span from QR, lost eps / sin(u, w) of the unit pairing: for u and
    w 2e-11 rad apart they gave 1e-11 for a point on the line."""
    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])

    def unit(num, *vecs):
        den = math.prod(sum(x * x for x in v) for v in vecs)
        return math.sqrt(num * num / den)

    points = [tuple(map(Fraction, f.point.v.tolist())) for f in flags]
    normals = [cross(*(tuple(map(Fraction, v.tolist())) for v in (f.line.u, f.line.w)))
               for f in flags]
    n = len(flags)
    pairings = [unit(sum(a * b for a, b in zip(points[i], normals[j])), points[i], normals[j])
                for i, j in itertools.permutations(range(n), 2)]
    triples = [unit(sum(x * y for x, y in zip(points[i], cross(points[j], points[k]))),
                    points[i], points[j], points[k])
               for i, j, k in itertools.combinations(range(n), 3)]
    return pairings + triples


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([3, 4]),
    st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
    st.lists(st.floats(-1.0, 1.0), min_size=24, max_size=24),
    st.integers(0, 3), st.integers(1, 3), st.integers(0, 1), st.floats(-3.0, 3.0),
    st.floats(-3.0, 0.0),
    st.lists(st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3), min_size=12, max_size=12),
)
# a point with a subnormal coordinate on a line through it: LAPACK's determinant of
# the singular matrix warned
@example(3, 1e-12, [0.0, 1.0, 2.225073858507203e-309, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0,
                   0.0, 1.0, 0.0, 0.0, 0.0, 1.0] + [0.0] * 7, 2, 1, 0, 0.0, 0.0, [1.0] * 12)
# a line spanned by vectors 2e-11 rad apart, through another flag's point
@example(4, 1e-12, [0.0, 1.0, 1.0, 0.0, 1.0, 4.0647616451442256e-11, 1.0, 1.0, 0.0, 0.0, 0.0,
                   1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
         0, 1, 0, 1.0, 0.0, [1.0] * 12)
def test_genericity_rule(n, tol, coords, i, shift, kind, log_ratio, log_angle, scales):
    """is_generic_* against the unit-representative reference, on flags with one
    pairing (kind 0) or point triple (kind 1) pushed to tol * 10^log_ratio and
    every reference value at least a factor 2 away from tol; the decision is
    unchanged under rescaling every representative by +-[1e-3, 1e3], and a
    generic tuple's ratios raise no NonGenericFlags.  Each line is spanned by
    its point and a vector about 10^log_angle away from it, so a rule that
    took |u||w| for the bivector norm |u x w| would decide differently."""
    p = np.array(coords[: 3 * n]).reshape(n, 3)
    q = p + 10.0**log_angle * np.array(coords[12: 12 + 3 * n]).reshape(n, 3)
    i, j, k = i % n, (i + shift) % n, (i + shift + 1) % n
    try:
        # move point i so that its unit pairing with line j, or its unit triple
        # with points j and k, is about r
        r = tol * 10.0**log_ratio
        normal = np.cross(p[j], q[j]) if kind == 0 else np.cross(p[j], p[k])
        size = np.linalg.norm(normal)
        assume(size > 1e-100)
        normal /= size
        flat = p[i] - (p[i] @ normal) * normal
        p[i] = flat + r * np.linalg.norm(flat) / math.sqrt(1.0 - r * r) * normal
        flags = [pk.Flag(point(*p[m]), line(p[m], q[m])) for m in range(n)]
    except (ValueError, FloatingPointError):
        assume(False)
    ref = _unit_reference(flags)
    assume(all(v >= 2.0 * tol or v <= 0.5 * tol for v in ref))
    generic = all(v > tol for v in ref)
    event(f"generic {generic}")
    is_generic = pk.is_generic_triple if n == 3 else pk.is_generic_quadruple
    assert is_generic(*flags, tol=tol) == generic
    rescaled = [f.rescaled(*scales[3 * m: 3 * m + 3]) for m, f in enumerate(flags)]
    assert is_generic(*rescaled, tol=tol) == generic
    if generic:
        ratio = pk.triple_ratio if n == 3 else pk.double_ratios
        ratio(*flags, tol=tol)
        ratio(*rescaled, tol=tol)


@pytest.mark.parametrize("make, error, message", [
    (lambda: pk.ProjPoint([math.nan, 0.0, 1.0]), ValueError,
     "projective point has non-finite coordinates"),
    (lambda: pk.ProjLine([math.inf, 0.0, 0.0], [0.0, 1.0, 0.0]), ValueError,
     "line spanning vector has non-finite coordinates"),
    (lambda: pk.ProjLine.from_normal([0.0, 0.0, 0.0]), ValueError,
     "line normal cannot be the zero vector"),
], ids=["nan-point", "infinite-line", "zero-normal"])
def test_refusals(make, error, message):
    """Refusals that no other test reaches raise their own error and message."""
    assert_refuses(make, error, message)


# ---------------------------------------------------------------------------
# the input contract of the three constructors: refusals keep their class and
# message, and everything numpy reads as three finite floats is accepted

CONSTRUCTORS = {
    "point": (pk.ProjPoint, "projective point"),
    "line-u": (lambda x: pk.ProjLine(x, [0.0, 1.0, 0.0]), "line spanning vector"),
    "line-w": (lambda x: pk.ProjLine([1.0, 0.0, 0.0], x), "line spanning vector"),
    "normal": (pk.ProjLine.from_normal, "line normal"),
}
ZERO_MESSAGES = {
    "point": "projective point cannot be the zero vector",
    "line-u": "line spanning vectors must be linearly independent",
    "line-w": "line spanning vectors must be linearly independent",
    "normal": "line normal cannot be the zero vector",
}
BAD_INPUTS = [
    ([1.0, 2.0], "needs exactly 3 coordinates, got shape (2,)"),
    ((1, 2), "needs exactly 3 coordinates, got shape (2,)"),
    ([[1.0], [2.0], [3.0]], "needs exactly 3 coordinates, got shape (3, 1)"),
    (np.ones((3, 1)), "needs exactly 3 coordinates, got shape (3, 1)"),
    ([math.nan, 0.0, 1.0], "has non-finite coordinates: [nan  0.  1.]"),
    ((math.nan, 0, 1), "has non-finite coordinates: [nan  0.  1.]"),
    ([0.0, math.inf, 1.0], "has non-finite coordinates: [ 0. inf  1.]"),
    ((0.0, -math.inf, 1), "has non-finite coordinates: [  0. -inf   1.]"),
    (np.array([1.0, 2.0, math.nan]), "has non-finite coordinates: [ 1.  2. nan]"),
]
ZERO_INPUTS = [[0, 0, 0], (0.0, -0.0, 0.0), np.zeros(3)]


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_input_contract(name):
    """Shapes (2,) and (3, 1), NaN, inf, the zero vector and an int past the float
    range are refused with their class and message, through lists, tuples and
    arrays alike; strings of numbers, bools and float32 arrays are read as numpy
    reads them."""
    make, what = CONSTRUCTORS[name]
    for coords, message in BAD_INPUTS:
        with pytest.raises(ValueError) as exc:
            make(coords)
        assert type(exc.value) is ValueError and str(exc.value) == f"{what} {message}"
    for coords in ZERO_INPUTS:
        with pytest.raises(ValueError) as exc:
            make(coords)
        assert type(exc.value) is ValueError and str(exc.value) == ZERO_MESSAGES[name]
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        make([10**400, 0, 1])
    for coords in (["1", "2", "3"], [True, False, True], (False, 2, True),
                   np.array([1 / 3, 2 / 3, 1.0], dtype=np.float32)):
        expected = np.asarray(coords, dtype=float)
        made = make(coords)
        if name == "point":
            assert made.v.tolist() == expected.tolist()
        elif name == "normal":
            assert np.linalg.norm(np.cross(made.normal, expected)) <= 1e-15 * np.linalg.norm(
                made.normal) * np.linalg.norm(expected)
        else:
            assert (made.u if name == "line-u" else made.w).tolist() == expected.tolist()


def _exact(x):
    """Float array x as exact integers, x = m * 2^e elementwise: m an object array of
    Python ints (|m| < 2^53), e an int64 array."""
    m, e = np.frexp(np.asarray(x, dtype=float))
    return np.ldexp(m, 53).astype(np.int64).astype(object), e - 53


def _error(values, *factors):
    """|value - the exact sum| over the exact sum of |terms|, for each column of
    ``values`` (shape (n, k)), where each factor has shape (n, t) and term i of
    row r is the product of the factors' entries (r, i).  Rational arithmetic on
    Python ints, rounded once at the end."""
    (m, e), *rest = (_exact(f) for f in factors)
    for mf, ef in rest:
        m, e = m * mf, e + ef
    mv, ev = _exact(values)
    low = np.minimum(e.min(axis=1), ev.min(axis=1))[:, None]
    terms = m << (e - low).astype(object)
    err = abs((mv << (ev - low).astype(object)) - terms.sum(axis=1)[:, None])
    return (err / abs(terms).sum(axis=1)[:, None]).astype(float)


def _fraction_error(value, *factors):
    """The same as :func:`_error` for one value, by ``fractions.Fraction``."""
    terms = [math.prod(map(Fraction, t)) for t in zip(*factors)]
    return float(abs(Fraction(value) - sum(terms)) / sum(map(abs, terms)))


def _arrays(obj) -> list:
    """The public arrays of a point or line, each with the floats it mirrors."""
    if isinstance(obj, pk.ProjPoint):
        return [(obj.v, obj._c)]
    return [(obj.u, obj._u), (obj.w, obj._w), (obj.normal, obj._n)]


def _mirrors(*objects) -> bool:
    """Every public array is a read-only float64 array of exactly the stored floats."""
    pairs = [pair for obj in objects for pair in _arrays(obj)]
    return all(type(a) is np.ndarray and a.dtype == np.float64 and not a.flags.writeable
               and a.tolist() == list(c) and all(type(x) is float for x in c)
               for a, c in pairs)


def test_kernels_against_exact_arithmetic():
    """pairing13, triple_det and transform against exact rational arithmetic on
    100,000 seeded inputs each, every error over the sum of the magnitudes of the
    terms summed.  The largest error is no worse than numpy's dot and matrix
    product (pairing13 and transform before they read stored floats) and than
    the left-to-right sum triple_det took before.  pairing13 and triple_det
    return Python floats, and every public array mirrors its stored floats."""
    n, pool = 100_000, 1000
    rng = np.random.default_rng(2026)

    def vectors(*shape):
        return rng.normal(size=(*shape, 3)) * np.exp2(rng.integers(-20, 21, size=(*shape, 1)))

    pts, spans = vectors(pool), vectors(pool, 2)
    points = [pk.ProjPoint(v) for v in pts.tolist()]
    lines = [pk.ProjLine(*pair) for pair in spans.tolist()]
    flags = [pk.Flag(pt, pk.ProjLine(v, pair[0])) for pt, v, pair in
             zip(points, pts.tolist(), spans.tolist())]
    assert _mirrors(*points, *lines, *(x for f in flags for x in (f.point, f.line)))
    normals = np.array([line.normal for line in lines])
    # pairings: every other point within 1e-12 .. 1 of its line (cancellation)
    j = rng.integers(0, pool, size=n)
    q = vectors(n)
    q[1::2] = (rng.normal(size=(n // 2, 2, 1)) * spans[j[1::2]]).sum(axis=1) \
        + 10.0 ** rng.uniform(-12, 0, size=(n // 2, 1)) * q[1::2]
    pairings = []
    for v, k in zip(q.tolist(), j.tolist()):
        point, normal = pk.ProjPoint(v), lines[k].normal
        pairings.append((pk.pairing13(point, lines[k]), point.v @ normal))
    # point triples and flag images
    ijk = rng.integers(0, pool, size=(n, 3))
    dets = [pk.triple_det(points[a], points[b], points[c]) for a, b, c in ijk.tolist()]
    mats, f = rng.normal(size=(n, 3, 3)), rng.integers(0, pool, size=n)
    images, images_numpy = [], []
    for m, k in zip(mats, f.tolist()):
        image = flags[k].transform(m)
        images.append((image.point.v, image.line.u, image.line.w))
        images_numpy.append([m @ flags[k].point.v, m @ flags[k].line.u, m @ flags[k].line.w])
        if len(images) % 1000 == 0:
            assert _mirrors(image.point, image.line)
    assert all(type(value) is float for value, _ in pairings)
    assert all(type(value) is float for value in dets)

    a, b, c = pts[ijk].transpose(1, 0, 2)
    x, y, z = np.cross(b, c).T  # numpy's cross: each component one product difference
    perms = list(itertools.permutations(range(3)))
    signs = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])
    det_factors = tuple(v[:, [perm[axis] for perm in perms]] for axis, v in enumerate((a, b, c)))
    det_factors = (det_factors[0] * signs,) + det_factors[1:]
    spanning = np.stack([pts[f], pts[f], spans[f, 0]], axis=1)  # p, u = p and w of each flag
    shape = (n, 3, 3, 3)  # input, vector, row, column
    rows = np.broadcast_to(mats[:, None], shape).reshape(-1, 3)
    columns = np.broadcast_to(spanning[:, :, None], shape).reshape(-1, 3)
    errors = {
        "pairing": _error(np.array(pairings), q, normals[j]),
        "det": _error(np.stack([dets, a[:, 0] * x + a[:, 1] * y + a[:, 2] * z], axis=1),
                      *det_factors),
        "transform": _error(np.stack([np.ravel(images), np.ravel(images_numpy)], axis=1),
                            rows, columns),
    }
    for r in range(0, n, n // 100):
        assert errors["pairing"][r, 0] == _fraction_error(pairings[r][0], q[r], normals[j[r]])
        assert errors["det"][r, 0] == _fraction_error(dets[r], *(v[r] for v in det_factors))
    worst = {key: err.max(axis=0) / 2.0**-53 for key, err in errors.items()}
    print({key: f"{new:.3f} ulp (before {old:.3f})" for key, (new, old) in worst.items()})
    assert all(new <= old for new, old in worst.values())
    # the other constructor paths: array, tuple and string input, from_normal,
    # rescaled, raw and JSON flags, a line scaled by powers of two
    flag = pk.Flag([1, 2, 1], ([1, 2, 1], [0, 1, 0]))
    assert _mirrors(
        pk.ProjPoint(np.arange(1.0, 4.0)), pk.ProjPoint((1, 2.5, -3)),
        pk.ProjPoint(["1", "2", "3"]), pk.ProjLine.from_normal([1.0, -2.0, 0.5]),
        flag.point, flag.line, *vars(flag.rescaled(-2.0, 3.0, 0.25)).values(),
        *vars(pk.Flag.from_json(flag.to_json())).values(),
        pk.ProjLine([1e-200, 0.0, 0.0], [0.0, 1e-200, 0.0]))


def _stored(flag) -> str:
    """The floats a flag stores, bit for bit: repr keeps -0.0 and every digit."""
    return repr((flag.point._c, flag.line._u, flag.line._w, flag.line._n))


def _image(flag, m) -> str:
    """flag.transform(m) as its stored floats, or the text of its ValueError."""
    try:
        return _stored(flag.transform(m))
    except ValueError as exc:
        return f"ValueError: {exc}"


_ENTRY = st.floats(-1e6, 1e6) | st.integers(-9, 9) | st.sampled_from([0.0, -0.0, 1e300, 1e-300])
_VECTOR = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.lists(_ENTRY, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(st.lists(_ENTRY, min_size=2, max_size=4), min_size=2, max_size=4),
       _VECTOR, _VECTOR)
def test_transform_reads_rows_as_numpy_does(rows, other, p, q):
    """A 3x3 list of floats is read without numpy, and gives the image, or the ValueError,
    that its array gives, bit for bit; so does a list of numpy float64 scalars, which
    goes through numpy.  Any other shape keeps the ValueError text numpy's shape gives.
    Every point and line built mirrors its floats in read-only arrays, which come back
    with the same bits on every access."""
    try:
        flag = pk.Flag(pk.ProjPoint(p), pk.ProjLine(p, q))
    except ValueError:
        assume(False)
    expected = _image(flag, np.array(rows, dtype=float))
    assert _image(flag, rows) == expected
    assert _image(flag, tuple(map(tuple, rows))) == expected
    assert _image(flag, [list(map(np.float64, row)) for row in rows]) == expected
    if not expected.startswith("ValueError"):
        image = flag.transform(rows)
        built = (flag.point, flag.line, image.point, image.line)
        assert _mirrors(*built)
        for obj in built:  # each access builds a new array, with the same bits
            first, second = (_arrays(obj) for _ in range(2))
            assert [a.tobytes() for a, _ in first] == [a.tobytes() for a, _ in second]
    if len(other) != 3 or any(len(row) != 3 for row in other):
        try:
            text = f"transform needs a 3x3 matrix, got shape {np.asarray(other, dtype=float).shape}"
        except ValueError as exc:  # ragged rows: numpy's own message
            text = str(exc)
        with pytest.raises(ValueError) as exc:
            flag.transform(other)
        assert str(exc.value) == text
