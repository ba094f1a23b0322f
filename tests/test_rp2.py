"""Projective primitives: pairings, genericity tests, flag validation."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
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
    point triple, on unit representatives, from LAPACK determinants of
    norm-scaled columns: each point over its norm (``math.hypot``, which
    neither overflows nor underflows), each line by an orthonormal basis of
    its span (a unit bivector)."""
    points = [f.point.v / math.hypot(*f.point.v) for f in flags]
    bases = [np.linalg.qr(np.column_stack([f.line.u, f.line.w]))[0] for f in flags]
    n = len(flags)
    pairings = [abs(np.linalg.det(np.column_stack([points[i], bases[j]])))
                for i, j in itertools.permutations(range(n), 2)]
    triples = [abs(np.linalg.det(np.column_stack([points[k] for k in c])))
               for c in itertools.combinations(range(n), 3)]
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
