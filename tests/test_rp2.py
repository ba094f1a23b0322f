"""Projective primitives: pairings, genericity tests, flag validation."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import projkit as pk
from conftest import random_flag, random_generic_triple, standard_triangle_flags


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

    def test_flag_requires_incidence(self):
        with pytest.raises(ValueError):
            pk.Flag(point(1, 0, 0), line([0, 1, 0], [0, 0, 1]))

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
