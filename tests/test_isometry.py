"""Isometry classification, Goldman lengths, and the bulging deformation."""

import math
import warnings

import numpy as np
import pytest

import projkit as pk
from conftest import NORMAL_FORMS, random_conjugator


class TestClassify:
    def test_hyperbolic_diagonal(self):
        c = pk.classify(np.diag([2.0, 1.0, 0.5]))
        assert c.kind == "hyperbolic"
        assert c.eigenvalues == pytest.approx((2.0, 1.0, 0.5))

    def test_quasi_hyperbolic_normal_form(self):
        c = pk.classify(NORMAL_FORMS["quasi_hyperbolic"])
        assert c.kind == "quasi_hyperbolic"
        assert c.mu == pytest.approx(2.0)
        assert c.nu == pytest.approx(0.25)
        assert c.jordan_at_larger is True
        assert c.mu * c.mu * c.nu == pytest.approx(1.0, rel=1e-9)

    def test_jordan_block_at_smaller_eigenvalue_reported(self):
        m = np.array([[0.25, 1.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 16.0]])
        c = pk.classify(m)
        assert c.kind == "quasi_hyperbolic"
        assert c.mu == pytest.approx(0.25)
        assert c.nu == pytest.approx(16.0)
        assert c.jordan_at_larger is False

    def test_parabolic_normal_form(self):
        assert pk.classify(NORMAL_FORMS["parabolic"]).kind == "parabolic"

    def test_identity_is_other(self):
        assert pk.classify(np.eye(3)).kind == "other"

    def test_diagonalizable_repeated_is_other(self):
        assert pk.classify(np.diag([2.0, 2.0, 0.25])).kind == "other"

    def test_rotation_is_other(self):
        t = 0.7
        rot = np.array(
            [
                [math.cos(t), -math.sin(t), 0.0],
                [math.sin(t), math.cos(t), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        assert pk.classify(rot).kind == "other"

    def test_not_unimodular(self):
        with pytest.raises(pk.NotUnimodular):
            pk.classify(np.diag([2.0, 1.0, 1.0]))

    def test_non_finite_entries_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            m = np.eye(3)
            m[1, 2] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="NaN or infinite"):
                    pk.classify(m)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            g = random_conjugator(rng)
            gi = np.linalg.inv(g)
            for kind, m in NORMAL_FORMS.items():
                c = pk.classify(g @ m @ gi)
                assert c.kind == kind
                if kind == "hyperbolic":
                    assert c.eigenvalues == pytest.approx((2.0, 1.0, 0.5), rel=1e-6)
                elif kind == "quasi_hyperbolic":
                    assert c.mu == pytest.approx(2.0, rel=1e-6)
                    assert c.nu == pytest.approx(0.25, rel=1e-6)


class TestGoldmanLengths:
    def test_power_example(self):
        lengths = pk.goldman_lengths(pk.IsometryClass.hyperbolic(4.0, 1.0, 0.25))
        assert lengths.l1 == pytest.approx(math.log(4.0), rel=1e-12)
        assert lengths.l2 == pytest.approx(math.log(4.0), rel=1e-12)
        assert lengths.hilbert_length == pytest.approx(math.log(16.0), rel=1e-12)

    def test_exponential_example(self):
        lengths = pk.goldman_lengths(
            pk.IsometryClass.hyperbolic(math.e, 1.0, 1.0 / math.e)
        )
        assert (lengths.l1, lengths.l2, lengths.hilbert_length) == pytest.approx(
            (1.0, 1.0, 2.0), rel=1e-12
        )
        assert lengths.hilbert_length == lengths.l1 + lengths.l2

    def test_repeated_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            pk.IsometryClass.hyperbolic(2.0, 2.0, 0.25)

    def test_wrong_class(self):
        with pytest.raises(pk.WrongClass):
            pk.goldman_lengths(pk.IsometryClass.parabolic())


class TestBulging:
    def test_matrix_at_zero_is_identity(self):
        assert np.array_equal(pk.bulging_matrix(0.0), np.eye(3))

    def test_matrix_at_log2(self):
        m = pk.bulging_matrix(math.log(2.0))
        assert np.allclose(m, np.diag([0.5, 4.0, 0.5]), rtol=1e-12)

    def test_matrix_is_unimodular(self):
        for v in (-2.0, -0.3, 0.1, 1.7):
            assert np.linalg.det(pk.bulging_matrix(v)) == pytest.approx(1.0, rel=1e-12)

    def test_vertex_motion(self):
        assert pk.bulge_vertex(1.0, 1.0, 0.0) == pytest.approx([1.0, 1.0, 1.0])
        assert pk.bulge_vertex(1.0, 1.0, math.log(2.0) / 3.0) == pytest.approx(
            [1.0, 2.0, 1.0], rel=1e-12
        )
        assert pk.bulge_vertex(0.0, 0.7, 1.3) == pytest.approx([1.0, 0.0, 0.7])

    def test_vertex_matches_matrix_action(self):
        y, x, v = 1.7, 0.6, 0.37
        image = pk.bulging_matrix(v) @ np.array([1.0, y, x])
        assert image / image[0] == pytest.approx(pk.bulge_vertex(y, x, v), rel=1e-12)

    def test_shear_shift_examples(self):
        assert pk.shear_shift(0.3, -0.2, 0.1) == pytest.approx((0.0, 0.1), abs=1e-15)
        assert pk.shear_shift(0.5, 0.7, 0.0) == (0.5, 0.7)

    def test_shear_shift_sum_and_difference(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            s1, s2, v = rng.uniform(-3.0, 3.0, size=3)
            n1, n2 = pk.shear_shift(s1, s2, v)
            assert n1 + n2 == pytest.approx(s1 + s2, abs=1e-12)
            assert (n2 - n1) - (s2 - s1) == pytest.approx(6.0 * v, abs=1e-12)

    @pytest.mark.parametrize("v", [0.1, -0.1, 1.0, -1.0])
    def test_integration_with_flag_invariants(self, v):
        """Bulging the right-side flag shifts the shears by (-3v, +3v)."""
        e, f, g, l = pk.bulging_configuration(1.0, 1.0)
        before = (pk.shear(e, f, g, l, 1), pk.shear(e, f, g, l, 2))
        bulged = l.transform(pk.bulging_matrix(v))
        after = (pk.shear(e, f, g, bulged, 1), pk.shear(e, f, g, bulged, 2))
        assert after[0] - before[0] == pytest.approx(-3.0 * v, abs=1e-9)
        assert after[1] - before[1] == pytest.approx(3.0 * v, abs=1e-9)
        assert (after[1] - after[0]) - (before[1] - before[0]) == pytest.approx(
            6.0 * v, abs=1e-9
        )

    def test_configuration_validates_vertex(self):
        with pytest.raises(ValueError):
            pk.bulging_configuration(0.0, 1.0)
