"""Isometry classification, Goldman lengths, and the bulging deformation."""

import math
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import projkit as pk
from conftest import NORMAL_FORMS, assert_refuses, random_conjugator

EPS = 2.0**-52


def conjugate(rng, m, kappa):
    """P m P^-1 with P = Q1 diag(1, sqrt(kappa), kappa) Q2, Q1 and Q2 random orthogonal."""
    q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    s = np.array([1.0, math.sqrt(kappa), kappa])
    return (q1 * s) @ q2 @ m @ q2.T @ (q1 / s).T


def exact_char_poly(m):
    """(a, b, d) of det(xI - m) = x^3 - a x^2 + b x - d for the float matrix m, exactly."""
    e = [[Fraction(x) for x in row] for row in np.asarray(m).tolist()]
    k0 = e[1][1] * e[2][2] - e[1][2] * e[2][1]
    a = e[0][0] + e[1][1] + e[2][2]
    b = e[0][0] * e[1][1] - e[0][1] * e[1][0] + e[0][0] * e[2][2] - e[0][2] * e[2][0] + k0
    d = (e[0][0] * k0 - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
         + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))
    return a, b, d


def decimal_root(coefs, x0, digits=50):
    """The root of x^3 - a x^2 + b x - d that Newton's method reaches from x0, to ``digits``."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        a, b, d = (Decimal(c.numerator) / Decimal(c.denominator) for c in coefs)
        x = Decimal(x0)
        for _ in range(100):
            step = (((x - a) * x + b) * x - d) / ((3 * x - 2 * a) * x + b)
            x -= step
            if abs(step) <= abs(x) * Decimal(10) ** -(digits + 5):
                break
        return x


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

    def test_near_real_pair_merged_without_jordan_block(self):
        """0.5 R(1e-6) + 4: the pair's imaginary part 5e-7 is below pair_tol, so it
        counts as its real part twice; the rank test finds no Jordan block and the
        tied values fall through to the last branch, ``other``."""
        t = 1e-6
        m = np.diag([0.0, 0.0, 4.0])
        m[:2, :2] = 0.5 * np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        c = pk.classify(m)
        assert c.kind == "other"
        assert c.eigenvalues == (4.0, 0.49999999999975, 0.49999999999975)

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

    def test_det_gate_does_not_overflow(self):
        """||m||^2 of diag(1e200, 1, 1e-200) overflowed in the det gate with a numpy
        warning on stderr.  Which class comes out is not what this test checks."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = pk.classify(np.diag([1e200, 1.0, 1e-200]))
            # det 1e400 overflowed to inf, and inf > inf let it through the gate
            with pytest.raises(pk.NotUnimodular):
                pk.classify(np.diag([1e200, 1e200, 1.0]))
        assert c.kind in ("hyperbolic", "quasi_hyperbolic", "parabolic", "other")
        with pytest.raises(pk.NotUnimodular):
            pk.classify(np.diag([1e100, 1e100, 1.0]))

    @pytest.mark.parametrize("m, kind, data", [
        # d = det m / c^3 underflows in units of c ~ 2^365; l3 = 1e-217 is a normal float
        (np.diag([1e110, 1e107, 1e-217]), "hyperbolic", (1e110, 1e107, 1e-217)),
        (np.diag([1e6, 1.0, 1e-6]), "hyperbolic", (1e6, 1.0, 1e-6)),
        (np.diag([1e200, 1.0, 1e-200]), "other", (1e200, 1.0, 1e-200)),
        # the isolated root far below eps^2 of the pair
        (np.array([[1e11, 1.0, 0.0], [0.0, 1e11, 0.0], [0.0, 0.0, 1e-22]]), "other",
         (1e11, 1e11, 1e-22)),
        (np.array([[1e150, 1e148, 0.0], [0.0, 1e150, 0.0], [0.0, 0.0, 1e-300]]),
         "quasi_hyperbolic", (1e150, 1e-300)),
        (np.array([[1e110, 0.0, 0.0], [0.0, 1e-55, 1e105], [0.0, 0.0, 1e-55]]),
         "quasi_hyperbolic", (1e-55, 1e110)),
        # a pair below 2^-1000 c, where the sum of the minors in units of c underflows
        (np.array([[1e250, 0.0, 0.0], [0.0, 1e-125, 1.0], [0.0, 0.0, 1e-125]]), "other",
         (1e250, 1e-125, 1e-125)),
        (np.array([[1e300, 1.0, 0.0], [0.0, 1e-150, 1e-10], [0.0, 0.0, 1e-150]]), "other",
         (1e300, 1e-150, 1e-150)),
        (np.diag([1e250, 2e-125, 5e-126]), "other", (1e250, 2e-125, 5e-126)),
    ])
    def test_spread_spectrum_keeps_every_eigenvalue(self, m, kind, data):
        """The kind and eigen-data of triangular matrices whose eigenvalues span far
        more than the float range of one scale; eigvals gives them exactly.  Where a
        pair lay below ~2^-1000 max |entry| it came out 0.0."""
        c = pk.classify(m)
        assert c.kind == kind
        got = (c.mu, c.nu) if kind == "quasi_hyperbolic" else c.eigenvalues
        assert got == pytest.approx(data, rel=1e-14, abs=0.0)

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

    @pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4])
    def test_hyperbolic_eigenvalues_are_roots_of_the_input(self, kappa):
        """Reported eigenvalues are within 10 eps kappa^2 (relative) of the roots of
        the float input's own characteristic polynomial, taken to 50 digits by
        Newton's method from the normal form's eigenvalues 2, 1, 1/2.  Conjugates
        that come out quasi-hyperbolic carry no eigenvalues: the class decision at
        large kappa is the thresholds' business, not this test's."""
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(40):
            m = conjugate(rng, NORMAL_FORMS["hyperbolic"], kappa)
            c = pk.classify(m)
            if c.eigenvalues is None:
                continue
            coefs = exact_char_poly(m)
            for got, start in zip(c.eigenvalues, (2.0, 1.0, 0.5)):
                ref = decimal_root(coefs, start)
                assert abs(Decimal(got) - ref) <= Decimal(10.0 * EPS * kappa**2) * ref
            checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("kappa", [1.0, 1e2, 1e4])
    def test_quasi_hyperbolic_mu_from_the_determinant(self, kappa):
        """mu = sqrt(det / nu) to 1e-12, with det the input's exact determinant:
        mu comes from the simple root nu, not from the mean of the split pair."""
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(40):
            m = conjugate(rng, NORMAL_FORMS["quasi_hyperbolic"], kappa)
            c = pk.classify(m)
            if c.kind != "quasi_hyperbolic":
                continue
            det = float(exact_char_poly(m)[2])
            assert c.mu == pytest.approx(math.sqrt(det / c.nu), rel=1e-12)
            assert c.jordan_at_larger is (c.mu > c.nu)
            checked += 1
        assert checked >= 30


def _triangular(spec):
    """Upper-triangular matrix with diagonal (d1, d2, 1 / (d1 d2)) and off-diagonal
    entries up to max |d|, from (log10 d1, log10 d2, signs, off-diagonal factors)."""
    (e1, e2), (s1, s2), off = spec
    d = [s1 * 10.0**e1, s2 * 10.0**e2]
    d.append(1.0 / (d[0] * d[1]))
    big = max(map(abs, d))
    return np.array([[d[0], off[0] * big, off[1] * big],
                     [0.0, d[1], off[2] * big],
                     [0.0, 0.0, d[2]]])


def _spread_apart(spec):
    """The diagonal's entries are at least a factor 2 apart in size, and 1 / (d1 d2)
    is a normal float."""
    (e1, e2), _, _ = spec
    apart = min(abs(e1 - e2), abs(2.0 * e1 + e2), abs(e1 + 2.0 * e2)) >= 0.302
    return apart and abs(e1 + e2) <= 300


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.tuples(
    st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
    st.tuples(*[st.sampled_from([1.0, -1.0])] * 2),
    st.tuples(*[st.just(0.0) | st.floats(-1.0, 1.0)] * 3),
).filter(_spread_apart).map(_triangular))
def test_triangular_eigenvalues_to_rounding(m):
    """Real eigenvalues reported for a triangular matrix are its diagonal within 4 ulps,
    however far apart in size: no eigenvalue underflows in the units of the largest."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = pk.classify(m)
    if c.eigenvalues is not None:
        for got, d in zip(c.eigenvalues, sorted(np.diag(m).tolist(), reverse=True)):
            assert abs(got - d) <= 4 * EPS * abs(d)


def _product(factors):
    m = np.eye(3)
    with np.errstate(all="ignore"):
        for f in factors:
            m = m @ f
    return m


_MAGNITUDES = st.floats(5e-324, sys.float_info.max) | st.just(0.0)
_ENTRIES = st.builds(lambda x, sign: sign * x, _MAGNITUDES, st.sampled_from([1.0, -1.0]))
_FACTORS = st.sampled_from(
    list(NORMAL_FORMS.values())
    + [np.diag([1e200, 1.0, 1e-200]), np.diag([1e8, 1.0, 1e-8]), np.eye(3)[[1, 2, 0]]]
) | st.builds(lambda t: np.array([[math.cos(t), -math.sin(t), 0.0],
                                  [math.sin(t), math.cos(t), 0.0], [0.0, 0.0, 1.0]]),
              st.floats(0.0, 6.3)) | st.builds(
    lambda k, seed: conjugate(np.random.default_rng(seed), np.diag([4.0, 1.0, 0.25]), k),
    st.floats(1.0, 1e8), st.integers(0, 2**16))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.lists(_ENTRIES, min_size=9, max_size=9).map(lambda v: np.array(v).reshape(3, 3))
    | st.lists(_FACTORS, min_size=1, max_size=4).map(_product).filter(
        lambda m: np.all(np.isfinite(m)))
)
@example(np.diag([1e200, 1e200, 1.0]))
@example(np.diag([1e200, 1.0, 1e-200]))
@example(np.full((3, 3), 1.7e308))
@example(np.array([[0.0, 1e200, 0.0], [0.0, 0.0, 1.0], [1e-200, 0.0, 0.0]]))
@example(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.9974368165136842e307, 0.0]]))
def test_classify_total_on_finite_matrices(m):
    """Any finite 3x3 matrix gives an IsometryClass or NotUnimodular, with no
    numpy warning and no other exception, and the det gate decides as
    |det m - 1| <= DET_TOL max(1, ||m||_F^2) does in exact arithmetic (within a
    factor of 2 of the bound, where rounding may decide either way)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            c = pk.classify(m)
        except pk.NotUnimodular:
            c = None
    assert c is None or c.kind in ("hyperbolic", "quasi_hyperbolic", "parabolic", "other")
    e = [Fraction(x) for x in m.ravel().tolist()]
    det = exact_char_poly(m)[2]
    bound = Fraction(pk.isometry.DET_TOL) * max(1, sum(x * x for x in e))
    if c is None:
        assert abs(det - 1) > bound / 2
    else:
        assert abs(det - 1) <= 2 * bound


@st.composite
def _integer_matrices(draw):
    """Row-major integer 3x3 matrices with entries up to 2^60 in size: of full rank, or
    sums of one or two integer outer products."""
    rank = draw(st.sampled_from([1, 2, 3]))
    if rank == 3:
        return draw(st.lists(st.integers(-2**60, 2**60), min_size=9, max_size=9))
    vec = st.lists(st.integers(-2**(31 - rank), 2**(31 - rank)), min_size=3, max_size=3)
    terms = [(draw(vec), draw(vec)) for _ in range(rank)]
    return [sum(u[i] * v[j] for u, v in terms) for i in range(3) for j in range(3)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_integer_matrices(), st.floats(-1.0, 10.0), st.integers(-80, 80))
def test_rank_count_matches_svd(a, decades, s):
    """The exact count of singular values of a / 2^s above a threshold is LAPACK's on the
    float copy of a, wherever the threshold is at least 1e-10 sigma_1 and 1e-6 (relative)
    away from every singular value, so that rounding cannot decide."""
    sv = np.linalg.svd(np.array(a, dtype=float).reshape(3, 3), compute_uv=False)
    assume(sv[0] > 0.0)
    thr = sv[0] * 10.0**-decades
    assume(all(abs(thr - x) > 1e-6 * x for x in sv))
    assert pk.isometry._rank(a, s, math.ldexp(thr, -s)) == int(np.sum(sv > thr))


@pytest.mark.parametrize("a, s, thr, rank", [
    ([3, 0, 0, 0, 2, 0, 0, 0, 0], 0, 2.0, 1), ([3, 0, 0, 0, 2, 0, 0, 0, 0], 0, 3.0, 0),
    ([3, 0, 0, 0, 2, 0, 0, 0, 0], 0, 0.0, 2), ([3, 0, 0, 0, 2, 0, 0, 0, 1], 0, 1.0, 2),
    ([3, 0, 0, 0, 2, 0, 0, 0, 0], 1, 1.0, 1), ([0, 3, 0, 0, 0, 0, 2, 0, 0], -2, 8.0, 1),
])
def test_rank_count_is_strict(a, s, thr, rank):
    """A singular value equal to the threshold is not above it: the test is sv > thr."""
    assert pk.isometry._rank(a, s, thr) == rank


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

    @pytest.mark.parametrize("v", [10.0, 100.0, 300.0])
    def test_bulged_flag_far_out(self, v):
        """From v = 10 transform refused the bulged right-side flag ("linearly
        independent"), whose spanning vectors bulging_matrix scales apart by e^3v.
        The image is a flag on the image line, whose normal is m^-T times the
        line's; below v = 300 a tolerance under the unit pairing e2^l1 (9.4e-14
        at v = 10) gives the shears' shift of (-3v, 3v)."""
        e, f, g, l = pk.bulging_configuration(1.0, 1.0)
        m = pk.bulging_matrix(v)
        bulged = l.transform(m)
        assert isinstance(bulged, pk.Flag)
        normal, expected = bulged.line.normal, np.diag(1.0 / np.diag(m)) @ l.line.normal
        assert (normal / normal[0]).tolist() == pytest.approx(
            (expected / expected[0]).tolist(), rel=1e-12)
        if v < 300.0:
            shifts = [pk.shear(e, f, g, bulged, i, tol=1e-300) for i in (1, 2)]
            assert shifts == pytest.approx([-3.0 * v, 3.0 * v], rel=1e-12)

    @pytest.mark.parametrize("v", [354.9, 400.0, 1e308, -372.6, -400.0, -709.8, -1e308])
    def test_matrix_past_the_float_range(self, v):
        """e^2v overflows from v = 354.9 and underflows to 0 from v = -372.6, where the
        matrix was singular; e^-v overflowed with a bare OverflowError."""
        with pytest.raises(pk.NonFiniteResult):
            pk.bulging_matrix(v)

    def test_matrix_at_the_edges_of_the_float_range(self):
        for v in (354.8, -372.5):
            entries = pk.bulging_matrix(v).diagonal()
            assert np.all(np.isfinite(entries)) and np.all(entries > 0.0)

    def test_vertex_past_the_float_range(self):
        """e^3v y overflows from v = 236.6; a zero y stays 0 however small e^3v is."""
        assert math.isfinite(pk.bulge_vertex(1.0, 1.0, 236.5)[1])
        for v, y in ((236.6, 1.0), (1e308, 1.0), (-300.0, 1.0), (1.0, 1e308)):
            with pytest.raises(pk.NonFiniteResult):
                pk.bulge_vertex(y, 1.0, v)
        assert pk.bulge_vertex(0.0, 1.0, -300.0).tolist() == [1.0, 0.0, 1.0]

    def test_configuration_validates_vertex(self):
        with pytest.raises(ValueError):
            pk.bulging_configuration(0.0, 1.0)


@pytest.mark.parametrize("make, error, message", [
    (lambda: pk.classify(np.eye(2)), ValueError, "expected a 3x3 matrix, got shape (2, 2)"),
    (lambda: pk.IsometryClass.hyperbolic(2.0, 1.0, 0.4), ValueError,
     "hyperbolic eigenvalues must multiply to 1, got 0.8"),
    (lambda: pk.shear_shift(0.0, 0.0, 1e308), pk.NonFiniteResult,
     "the shears bulged by v = 1e+308 are not finite"),
], ids=["2x2-matrix", "product-0.8", "shear-overflow"])
def test_refusals(make, error, message):
    """Refusals that no other test reaches raise their own error and message."""
    assert_refuses(make, error, message)
