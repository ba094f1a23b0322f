"""Goldman -> Bonahon-Dreyer conversions, strata residuals and recoveries."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import projkit as pk
from conftest import assert_refuses, random_boundary, random_hyperbolic_boundary, random_pants
from projkit import coords


class TestBoundaryData:
    def test_hyperbolic_needs_real_spectrum(self):
        with pytest.raises(pk.ComplexEigenvalues):
            pk.BoundaryData.hyperbolic(0.5, 2.0)  # tau^2 = 4 < 4/lambda = 8

    def test_hyperbolic_needs_small_lambda(self):
        with pytest.raises(ValueError):
            pk.BoundaryData.hyperbolic(1.2, 5.0)

    def test_parabolic_is_pinned(self):
        b = pk.BoundaryData.parabolic()
        assert (b.lam, b.tau) == (1.0, 2.0)
        with pytest.raises(ValueError):
            pk.BoundaryData(1.1, 2.0, "parabolic")

    def test_quasi_sits_on_discriminant(self):
        b = pk.BoundaryData.quasi_hyperbolic(0.25)
        assert b.tau == pytest.approx(4.0, rel=1e-12)
        with pytest.raises(ValueError):
            pk.BoundaryData(0.25, 3.9, "quasi_hyperbolic")
        for lam in (0.0, -0.25, math.nan):
            with pytest.raises(ValueError):
                pk.BoundaryData.quasi_hyperbolic(lam)

    def test_mu_is_derived_at_construction(self):
        """mu is a field computed once when the data is validated; middle_eigenvalue reads it."""
        cases = [(pk.BoundaryData.hyperbolic(0.2, 5.0), (5.0 - math.sqrt(5.0)) / 2.0),
                 (pk.BoundaryData.quasi_hyperbolic(0.25), 2.0), (pk.BoundaryData.parabolic(), 1.0)]
        for b, mu in cases:
            assert b.mu == pytest.approx(mu, rel=1e-15)
            assert pk.middle_eigenvalue(b) == b.mu
        with pytest.raises(TypeError):
            pk.BoundaryData(0.2, 5.0, "hyperbolic", 1.0)

    def test_one_discriminant_test(self):
        """Hyperbolic data needs 1 - 4/(lambda tau^2) > 0, tested once.  A subnormal lambda
        made 4/lambda overflow, so the old separate test tau^2 > 4/lambda refused valid
        data; where the rounded discriminant is 0 the data is refused as a double root
        instead of giving mu = tau/2."""
        lam, tau = 1.009016282185e-312, 3.1152718757129725e212
        with localcontext() as ctx:
            ctx.prec = 40
            big_l, big_t = Decimal(lam), Decimal(tau)
            ref = 2 / (big_l * (big_t + (big_t * big_t - 4 / big_l).sqrt()))
            assert abs(Decimal(pk.BoundaryData.hyperbolic(lam, tau).mu) / ref - 1) < Decimal(1e-15)
        for lam, tau in [(0.013455242339538934, 17.24186473183254), (0.2, 5e-324), (1e-300, 1e-30)]:
            # lambda tau underflows to 0 in the last two, which raised ZeroDivisionError
            with pytest.raises(pk.ComplexEigenvalues,
                               match=r"^hyperbolic boundary needs tau\^2 > 4/lambda$"):
                pk.BoundaryData.hyperbolic(lam, tau)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            pk.BoundaryData(0.5, 3.0, "elliptic")

    def test_bd_coordinates_must_be_finite(self):
        with pytest.raises(ValueError):
            pk.PantsBD((0.0, math.inf, 0.0), (0.0, 0.0, 0.0), 0.0, 0.0)


class TestMiddleEigenvalue:
    def test_parabolic_gives_one(self):
        assert pk.middle_eigenvalue(pk.BoundaryData.parabolic()) == 1.0

    def test_smaller_quadratic_root(self):
        mu = pk.middle_eigenvalue(pk.BoundaryData.hyperbolic(0.2, 5.0))
        assert mu == pytest.approx((5.0 - math.sqrt(5.0)) / 2.0, rel=1e-12)
        # mu solves x^2 - tau x + 1/lambda = 0
        assert mu * mu - 5.0 * mu + 5.0 == pytest.approx(0.0, abs=1e-12)

    def test_quasi_double_root(self):
        b = pk.BoundaryData(0.25, 4.0, "quasi_hyperbolic")
        mu = pk.middle_eigenvalue(b)
        assert mu == 2.0
        assert mu * mu * b.lam == pytest.approx(1.0, rel=1e-12)

    def test_hyperbolic_against_decimal(self):
        """mu against 40-digit decimal arithmetic, mu = 1 / (lambda nu) with the
        larger root nu = (tau + sqrt(tau^2 - 4/lambda)) / 2, on lambda down to
        1e-300 and tau up to 1e308, half the draws within 1e-12 .. 1 (relative)
        of the double root.  The bound is the conditioning of the smaller root,
        a few eps / sqrt(1 - 4 / (lambda tau^2)).  (0.5, 1e7) cancelled to a
        relative error of 1.2e-3 and (0.5, 1e160) gave -inf in tau - sqrt(...)."""
        rng = np.random.default_rng(97)
        cases = [(0.5, 1e7), (0.5, 1e160), (0.9, 1e308), (1e-300, 1e160)]
        for k in range(2000):
            lam = 10.0 ** rng.uniform(-300.0, -1e-3)
            root = 2.0 / math.sqrt(lam)
            if k % 2:
                tau = 10.0 ** rng.uniform(math.log10(root), 307.9)
            else:
                tau = root * (1.0 + 10.0 ** rng.uniform(-12.0, 0.0))
            cases.append((lam, tau))
        with localcontext() as ctx:
            ctx.prec = 40
            for lam, tau in cases:
                mu = pk.middle_eigenvalue(pk.BoundaryData.hyperbolic(lam, tau))
                big_l, big_t = Decimal(lam), Decimal(tau)
                disc = 1 - 4 / (big_l * big_t * big_t)
                ref = 2 / (big_l * (big_t + big_t * disc.sqrt()))
                bound = 4.0 * 2.0**-52 / math.sqrt(disc)
                assert abs(Decimal(mu) - ref) <= Decimal(bound) * ref, (lam, tau)
        bd = pk.pants_goldman_to_bd(pk.PantsGoldman(
            (pk.BoundaryData.hyperbolic(0.5, 1e160),) + (pk.BoundaryData.parabolic(),) * 2,
            1.0, 1.0))
        assert all(math.isfinite(x) for x in (*bd.sigma1, *bd.sigma2, bd.tplus, bd.tminus))


class TestPantsConversion:
    def test_all_parabolic_values(self):
        g = pk.PantsGoldman((pk.BoundaryData.parabolic(),) * 3, 2.0, 1.0)
        bd = pk.pants_goldman_to_bd(g)
        assert bd.sigma1 == pytest.approx((math.log(2.0),) * 3, rel=1e-12)
        assert bd.sigma2 == pytest.approx((-math.log(2.0),) * 3, rel=1e-12)
        assert bd.tplus == pytest.approx(math.log(3.0), rel=1e-12)
        assert bd.tminus == pytest.approx(-math.log(3.0), rel=1e-12)

    def test_tau_sum_is_log_mu_product(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            g = random_pants(rng)
            bd = pk.pants_goldman_to_bd(g)
            logmu = sum(math.log(pk.middle_eigenvalue(b)) for b in g.boundaries)
            assert bd.tplus + bd.tminus == pytest.approx(logmu, abs=1e-12)

    def test_matches_all_parabolic_coords(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            s, t = rng.uniform(0.2, 5.0, size=2)
            g = pk.PantsGoldman((pk.BoundaryData.parabolic(),) * 3, s, t)
            bd = pk.pants_goldman_to_bd(g)
            sigma, tplus = pk.all_parabolic_coords(s, t)
            assert bd.sigma1[0] == sigma
            assert bd.tplus == pytest.approx(tplus, abs=1e-12)

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(pk.NonPositiveParameter):
            pk.PantsGoldman((pk.BoundaryData.parabolic(),) * 3, -1.0, 1.0)
        with pytest.raises(pk.NonPositiveParameter):
            pk.all_parabolic_coords(1.0, 0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(1e-300, 1e308), st.floats(1e-300, 1e308))
@example(1e308, 0.5)
@example(1e-300, 1e308)
def test_all_parabolic_conversion_closed_form(s, t):
    """sigma1 = log s, sigma2 = -log s and tau111(T+) = log((s+1)/t) over the
    whole positive float range, against 40-digit decimal logarithms.  The
    error is relative to the size of the logs that make up each value."""
    p = pk.BoundaryData.parabolic()
    bd = pk.pants_goldman_to_bd(pk.PantsGoldman((p, p, p), s, t))
    with localcontext() as ctx:
        ctx.prec = 40
        log_s, log_t = Decimal(s).ln(), Decimal(t).ln()
        tplus = ((Decimal(s) + 1) / Decimal(t)).ln()
    size = max(1.0, abs(float(log_s)), abs(float(log_t)))
    assert max(abs(x - float(log_s)) for x in bd.sigma1) <= 1e-15 * size
    assert max(abs(x + float(log_s)) for x in bd.sigma2) <= 1e-15 * size
    assert abs(bd.tplus - float(tplus)) <= 1e-15 * size
    assert pk.all_parabolic_coords(s, t) == (bd.sigma1[0], bd.tplus)


class TestAllParabolicRoundTrip:
    def test_worked_values(self):
        assert pk.all_parabolic_coords(1.0, 1.0) == pytest.approx((0.0, math.log(2.0)))
        assert pk.all_parabolic_coords(2.0, 3.0) == pytest.approx((math.log(2.0), 0.0))
        assert pk.all_parabolic_coords(math.e, 1.0) == pytest.approx(
            (1.0, math.log(math.e + 1.0))
        )
        assert pk.all_parabolic_recover(0.0, math.log(2.0)) == pytest.approx((1.0, 1.0))
        assert pk.all_parabolic_recover(math.log(2.0), 0.0) == pytest.approx((2.0, 3.0))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(73)
        for _ in range(1000):
            s, t = rng.uniform(0.05, 20.0, size=2)
            rs, rt = pk.all_parabolic_recover(*pk.all_parabolic_coords(s, t))
            assert rs == pytest.approx(s, rel=1e-12)
            assert rt == pytest.approx(t, rel=1e-12)


class TestStratumResiduals:
    def test_r1_vanishes_on_parabolic_stratum(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            g = random_pants(
                rng, kinds=("parabolic", "hyperbolic", "hyperbolic")
            )
            bd = pk.pants_goldman_to_bd(g)
            r1, _ = pk.one_parabolic_residuals(bd)
            assert abs(r1) <= 1e-12

    def test_r2_measures_lambda_ratio(self):
        """r2 is log(mu1/lambda1); the four-term combination is log(lambda2/lambda3).

        sigma1(B1) - sigma2(B1) + sigma1(B3) - sigma2(B2) equals
        log(s^4 * lambda2/lambda3) whatever A1 is, so it cannot serve as an
        A1-parabolic stratum relation.  r2 measures the ratio of A1's own
        eigenvalues instead: it is zero for parabolic A1 and nonzero for
        quasi-hyperbolic A1 (where r1 is zero) and for hyperbolic A1.
        """
        rng = np.random.default_rng(83)
        for kind in ("parabolic", "quasi_hyperbolic", "hyperbolic"):
            for _ in range(200):
                g = random_pants(rng, kinds=(kind, "hyperbolic", "hyperbolic"))
                bd = pk.pants_goldman_to_bd(g)
                _, r2 = pk.one_parabolic_residuals(bd)
                b1, b2, b3 = g.boundaries
                four = bd.sigma1[0] - bd.sigma2[0] + bd.sigma1[2] - bd.sigma2[1]
                assert four - 4.0 * math.log(g.s) == pytest.approx(
                    math.log(b2.lam / b3.lam), abs=1e-12
                )
                mu1 = pk.middle_eigenvalue(b1)
                assert r2 == pytest.approx(math.log(mu1 / b1.lam), abs=1e-12)
                if kind != "parabolic":
                    assert abs(r2) > 1e-6

    def test_r2_vanishes_when_glued_boundaries_match(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            c = random_hyperbolic_boundary(rng)
            g = pk.PantsGoldman(
                (pk.BoundaryData.parabolic(), c, c),
                rng.uniform(0.2, 5.0),
                rng.uniform(0.2, 5.0),
            )
            bd = pk.pants_goldman_to_bd(g)
            r1, r2 = pk.one_parabolic_residuals(bd)
            assert abs(r1) <= 1e-12
            assert abs(r2) <= 1e-12

    def test_residuals_linear_in_perturbation(self):
        g = pk.PantsGoldman(
            (
                pk.BoundaryData.parabolic(),
                pk.BoundaryData.hyperbolic(0.2, 5.0),
                pk.BoundaryData.hyperbolic(0.2, 5.0),
            ),
            2.0,
            1.0,
        )
        bd = pk.pants_goldman_to_bd(g)
        delta = 0.37
        bumped = pk.PantsBD(
            (bd.sigma1[0], bd.sigma1[1] + delta, bd.sigma1[2]),
            bd.sigma2,
            bd.tplus,
            bd.tminus,
        )
        r1, _ = pk.one_parabolic_residuals(bumped)
        assert r1 == pytest.approx(delta, abs=1e-12)

    def test_zero_bd_residuals(self):
        bd = pk.PantsBD((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, 0.0)
        assert pk.one_parabolic_residuals(bd) == (0.0, 0.0)
        assert pk.quasi_hyperbolic_residual(bd) == 0.0

    def test_quasi_residual_vanishes_on_stratum(self):
        rng = np.random.default_rng(97)
        for _ in range(200):
            g = random_pants(rng, kinds=("quasi_hyperbolic", "hyperbolic", "hyperbolic"))
            bd = pk.pants_goldman_to_bd(g)
            assert abs(pk.quasi_hyperbolic_residual(bd)) <= 1e-12

    def test_quasi_residual_detects_hyperbolic_a1(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            g = random_pants(rng, kinds=("hyperbolic", "hyperbolic", "hyperbolic"))
            bd = pk.pants_goldman_to_bd(g)
            b1 = g.boundaries[0]
            expected = 2.0 * math.log(
                pk.middle_eigenvalue(b1) * math.sqrt(b1.lam)
            )
            assert pk.quasi_hyperbolic_residual(bd) == pytest.approx(
                expected, abs=1e-12
            )
            assert abs(pk.quasi_hyperbolic_residual(bd)) > 1e-6


class TestTorus:
    def test_gluing_shears(self):
        b = pk.BoundaryData.parabolic()
        c = pk.BoundaryData.hyperbolic(0.2, 5.0)
        tbd = pk.torus_goldman_to_bd(pk.TorusGoldman(b, c, 2.0, 1.0, 1.0, 0.5))
        assert tbd.sigma_c1 == pytest.approx(-0.5)
        assert tbd.sigma_c2 == pytest.approx(2.5)
        zero = pk.torus_goldman_to_bd(pk.TorusGoldman(b, c, 2.0, 1.0, 0.0, 0.0))
        assert (zero.sigma_c1, zero.sigma_c2) == (0.0, 0.0)

    def test_gluing_linear_relations(self):
        rng = np.random.default_rng(103)
        b = pk.BoundaryData.parabolic()
        c = pk.BoundaryData.hyperbolic(0.3, 4.0)
        for _ in range(200):
            u, v = rng.uniform(-4.0, 4.0, size=2)
            tbd = pk.torus_goldman_to_bd(pk.TorusGoldman(b, c, 1.0, 1.0, u, v))
            assert tbd.sigma_c2 - tbd.sigma_c1 == pytest.approx(6.0 * v, abs=1e-12)
            assert tbd.sigma_c1 + tbd.sigma_c2 == pytest.approx(2.0 * u, abs=1e-12)

    def test_gluing_curve_must_be_hyperbolic(self):
        with pytest.raises(ValueError):
            pk.TorusGoldman(
                pk.BoundaryData.parabolic(),
                pk.BoundaryData.parabolic(),
                1.0,
                1.0,
                0.0,
                0.0,
            )

    def test_parabolic_recover_round_trip(self):
        rng = np.random.default_rng(107)
        for _ in range(300):
            c = random_hyperbolic_boundary(rng)
            s, t = rng.uniform(0.2, 5.0, size=2)
            g = pk.TorusGoldman(pk.BoundaryData.parabolic(), c, s, t, 0.0, 0.0)
            tbd = pk.torus_goldman_to_bd(g)
            rec = pk.torus_parabolic_recover(tbd.pants.sigma1, tbd.pants.tplus)
            assert rec.s == pytest.approx(s, rel=1e-12)
            assert rec.lam2 == pytest.approx(c.lam, rel=1e-12)
            assert rec.mu2 == pytest.approx(pk.middle_eigenvalue(c), rel=1e-12)
            assert rec.t == pytest.approx(t, rel=1e-12)
            assert rec.bd.sigma2 == pytest.approx(tbd.pants.sigma2, abs=1e-12)
            assert rec.bd.tminus == pytest.approx(tbd.pants.tminus, abs=1e-12)

    def test_recovered_shear_relations(self):
        c = pk.BoundaryData.hyperbolic(0.2, 5.0)
        g = pk.TorusGoldman(pk.BoundaryData.parabolic(), c, 2.0, 1.0, 0.0, 0.0)
        bd = pk.torus_goldman_to_bd(g).pants
        rec = pk.torus_parabolic_recover(bd.sigma1, bd.tplus)
        logs = math.log(rec.s)
        assert rec.bd.sigma1[1] == pytest.approx(-rec.bd.sigma2[2], abs=1e-12)
        assert rec.bd.sigma1[0] - rec.bd.sigma2[0] == pytest.approx(
            2.0 * logs, abs=1e-12
        )
        assert rec.bd.sigma1[2] - rec.bd.sigma2[1] == pytest.approx(
            2.0 * logs, abs=1e-12
        )

    def test_recover_rejects_off_stratum(self):
        # sigma1(B1) far above sigma1(B3) forces lambda2 >= 1
        with pytest.raises(pk.InconsistentStratum):
            pk.torus_parabolic_recover((5.0, 0.0, 0.1), 0.0)
        # s = 1, lambda2 = 1/2, mu2 = 2 has mu2^2 lambda2 = 2 > 1, and
        # lambda2 = e^-2, mu2 = e has mu2^2 lambda2 = 1 exactly: in neither is
        # mu2 the middle eigenvalue of a hyperbolic gluing curve
        for sigma1 in ((0.0, 0.0, math.log(2.0)), (-1.0, 0.0, 1.0)):
            with pytest.raises(pk.InconsistentStratum):
                pk.torus_parabolic_recover(sigma1, 0.0)

    def test_quasi_hyperbolic_boundary_relations(self):
        """On the quasi-hyperbolic torus stratum the shears collapse the
        same way as on the parabolic one: sigma1(B2) = log s = -sigma2(B3)
        and sigma1(B_i) - sigma2(B_{i' }) = 2 log s for the two pairs."""
        rng = np.random.default_rng(109)
        for _ in range(100):
            b = pk.BoundaryData.quasi_hyperbolic(rng.uniform(0.05, 0.8))
            c = random_hyperbolic_boundary(rng)
            s, t = rng.uniform(0.2, 5.0, size=2)
            bd = pk.torus_goldman_to_bd(pk.TorusGoldman(b, c, s, t, 0.0, 0.0)).pants
            logs = math.log(s)
            assert bd.sigma1[1] == pytest.approx(logs, abs=1e-12)
            assert bd.sigma2[2] == pytest.approx(-logs, abs=1e-12)
            assert bd.sigma1[0] - bd.sigma2[0] == pytest.approx(2 * logs, abs=1e-12)
            assert bd.sigma1[2] - bd.sigma2[1] == pytest.approx(2 * logs, abs=1e-12)
            assert abs(pk.quasi_hyperbolic_residual(bd)) <= 1e-12


class TestStrata:
    def test_codimension_values(self):
        assert pk.stratum_codimension(("hyperbolic",) * 3) == 0
        assert pk.stratum_codimension(("parabolic", "hyperbolic", "hyperbolic")) == 2
        assert pk.stratum_codimension(("parabolic",) * 3) == 6
        assert pk.stratum_codimension("quasi_hyperbolic") == 1

    def test_parameter_counts_complement_codimension(self):
        pants_cases = [
            ("hyperbolic", "hyperbolic", "hyperbolic"),
            ("quasi_hyperbolic", "hyperbolic", "hyperbolic"),
            ("parabolic", "hyperbolic", "hyperbolic"),
        ]
        for kinds in pants_cases:
            names = pk.stratum_parameters("pants", kinds)
            assert len(names) == 8 - pk.stratum_codimension(kinds)
        # the all-parabolic pants is the exception: only 2 survive
        assert len(pk.stratum_parameters("pants", ("parabolic",) * 3)) == 2
        for kind in ("hyperbolic", "quasi_hyperbolic", "parabolic"):
            names = pk.stratum_parameters("torus", (kind,))
            assert len(names) == 8 - pk.stratum_codimension((kind,))
            assert pk.stratum_parameters("torus", kind) == names  # a bare kind string

    def test_unenumerated_stratum_rejected(self):
        with pytest.raises(ValueError):
            pk.stratum_parameters("pants", ("parabolic", "parabolic", "hyperbolic"))
        with pytest.raises(ValueError):
            pk.stratum_parameters("sphere", ("hyperbolic",))


_PARABOLIC = pk.BoundaryData.parabolic()


@pytest.mark.parametrize("make, error, message", [
    (lambda: pk.BoundaryData(1.5, 2.0 / math.sqrt(1.5), "quasi_hyperbolic"), ValueError,
     "quasi-hyperbolic boundary needs lambda < 1"),
    (lambda: pk.PantsGoldman((_PARABOLIC,) * 2, 1.0, 1.0), ValueError,
     "a pair of pants has exactly 3 boundary curves"),
    (lambda: pk.TorusGoldman(_PARABOLIC, pk.BoundaryData.hyperbolic(0.2, 5.0), 0.0, 1.0, 0.0, 0.0),
     pk.NonPositiveParameter, "internal parameters s, t must be positive"),
    (lambda: pk.PantsBD((0.0, 0.0), (0.0, 0.0, 0.0), 0.0, 0.0), ValueError,
     "sigma1 and sigma2 each need 3 entries"),
    (lambda: pk.TorusBD(pk.PantsBD((0.0,) * 3, (0.0,) * 3, 0.0, 0.0), math.inf, 0.0), ValueError,
     "gluing shears must be finite"),
    (lambda: pk.torus_parabolic_recover((0.0, 0.0), 0.0), ValueError,
     "expected the three shears sigma1(B1..B3)"),
    # s or t past the float range: these raised OverflowError ("math range error")
    (lambda: pk.torus_parabolic_recover((0, 710, 0), 0), pk.NonFiniteResult,
     "recovered s leaves the float range"),
    (lambda: pk.torus_parabolic_recover((-3, 0, -1), -800), pk.NonFiniteResult,
     "recovered t leaves the float range"),
    (lambda: pk.all_parabolic_recover(710, 0), pk.NonFiniteResult,
     "recovered s leaves the float range"),
    (lambda: pk.all_parabolic_recover(0, -800), pk.NonFiniteResult,
     "recovered t leaves the float range"),
    (lambda: pk.all_parabolic_recover(math.nan, 0.0), ValueError,
     "Bonahon-Dreyer coordinates must be finite"),
    (lambda: pk.all_parabolic_recover(0.0, math.nan), ValueError,
     "Bonahon-Dreyer coordinates must be finite"),
], ids=["quasi-lambda-above-1", "pants-of-2", "torus-s-0", "pants-bd-of-2", "torus-bd-inf",
        "recover-of-2", "recover-s-overflow", "recover-t-overflow", "all-parabolic-s-overflow",
        "all-parabolic-t-overflow", "all-parabolic-nan-sigma", "all-parabolic-nan-tplus"])
def test_refusals(make, error, message):
    """Refusals that no other test reaches raise their own error and message."""
    assert_refuses(make, error, message)


_PINCHED = {
    "pants-A1": pk.PantsGoldman((pk.BoundaryData.hyperbolic(0.3, 4.5),
                                 pk.BoundaryData.hyperbolic(0.2, 6.0),
                                 pk.BoundaryData.hyperbolic(0.6, 2.7)), 1.5, 0.7),
    "torus": pk.TorusGoldman(pk.BoundaryData.hyperbolic(0.3, 4.0),
                             pk.BoundaryData.hyperbolic(0.2, 5.0), 2.0, 1.0, 1.0, 0.5),
}


@pytest.mark.parametrize("g", _PINCHED.values(), ids=_PINCHED)
def test_pinch_starts_at_convert_and_ends_on_the_parabolic_stratum(g):
    """The pinching path behind ``projkit sweep``: its first row is the conversion of the
    record, bit for bit (tau, rebuilt from mu, to rounding), and its last row, with the
    pinched boundary parabolic, satisfies both relations of the A1-parabolic stratum
    (one_parabolic_residuals)."""
    steps = 100
    start, columns, gluing = coords._pinch(g, 1, steps)

    def row(k):
        return pk.PantsBD([columns[f"sigma1_B{i}"][k] for i in (1, 2, 3)],
                          [columns[f"sigma2_B{i}"][k] for i in (1, 2, 3)],
                          columns["tplus"][k], columns["tminus"][k])

    if isinstance(g, pk.TorusGoldman):
        bd = pk.torus_goldman_to_bd(g)
        ref = bd.pants
        assert (start, gluing) == (g.b, {"sigmaC1": bd.sigma_c1, "sigmaC2": bd.sigma_c2})
    else:
        ref = pk.pants_goldman_to_bd(g)
        assert (start, gluing) == (g.boundaries[0], {})
    assert columns["lambda"][0] == start.lam
    assert columns["tau"][0] == pytest.approx(start.tau, rel=1e-14)
    assert row(0) == ref
    assert (columns["lambda"][steps], columns["tau"][steps]) == (1.0, 2.0)
    assert all(abs(r) <= 1e-12 for r in pk.one_parabolic_residuals(row(steps)))


# ---------------------------------------------------------------------------
# one arithmetic for convert and sweep: each sweep row is one _convert call on Python
# floats, the scalar conversions a batch of one

def _hyperbolic(lam: float, excess: float) -> pk.BoundaryData:
    """Hyperbolic data with tau = (2 / sqrt(lambda)) (1 + excess), above the double root."""
    return pk.BoundaryData.hyperbolic(lam, 2.0 / math.sqrt(lam) * (1.0 + excess))


# excess from 1e-12, next to the double root tau^2 = 4/lambda, to 1e160
_HYPERBOLIC = st.builds(_hyperbolic, st.floats(1e-3, 0.999), st.floats(-12.0, 160.0).map(
    lambda e: 10.0 ** e))
_BOUNDARY = st.one_of(_HYPERBOLIC, st.floats(1e-3, 0.999).map(pk.BoundaryData.quasi_hyperbolic),
                      st.just(pk.BoundaryData.parabolic()))
_PARAMETER = st.floats(1e-3, 1e3)


@st.composite
def _pinched_records(draw):
    """A pants record and the index of a hyperbolic boundary, or a torus record and 1."""
    s, t = draw(_PARAMETER), draw(_PARAMETER)
    if draw(st.booleans()):
        b, c, u, v = draw(_HYPERBOLIC), draw(_HYPERBOLIC), draw(_PARAMETER), draw(_PARAMETER)
        return pk.TorusGoldman(b, c, s, t, u, v), 1
    boundary = draw(st.integers(1, 3))
    boundaries = [draw(_BOUNDARY) for _ in range(3)]
    boundaries[boundary - 1] = draw(_HYPERBOLIC)
    return pk.PantsGoldman(tuple(boundaries), s, t), boundary


_PARABOLIC_PAIR = (pk.BoundaryData.parabolic(),) * 2


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_pinched_records(), st.integers(1, 50))
@example((pk.PantsGoldman((pk.BoundaryData.hyperbolic(0.5, 2.8284271385627746),
                           *_PARABOLIC_PAIR), 1.0, 1.0), 1), 10000)
@example((pk.PantsGoldman((pk.BoundaryData.hyperbolic(0.5, 1e160), *_PARABOLIC_PAIR),
                          1.0, 1.0), 1), 4)
def test_pinch_row_0_is_convert_and_its_last_row_parabolic(record, steps):
    """Row 0 of _pinch is the record's conversion repr for repr, the torus gluing shears
    too, and its last row is (lambda, tau) = (1, 2) exactly: for pants and torus records,
    next to the double root and at tau = 1e160."""
    g, boundary = record
    start, columns, gluing = coords._pinch(g, boundary, steps)
    if isinstance(g, pk.TorusGoldman):
        bd = pk.torus_goldman_to_bd(g)
        ref, ref_gluing = bd.pants, [bd.sigma_c1, bd.sigma_c2]
    else:
        ref, ref_gluing = pk.pants_goldman_to_bd(g), []
    names = [f"sigma{j}_B{i}" for j in (1, 2) for i in (1, 2, 3)] + ["tplus", "tminus"]
    row0 = [columns[name][0] for name in names] + list(gluing.values())
    expected = [*ref.sigma1, *ref.sigma2, ref.tplus, ref.tminus, *ref_gluing]
    assert list(map(repr, row0)) == list(map(repr, expected))
    assert (columns["lambda"][steps], columns["tau"][steps]) == (1.0, 2.0)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.floats())
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
def test_softplus_float_branch_is_logaddexp(x):
    """The softplus of a float is np.logaddexp(0, x) bit for bit, signed zeros, subnormals,
    infinities and NaN included, and it is a Python float."""
    with np.errstate(invalid="ignore"):  # numpy flags a NaN operand
        expected = np.logaddexp(0.0, x)
    got = coords._softplus(x)
    assert type(got) is float
    assert repr(got) == repr(float(expected))


def test_scalar_results_are_python_floats():
    """Every number of a PantsBD, TorusBD, TorusParabolicRecovery and
    all_parabolic_coords result is a Python float, not a numpy scalar."""
    rng = np.random.default_rng(113)

    def floats(bd):
        return [*bd.sigma1, *bd.sigma2, bd.tplus, bd.tminus]

    numbers = []
    for kinds in (None, ["quasi_hyperbolic"] * 3, ["parabolic"] * 3):
        for _ in range(20):
            numbers += floats(pk.pants_goldman_to_bd(random_pants(rng, kinds)))
    b, c = random_boundary(rng, "parabolic"), random_hyperbolic_boundary(rng)
    tbd = pk.torus_goldman_to_bd(pk.TorusGoldman(b, c, 2.0, 1.0, np.float64(1.0), np.float64(0.5)))
    numbers += [*floats(tbd.pants), tbd.sigma_c1, tbd.sigma_c2]
    rec = pk.torus_parabolic_recover(np.array(tbd.pants.sigma1), np.float64(tbd.pants.tplus))
    numbers += [*rec[:4], *floats(rec.bd)]
    numbers += [*pk.all_parabolic_coords(2.0, 3.0), *pk.all_parabolic_coords(1, 1)]
    assert {type(x) for x in numbers} == {float}
