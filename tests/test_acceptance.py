"""Acceptance suite: one test per criterion, at the stated tolerances.

Every test records a PASS/FAIL line that the terminal summary prints at the
end of the run (see conftest).  Criterion 7 is split into sub-criteria
C7a-C7e, one per relation on the degenerate strata; every criterion is
expected to pass.
"""

import inspect
import math
import time

import numpy as np
import pytest

import projkit as pk
from conftest import (
    NORMAL_FORMS,
    random_conjugator,
    random_generic_quadruple,
    random_generic_triple,
    random_hyperbolic_boundary,
    random_pants,
    random_projective_map,
    record_acceptance,
    standard_triangle_flags,
)


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start

    def within(self, bound: float) -> bool:
        return self.elapsed < bound


def check(name, ok, detail=""):
    record_acceptance(name, ok, detail)
    assert ok, f"{name}: {detail}"


def test_c01_worked_flag_example():
    """T(E,F,G) = (1 - alpha)/alpha on the inscribed-triangle flags."""
    with Timer() as t:
        worst = 0.0
        for alpha in (0.5, 0.25, 0.1, 0.01):
            value = pk.triple_ratio(*standard_triangle_flags(alpha)).value
            expected = (1.0 - alpha) / alpha
            worst = max(worst, abs(value - expected) / expected)
    check(
        "C1 worked-example reproduction",
        worst <= 1e-9 and t.within(1.0),
        f"max rel err {worst:.2e}, {t.elapsed:.2f}s",
    )


def test_c02_flag_identity_suite():
    """Cyclic/inversion identities and invariance over random generic flags."""
    rng = np.random.default_rng(2024)
    with Timer() as t:
        worst_cyc = worst_inv = worst_scale = worst_proj = 0.0
        for _ in range(1000):
            e, f, g = random_generic_triple(rng)
            tval = pk.triple_ratio(e, f, g).value
            worst_cyc = max(
                worst_cyc, abs(pk.triple_ratio(f, g, e).value - tval) / abs(tval)
            )
            worst_inv = max(
                worst_inv, abs(tval * pk.triple_ratio(f, e, g).value - 1.0)
            )
            cs = rng.uniform(0.1, 10.0, size=9) * rng.choice([-1.0, 1.0], size=9)
            scaled = tuple(
                fl.rescaled(*cs[3 * k : 3 * k + 3]) for k, fl in enumerate((e, f, g))
            )
            worst_scale = max(
                worst_scale, abs(pk.triple_ratio(*scaled).value - tval) / abs(tval)
            )
            m = random_projective_map(rng)
            moved = tuple(fl.transform(m) for fl in (e, f, g))
            worst_proj = max(
                worst_proj, abs(pk.triple_ratio(*moved).value - tval) / abs(tval)
            )
        for _ in range(1000):
            quad = random_generic_quadruple(rng)
            d = pk.double_ratios(*quad)
            cs = rng.uniform(0.1, 10.0, size=12) * rng.choice([-1.0, 1.0], size=12)
            scaled = tuple(
                fl.rescaled(*cs[3 * k : 3 * k + 3]) for k, fl in enumerate(quad)
            )
            ds = pk.double_ratios(*scaled)
            worst_scale = max(
                worst_scale,
                abs(ds.d1 - d.d1) / abs(d.d1),
                abs(ds.d2 - d.d2) / abs(d.d2),
            )
            m = random_projective_map(rng)
            dm = pk.double_ratios(*(fl.transform(m) for fl in quad))
            worst_proj = max(
                worst_proj,
                abs(dm.d1 - d.d1) / abs(d.d1),
                abs(dm.d2 - d.d2) / abs(d.d2),
            )
    ok = (
        worst_cyc <= 1e-9
        and worst_inv <= 1e-9
        and worst_scale <= 1e-12
        and worst_proj <= 1e-9
        and t.within(5.0)
    )
    check(
        "C2 flag-identity suite",
        ok,
        f"cyc {worst_cyc:.1e} inv {worst_inv:.1e} scale {worst_scale:.1e} "
        f"proj {worst_proj:.1e}, {t.elapsed:.2f}s",
    )


def test_c03_bulging_integration():
    """Bulging the right-side flag shifts shears by (-3v, +3v)."""
    with Timer() as t:
        worst = 0.0
        e, f, g, l = pk.bulging_configuration(1.0, 1.0)
        base = (pk.shear(e, f, g, l, 1), pk.shear(e, f, g, l, 2))
        for v in (0.1, -0.1, 1.0, -1.0):
            moved = l.transform(pk.bulging_matrix(v))
            s1 = pk.shear(e, f, g, moved, 1)
            s2 = pk.shear(e, f, g, moved, 2)
            worst = max(
                worst,
                abs((s1 - base[0]) + 3.0 * v),
                abs((s2 - base[1]) - 3.0 * v),
                abs((s2 - s1) - (base[1] - base[0]) - 6.0 * v),
            )
    check(
        "C3 bulging integration",
        worst <= 1e-9 and t.within(1.0),
        f"max shift err {worst:.2e}, {t.elapsed:.2f}s",
    )


def test_c04_metric_agreement():
    """Klein-model agreement on the conic and the triangle inequality."""
    dom = pk.ConicOval.unit_circle()
    with Timer() as t:
        worst_klein = 0.0
        for k in range(1, 10):
            r = 0.1 * k
            d = pk.hilbert_distance(dom, [0.0, 0.0], [r, 0.0])
            worst_klein = max(worst_klein, abs(d - math.atanh(r)))
        rng = np.random.default_rng(404)
        worst_slack = 0.0

        def disk_point():
            while True:
                p = rng.uniform(-0.9, 0.9, size=2)
                if p @ p < 0.81:
                    return p

        for _ in range(10_000):
            x, y, z = disk_point(), disk_point(), disk_point()
            slack = (
                pk.hilbert_distance(dom, x, z)
                - pk.hilbert_distance(dom, x, y)
                - pk.hilbert_distance(dom, y, z)
            )
            worst_slack = max(worst_slack, slack)
    check(
        "C4 metric agreement",
        worst_klein <= 1e-12 and worst_slack <= 1e-9,
        f"klein err {worst_klein:.1e}, triangle slack {worst_slack:.1e}, "
        f"{t.elapsed:.2f}s",
    )


def test_c05_area_oracle():
    """Busemann area of the Klein disk of radius 0.5 vs the hyperbolic value."""
    oracle = 2.0 * math.pi * (math.cosh(math.atanh(0.5)) - 1.0)
    with Timer() as t:
        area = pk.busemann_area(
            pk.ConicOval.unit_circle(), pk.ConicOval.disk((0.0, 0.0), 0.5), 0.005
        )
    rel = abs(area - oracle) / oracle
    check(
        "C5 area oracle",
        rel <= 0.02 and t.within(30.0),
        f"area {area:.6f} vs {oracle:.6f} (rel {rel:.2e}), {t.elapsed:.2f}s",
    )


def test_c06_area_divergence():
    """Truncated ideal-triangle area strictly increases as alpha -> 0."""
    with Timer() as t:
        areas = [
            pk.triangle_area_experiment(alpha, 5.0, 0.002)
            for alpha in (0.5, 0.25, 0.1, 0.05, 0.01)
        ]
    increasing = all(a < b for a, b in zip(areas, areas[1:]))
    check(
        "C6 area divergence",
        increasing and t.within(120.0),
        "areas " + " < ".join(f"{a:.3f}" for a in areas) + f", {t.elapsed:.1f}s",
    )


def test_c07a_tau_sum_identity():
    rng = np.random.default_rng(707)
    with Timer() as t:
        worst = 0.0
        for _ in range(1000):
            g = random_pants(rng)
            bd = pk.pants_goldman_to_bd(g)
            logmu = sum(math.log(pk.middle_eigenvalue(b)) for b in g.boundaries)
            worst = max(worst, abs(bd.tplus + bd.tminus - logmu))
    check(
        "C7a tau111 sum identity",
        worst <= 1e-12 and t.within(5.0),
        f"max err {worst:.1e}, {t.elapsed:.2f}s",
    )


def test_c07b_all_parabolic_round_trip():
    rng = np.random.default_rng(711)
    with Timer() as t:
        worst = 0.0
        for _ in range(1000):
            s, t_param = rng.uniform(0.05, 20.0, size=2)
            rs, rt = pk.all_parabolic_recover(*pk.all_parabolic_coords(s, t_param))
            worst = max(worst, abs(rs - s) / s, abs(rt - t_param) / t_param)
    check(
        "C7b all-parabolic round trip",
        worst <= 1e-12 and t.within(5.0),
        f"max rel err {worst:.1e}, {t.elapsed:.2f}s",
    )


def test_c07c_quasi_hyperbolic_residual():
    rng = np.random.default_rng(713)
    with Timer() as t:
        worst = 0.0
        for _ in range(1000):
            g = random_pants(rng, kinds=("quasi_hyperbolic", "hyperbolic", "hyperbolic"))
            worst = max(
                worst, abs(pk.quasi_hyperbolic_residual(pk.pants_goldman_to_bd(g)))
            )
    check(
        "C7c quasi-hyperbolic residual on-stratum",
        worst <= 1e-12 and t.within(5.0),
        f"max |residual| {worst:.1e}, {t.elapsed:.2f}s",
    )


def test_c07d_one_parabolic_residual_r1():
    rng = np.random.default_rng(717)
    with Timer() as t:
        worst = 0.0
        for _ in range(1000):
            g = random_pants(rng, kinds=("parabolic", "hyperbolic", "hyperbolic"))
            r1, _ = pk.one_parabolic_residuals(pk.pants_goldman_to_bd(g))
            worst = max(worst, abs(r1))
    check(
        "C7d one-parabolic residual r1 on-stratum",
        worst <= 1e-12 and t.within(5.0),
        f"max |r1| {worst:.1e}, {t.elapsed:.2f}s",
    )


def test_c07e_one_parabolic_residual_r2():
    """Asserts r2 = 0 on the whole A1-parabolic stratum.

    r2 = tau111(T+) + tau111(T-) - sigma1(B3) - sigma2(B2) equals
    log(mu1/lambda1) on conversion output, so it vanishes wherever
    lambda1 = mu1 = 1, whatever the boundaries A2 and A3 are.
    """
    rng = np.random.default_rng(719)
    with Timer() as t:
        worst = 0.0
        for _ in range(1000):
            g = random_pants(rng, kinds=("parabolic", "hyperbolic", "hyperbolic"))
            _, r2 = pk.one_parabolic_residuals(pk.pants_goldman_to_bd(g))
            worst = max(worst, abs(r2))
    check(
        "C7e one-parabolic residual r2 on-stratum",
        worst <= 1e-12 and t.within(5.0),
        f"max |r2| {worst:.1e}, {t.elapsed:.2f}s",
    )


def test_c08_torus_gluing_and_round_trip():
    rng = np.random.default_rng(808)
    b = pk.BoundaryData.parabolic()
    with Timer() as t:
        worst_lin = 0.0
        worst_rt = 0.0
        for _ in range(1000):
            c = random_hyperbolic_boundary(rng)
            u, v = rng.uniform(-4.0, 4.0, size=2)
            s, t_param = rng.uniform(0.2, 5.0, size=2)
            tbd = pk.torus_goldman_to_bd(pk.TorusGoldman(b, c, s, t_param, u, v))
            worst_lin = max(
                worst_lin,
                abs(tbd.sigma_c2 - tbd.sigma_c1 - 6.0 * v),
                abs(tbd.sigma_c1 + tbd.sigma_c2 - 2.0 * u),
            )
            rec = pk.torus_parabolic_recover(tbd.pants.sigma1, tbd.pants.tplus)
            worst_rt = max(
                worst_rt,
                abs(rec.s - s) / s,
                abs(rec.lam2 - c.lam) / c.lam,
                abs(rec.mu2 - pk.middle_eigenvalue(c)) / pk.middle_eigenvalue(c),
                abs(rec.t - t_param) / t_param,
            )
    check(
        "C8 torus gluing and parabolic round trip",
        worst_lin <= 1e-12 and worst_rt <= 1e-12 and t.within(5.0),
        f"gluing err {worst_lin:.1e}, round-trip err {worst_rt:.1e}, "
        f"{t.elapsed:.2f}s",
    )


def _oracle_classify(m, tol=1e-8):
    """Independent eigenstructure oracle: characteristic-polynomial roots
    plus the same rank tests."""
    m = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    pair_tol = math.sqrt(tol) * scale
    triple_tol = tol ** (1.0 / 3.0) * scale
    rank_thr = tol * scale

    def rank(a):
        return int(np.sum(np.linalg.svd(a, compute_uv=False) > rank_thr))

    tr = float(np.trace(m))
    second = 0.5 * (tr * tr - float(np.trace(m @ m)))
    det = float(np.linalg.det(m))
    roots = np.roots([1.0, -tr, second, -det])

    if np.all(np.abs(roots - 1.0) <= triple_tol):
        n = m - np.eye(3)
        if rank(n) == 2 and rank(n @ n) == 1:
            return ("parabolic",)
    if np.any(np.abs(roots.imag) > pair_tol):
        return ("other",)
    a, b, c = np.sort(roots.real)[::-1]
    if c <= 0.0:
        return ("other",)
    if min(a - b, b - c) > pair_tol:
        return ("hyperbolic", a, b, c)
    mu, nu = (0.5 * (a + b), c) if a - b <= b - c else (0.5 * (b + c), a)
    if abs(mu - nu) <= pair_tol:
        return ("other",)
    if rank(m - mu * np.eye(3)) == 2:
        return ("quasi_hyperbolic", mu, nu)
    return ("other",)


def test_c09_classification_robustness():
    rng = np.random.default_rng(909)
    with Timer() as t:
        agree = True
        for _ in range(1000):
            g = random_conjugator(rng)
            gi = np.linalg.inv(g)
            for kind, nf in NORMAL_FORMS.items():
                m = g @ nf @ gi
                got = pk.classify(m)
                want = _oracle_classify(m)
                if got.kind != want[0] or got.kind != kind:
                    agree = False
                elif kind == "hyperbolic":
                    agree = agree and np.allclose(
                        got.eigenvalues, want[1:], rtol=1e-6
                    )
                elif kind == "quasi_hyperbolic":
                    agree = agree and math.isclose(
                        got.mu, want[1], rel_tol=1e-6
                    ) and math.isclose(got.nu, want[2], rel_tol=1e-6)
        never_hyperbolic = True
        for _ in range(1000):
            g = random_conjugator(rng)
            m = g @ NORMAL_FORMS["quasi_hyperbolic"] @ np.linalg.inv(g)
            m = m + rng.uniform(-1e-10, 1e-10, size=(3, 3))
            if pk.classify(m).kind == "hyperbolic":
                never_hyperbolic = False
    check(
        "C9 classification robustness",
        agree and never_hyperbolic and t.within(5.0),
        f"oracle agreement {agree}, quasi never hyperbolic {never_hyperbolic}, "
        f"{t.elapsed:.2f}s",
    )


def test_c10_strata_parameter_counts():
    """Parameter counts of each enumerated stratum match 8 - codimension,
    and the recovery maps accept exactly the free parameters."""
    expected = {
        ("pants", ("hyperbolic",) * 3): 8,
        ("pants", ("quasi_hyperbolic", "hyperbolic", "hyperbolic")): 7,
        ("pants", ("parabolic", "hyperbolic", "hyperbolic")): 6,
        ("pants", ("parabolic",) * 3): 2,
        ("torus", ("hyperbolic",)): 8,
        ("torus", ("quasi_hyperbolic",)): 7,
        ("torus", ("parabolic",)): 6,
    }
    ok = True
    for (surface, kinds), count in expected.items():
        names = pk.stratum_parameters(surface, kinds)
        ok = ok and len(names) == count == 8 - pk.stratum_codimension(kinds)
    # recovery arities: 2 inputs recover the all-parabolic pants ...
    ok = ok and len(inspect.signature(pk.all_parabolic_recover).parameters) == 2
    # ... and 3 shears + tplus recover the parabolic torus up to the 2
    # gluing shears, which pass through untouched: 4 + 2 = 6 free parameters
    ok = ok and len(inspect.signature(pk.torus_parabolic_recover).parameters) == 2
    rec = pk.torus_parabolic_recover((0.1, 0.2, 0.3), 0.4)
    ok = ok and 3 + 1 + 2 == len(pk.stratum_parameters("torus", ("parabolic",)))
    ok = ok and len(rec) == 5
    # interior structures are parametrized by the Goldman records themselves
    ok = ok and 3 * 2 + 2 == 8 and 2 * 2 + 2 + 2 == 8
    check("C10 strata codimension table", ok, "counts 8/7/6/2 pants, 8/7/6 torus")
