"""Shared builders for the test suite plus acceptance-criteria reporting."""

import math

import numpy as np
import pytest

import projkit as pk

# ---------------------------------------------------------------------------
# acceptance reporting: test_acceptance records one line per criterion and the
# terminal summary prints them all, pass or fail.

ACCEPTANCE_RESULTS = []


def record_acceptance(name: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, bool(ok), detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        line = f"{name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# flag builders


def assert_refuses(make, error, message: str) -> None:
    """make() raises exactly ``error`` (not a subclass), its message starting with ``message``."""
    with pytest.raises(error) as exc:
        make()
    assert type(exc.value) is error and str(exc.value).startswith(message), repr(exc.value)


def standard_triangle_flags(alpha: float):
    """Flags of the inscribed triangle in the standard triangle domain.

    The outer triangle has vertices (0,1,1), (0,0,1), (1,0,1); the inscribed
    one has vertices (0,1/2,1), (1/2,1/2,1), (alpha,0,1), each carrying the
    outer edge through it as its flag line.  The triangle invariant of the
    triple is (1 - alpha) / alpha.
    """
    e = pk.Flag(pk.ProjPoint([0.0, 0.5, 1.0]), pk.ProjLine([0, 0, 1], [0, 1, 1]))
    f = pk.Flag(pk.ProjPoint([0.5, 0.5, 1.0]), pk.ProjLine([0, 1, 1], [1, 0, 1]))
    g = pk.Flag(pk.ProjPoint([alpha, 0.0, 1.0]), pk.ProjLine([0, 0, 1], [1, 0, 1]))
    return e, f, g


def random_flag(rng) -> pk.Flag:
    p = rng.normal(size=3)
    q = rng.normal(size=3)
    return pk.Flag(pk.ProjPoint(p), pk.ProjLine(p, q))


def random_generic_triple(rng, tol: float = 1e-3):
    while True:
        flags = tuple(random_flag(rng) for _ in range(3))
        if pk.is_generic_triple(*flags, tol=tol):
            return flags


def random_generic_quadruple(rng, tol: float = 1e-3):
    while True:
        flags = tuple(random_flag(rng) for _ in range(4))
        if pk.is_generic_quadruple(*flags, tol=tol):
            return flags


def random_projective_map(rng, spread: float = 1.0) -> np.ndarray:
    """Random invertible matrix with condition number at most e^(2*spread)."""
    q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q1 @ np.diag(np.exp(rng.uniform(-spread, spread, size=3))) @ q2


def random_conjugator(rng, max_log10: float = 1.5) -> np.ndarray:
    """Random invertible matrix with condition number at most 10^(2*max_log10)."""
    q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    d = 10.0 ** rng.uniform(-max_log10, max_log10, size=3)
    return q1 @ np.diag(d) @ q2


# the three normal forms of the isometry trichotomy
NORMAL_FORMS = {
    "hyperbolic": np.diag([2.0, 1.0, 0.5]),
    "quasi_hyperbolic": np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.25]]),
    "parabolic": np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]),
}


# ---------------------------------------------------------------------------
# boundary-data builders


def random_hyperbolic_boundary(rng) -> pk.BoundaryData:
    """Random eigenvalue data 0 < lam < mu < nu with lam*mu*nu = 1."""
    lam = rng.uniform(0.05, 0.8)
    # mu must lie strictly between lam and lam^(-1/2)
    lo, hi = lam, 1.0 / math.sqrt(lam)
    mu = lo + (hi - lo) * rng.uniform(0.1, 0.9)
    tau = mu + 1.0 / (lam * mu)
    return pk.BoundaryData.hyperbolic(lam, tau)


def random_boundary(rng, kind: str) -> pk.BoundaryData:
    if kind == "hyperbolic":
        return random_hyperbolic_boundary(rng)
    if kind == "quasi_hyperbolic":
        return pk.BoundaryData.quasi_hyperbolic(rng.uniform(0.05, 0.8))
    return pk.BoundaryData.parabolic()


def random_pants(rng, kinds=None) -> pk.PantsGoldman:
    if kinds is None:
        kinds = rng.choice(["hyperbolic", "quasi_hyperbolic", "parabolic"], size=3)
    boundaries = tuple(random_boundary(rng, k) for k in kinds)
    return pk.PantsGoldman(boundaries, rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
