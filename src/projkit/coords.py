"""Goldman -> Bonahon-Dreyer coordinate conversions and degenerate strata.

Conventions for the pair of pants: boundary curves A1, A2, A3 carry Goldman
data (lambda_i, tau_i) where lambda_i is the smallest eigenvalue of the
monodromy and tau_i the sum of the other two; mu_i denotes the middle
eigenvalue.  The pants is cut into two ideal triangles T+ and T- by edges
B1, B2, B3, with B_i opposite A_i and indices modulo 3.  The shear
coordinates along B_i come out as

    sigma1(B_i) = log( s  * mu_{i-1} * sqrt(lambda_{i-1} lambda_{i+1} / lambda_i) )
    sigma2(B_i) = log( (mu_{i+1}/s) * sqrt(lambda_{i-1} lambda_{i+1} / lambda_i) )

and the two triangle invariants as

    tau111(T+) = log[ (e^{-sigma2(B2)}+1)(e^{-sigma2(B3)}+1) / (t (e^{sigma1(B3)}+1)) ]
    tau111(T-) = log[ t mu1 mu2 mu3 (e^{sigma1(B3)}+1) / ((e^{-sigma2(B2)}+1)(e^{-sigma2(B3)}+1)) ]

so tau111(T+) + tau111(T-) = log(mu1 mu2 mu3) identically.  Both are
evaluated as sums of logs and softplus terms log(1 + e^x), so no finite
positive input overflows.  A punctured torus
is one pair of pants with A2 = A3 = C glued along the meridian C, plus two
gluing parameters (u, v) entering only through sigma1(C) = u - 3v and
sigma2(C) = u + 3v (normalized so the base point is (u, v) = (0, 0)).
"""

import collections
import math

from .errors import (HYPERBOLIC, PARABOLIC, QUASI_HYPERBOLIC, ComplexEigenvalues,
                     InconsistentStratum, NonFiniteResult, NonPositiveParameter, _exp, _Record,
                     _shifted)

_CODIMENSION = {HYPERBOLIC: 0, QUASI_HYPERBOLIC: 1, PARABOLIC: 2}

# Relative slack used when validating boundary data at construction time.
_DATA_TOL = 1e-9


class BoundaryData(_Record):
    """Goldman eigenvalue data (lambda, tau) of one boundary curve.

    lambda is the smallest eigenvalue of the boundary monodromy, tau the sum
    of the two others.  The kind encodes the stratum: hyperbolic needs
    tau^2 > 4/lambda (two distinct larger eigenvalues), quasi-hyperbolic sits
    on the degenerate discriminant tau^2 = 4/lambda with lambda < 1, and
    parabolic pins (lambda, tau) = (1, 2).

    The middle eigenvalue mu is derived once, at construction: 1 for
    parabolic data and the double root tau/2 for quasi-hyperbolic data, both
    exactly, so the degenerate strata need no discriminant arithmetic.
    Hyperbolic data uses mu = 2 / (lambda (tau + sqrt(tau^2 - 4/lambda))),
    since mu nu = 1/lambda, with tau factored out of the root: the sum does
    not cancel and tau^2 cannot overflow.  mu is a field like the others, in
    repr, == and hash, but not a constructor argument.
    """

    _fields = ("lam", "tau", "kind", "mu")
    __match_args__ = ("lam", "tau", "kind")

    def __init__(self, lam: float, tau: float, kind: str):
        if kind not in _CODIMENSION:
            raise ValueError(f"unknown boundary kind {kind!r}")
        if not (lam > 0.0 and tau > 0.0):
            raise ValueError("boundary data needs positive lambda and tau")
        if kind == HYPERBOLIC:
            if not lam < 1.0:
                raise ValueError("hyperbolic boundary needs lambda in (0, 1)")
            lam_tau = lam * tau
            # (tau^2 - 4/lambda) / tau^2; where lambda tau underflows to 0 (tau = 5e-324),
            # tau^2 lambda = (lambda tau)^2 / lambda is far below 4
            disc = 1.0 - 4.0 / lam_tau / tau if lam_tau > 0.0 else -math.inf
            if not disc > 0.0:
                raise ComplexEigenvalues("hyperbolic boundary needs tau^2 > 4/lambda")
            mu = 2.0 / lam_tau / (1.0 + math.sqrt(disc))
        elif kind == PARABOLIC:
            if abs(lam - 1.0) > _DATA_TOL or abs(tau - 2.0) > _DATA_TOL:
                raise ValueError("parabolic boundary must have (lambda, tau) = (1, 2)")
            mu = 1.0
        else:
            if not lam < 1.0:
                raise ValueError("quasi-hyperbolic boundary needs lambda < 1")
            if abs(tau * tau * lam - 4.0) > _DATA_TOL * 4.0:
                raise ValueError("quasi-hyperbolic boundary must satisfy tau^2 = 4/lambda")
            mu = tau / 2.0
        setattr_ = object.__setattr__  # frozen
        setattr_(self, "lam", lam)
        setattr_(self, "tau", tau)
        setattr_(self, "kind", kind)
        setattr_(self, "mu", mu)

    @classmethod
    def hyperbolic(cls, lam: float, tau: float) -> "BoundaryData":
        return cls(lam, tau, HYPERBOLIC)

    @classmethod
    def quasi_hyperbolic(cls, lam: float) -> "BoundaryData":
        if not lam > 0.0:
            raise ValueError("quasi-hyperbolic boundary needs lambda > 0")
        return cls(lam, 2.0 / math.sqrt(lam), QUASI_HYPERBOLIC)

    @classmethod
    def parabolic(cls) -> "BoundaryData":
        return cls(1.0, 2.0, PARABOLIC)


class PantsGoldman(_Record):
    """Goldman parameters of a pair of pants: three boundaries plus (s, t)."""

    _fields = ("boundaries", "s", "t")

    def __init__(self, boundaries: tuple, s: float, t: float):
        if len(boundaries) != 3:
            raise ValueError("a pair of pants has exactly 3 boundary curves")
        if not (s > 0.0 and t > 0.0):
            raise NonPositiveParameter("internal parameters s, t must be positive")
        setattr_ = object.__setattr__  # frozen
        setattr_(self, "boundaries", boundaries)
        setattr_(self, "s", s)
        setattr_(self, "t", t)


class TorusGoldman(_Record):
    """Goldman parameters of a once-punctured torus.

    b is the boundary curve, c the gluing meridian (always hyperbolic),
    (s, t) the internal parameters of the cut-open pants and (u, v) the
    gluing parameters along c.
    """

    _fields = ("b", "c", "s", "t", "u", "v")

    def __init__(self, b: BoundaryData, c: BoundaryData, s: float, t: float, u: float,
                 v: float):
        if c.kind != HYPERBOLIC:
            raise ValueError("the gluing curve of the torus must be hyperbolic")
        if not (s > 0.0 and t > 0.0):
            raise NonPositiveParameter("internal parameters s, t must be positive")
        setattr_ = object.__setattr__  # frozen
        setattr_(self, "b", b)
        setattr_(self, "c", c)
        setattr_(self, "s", s)
        setattr_(self, "t", t)
        setattr_(self, "u", u)
        setattr_(self, "v", v)


class PantsBD(_Record):
    """Bonahon-Dreyer coordinates of a pair of pants, stored as Python floats."""

    _fields = ("sigma1", "sigma2", "tplus", "tminus")

    def __init__(self, sigma1, sigma2, tplus, tminus):
        sigma1, sigma2 = tuple(map(float, sigma1)), tuple(map(float, sigma2))
        tplus, tminus = float(tplus), float(tminus)
        if len(sigma1) != 3 or len(sigma2) != 3:
            raise ValueError("sigma1 and sigma2 each need 3 entries")
        if not all(map(math.isfinite, (*sigma1, *sigma2, tplus, tminus))):
            raise ValueError("Bonahon-Dreyer coordinates must be finite")
        setattr_ = object.__setattr__  # frozen: each field is converted, checked and set once
        setattr_(self, "sigma1", sigma1)
        setattr_(self, "sigma2", sigma2)
        setattr_(self, "tplus", tplus)
        setattr_(self, "tminus", tminus)


class TorusBD(_Record):
    """Bonahon-Dreyer coordinates of a once-punctured torus; the gluing shears are floats."""

    _fields = ("pants", "sigma_c1", "sigma_c2")

    def __init__(self, pants, sigma_c1, sigma_c2):
        sigma_c1, sigma_c2 = float(sigma_c1), float(sigma_c2)
        if not (math.isfinite(sigma_c1) and math.isfinite(sigma_c2)):
            raise ValueError("gluing shears must be finite")
        setattr_ = object.__setattr__  # frozen
        setattr_(self, "pants", pants)
        setattr_(self, "sigma_c1", sigma_c1)
        setattr_(self, "sigma_c2", sigma_c2)


def middle_eigenvalue(b: BoundaryData) -> float:
    """Middle eigenvalue mu = (tau - sqrt(tau^2 - 4/lambda)) / 2, as derived by BoundaryData."""
    return b.mu


def _softplus(x: float) -> float:
    """log(1 + e^x), finite for every finite x, with the bits of ``np.logaddexp(0, x)``:
    its own branches with ``math``, x + log1p(e^-x) above 0, log1p(e^x) below, log 2 at
    +-0; NaN passes."""
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    if x < 0.0:
        return math.log1p(math.exp(x))
    return math.log(2.0) if x == 0.0 else x


def _shears(log_lam, log_mu, log_s: float) -> tuple:
    """(sigma1(B1..B3), sigma2(B1..B3)) as sums of the logs of lambda_i, mu_i and s: with
    r_i = (log lambda_{i-1} + log lambda_{i+1} - log lambda_i) / 2, sigma1(B_i) =
    log s + log mu_{i-1} + r_i and sigma2(B_i) = log mu_{i+1} - log s + r_i."""
    l1, l2, l3 = log_lam
    m1, m2, m3 = log_mu
    r1, r2, r3 = 0.5 * (l3 + l2 - l1), 0.5 * (l1 + l3 - l2), 0.5 * (l2 + l1 - l3)
    return ((log_s + m3 + r1, log_s + m1 + r2, log_s + m2 + r3),
            (m2 - log_s + r1, m3 - log_s + r2, m1 - log_s + r3))


def _tau_core(sigma1, sigma2) -> float:
    """c = log[(e^{-sigma2(B2)}+1)(e^{-sigma2(B3)}+1) / (e^{sigma1(B3)}+1)], in log space.

    tau111(T+) = c - log t and tau111(T-) = log t + log(mu1 mu2 mu3) - c.
    """
    return _softplus(-sigma2[1]) + _softplus(-sigma2[2]) - _softplus(sigma1[2])


def _convert(log_lam, log_mu, log_s: float, log_t: float) -> tuple:
    """(sigma1, sigma2, tau111(T+), tau111(T-)) from the logs of lambda_i, mu_i, s and t,
    all Python floats."""
    sigma1, sigma2 = _shears(log_lam, log_mu, log_s)
    core = _tau_core(sigma1, sigma2)
    # the logs of mu added left to right: sum() of floats is compensated from Python 3.12 on
    return sigma1, sigma2, core - log_t, log_t + (log_mu[0] + log_mu[1] + log_mu[2]) - core


def pants_goldman_to_bd(g: PantsGoldman) -> PantsBD:
    """Convert Goldman pants parameters to Bonahon-Dreyer coordinates."""
    log_lam = [math.log(b.lam) for b in g.boundaries]
    log_mu = [math.log(b.mu) for b in g.boundaries]
    return PantsBD(*_convert(log_lam, log_mu, math.log(g.s), math.log(g.t)))


def _torus_cut(g: TorusGoldman) -> tuple:
    """The torus cut open along C: the pants (B, C, C), forcing lambda2 = lambda3 and
    mu2 = mu3, and the gluing shears along C, (u - 3v, u + 3v): (u, u) bulged by v, not
    checked to be finite."""
    return PantsGoldman((g.b, g.c, g.c), g.s, g.t), _shifted(g.u, g.u, g.v)


def torus_goldman_to_bd(g: TorusGoldman) -> TorusBD:
    """Convert Goldman torus parameters to Bonahon-Dreyer coordinates, by ``_torus_cut``."""
    pants, shears = _torus_cut(g)
    pants = pants_goldman_to_bd(pants)
    if not all(map(math.isfinite, shears)):
        raise NonFiniteResult("gluing shears are not finite")
    return TorusBD(pants, *shears)


def _pinch(g, boundary: int, steps: int) -> tuple:
    """Pinch one hyperbolic boundary of a pants or torus record to parabolic.

    ``boundary`` counts from 1 (a torus pinches B, index 1).  lambda moves to 1 in
    ``steps`` equal steps and ends at the parabolic row (lambda, mu) = (1, 1); each row is
    one ``_convert`` call on Python floats, so row 0 is the record's conversion bit for
    bit.  Returns the start data of that boundary, the columns frac, lambda, tau,
    sigma1_B1..sigma2_B3, tplus and tminus as tuples over the steps + 1 rows, and the
    torus gluing shears sigmaC1, sigmaC2, fixed along the path (none for a pants), none
    checked to be finite.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    shears = ()
    if isinstance(g, TorusGoldman):
        if boundary != 1:
            raise ValueError("only the torus boundary curve (index 1) can be pinched")
        g, shears = _torus_cut(g)
    elif boundary not in (1, 2, 3):
        raise ValueError("pants boundary index must be 1, 2 or 3")
    index = boundary - 1
    start = g.boundaries[index]
    if start.kind != HYPERBOLIC:
        raise ValueError("the pinched boundary must start hyperbolic")
    log_lam = [math.log(b.lam) for b in g.boundaries]
    log_mu = [math.log(b.mu) for b in g.boundaries]
    log_lam0, log_mu0, log_s, log_t = log_lam[index], log_mu[index], math.log(g.s), math.log(g.t)
    names = ["frac", "lambda", "tau", *(f"sigma{j}_B{i}" for j in (1, 2) for i in (1, 2, 3)),
             "tplus", "tminus"]
    # log(nu/mu) = rest log(nu0/mu0) keeps mu < nu until the last row, written from the
    # record's logs, so that row 0 is its conversion and nu/mu beyond the float range
    # (tau ~ 1e160) stays finite; mu nu lambda = 1.  Row 0's tau is the record's, and
    # nu = 1 / (lambda mu) is taken on mu 2^64: the same float wherever lambda mu is
    # normal, and no subnormal product where it is not (tau ~ 1.8e308, lambda mu ~ 6e-309)
    rows = []
    for k in range(steps + 1):
        frac = k / steps
        rest = 1.0 - frac
        lam = start.lam * rest + frac
        log_lam[index] = math.log(lam)
        log_mu[index] = rest * log_mu0 - 0.5 * (log_lam[index] - rest * log_lam0)
        mu = math.exp(log_mu[index])
        sigma1, sigma2, tplus, tminus = _convert(log_lam, log_mu, log_s, log_t)
        tau = start.tau if k == 0 else mu + 2.0 ** 64 / (lam * (mu * 2.0 ** 64))
        rows.append((frac, lam, tau, *sigma1, *sigma2, tplus, tminus))
    columns = dict(zip(names, zip(*rows)))
    return start, columns, dict(zip(("sigmaC1", "sigmaC2"), shears))


def all_parabolic_coords(s: float, t: float) -> tuple:
    """Free coordinates (sigma1(B1), tau111(T+)) of the all-parabolic pants.

    With every boundary parabolic the conversion collapses to
    sigma1(B_i) = log s, sigma2(B_i) = -log s and tau111(T+) = log((s+1)/t).
    """
    if not (s > 0.0 and t > 0.0):
        raise NonPositiveParameter("s and t must be positive")
    sigma1, _, tplus, _ = _convert((0.0,) * 3, (0.0,) * 3, math.log(s), math.log(t))
    return (sigma1[0], tplus)


def _in_range(value: float, what: str) -> float:
    """A recovered positive parameter, or NonFiniteResult where it overflowed or underflowed
    to 0: where it left the float range."""
    if value == 0.0 or value == math.inf:
        raise NonFiniteResult(f"recovered {what} leaves the float range")
    return value


def all_parabolic_recover(sigma1_b1: float, tplus: float) -> tuple:
    """Inverse of :func:`all_parabolic_coords`: (s, t) from the two coordinates.

    Raises :class:`NonFiniteResult` where s or t leaves the float range, and
    ValueError for a NaN coordinate, as :class:`PantsBD` does.
    """
    if math.isnan(sigma1_b1) or math.isnan(tplus):
        raise ValueError("Bonahon-Dreyer coordinates must be finite")
    s = _in_range(_exp(sigma1_b1), "s")
    t = (s + 1.0) * _exp(-tplus)
    if t == 0.0 or t == math.inf:
        # e^-tplus alone left the float range, or the product did: t from its log
        t = _in_range(_exp(math.log1p(s) - tplus), "t")
    return (s, t)


def one_parabolic_residuals(bd: PantsBD) -> tuple:
    """Residuals of the A1-parabolic stratum relations.

    The two relations fix sigma2(B3) and sigma2(B2), the coordinates left
    out of the stratum's free parameters.  On conversion output

        r1 = sigma1(B2) + sigma2(B3) = log(mu1^2 lambda1)
        r2 = tau111(T+) + tau111(T-) - sigma1(B3) - sigma2(B2) = log(mu1 / lambda1)

    so r1 vanishes when A1 is parabolic or quasi-hyperbolic, and r1 and r2
    both vanish exactly when lambda1 = mu1 = 1, i.e. A1 is parabolic.  The
    second relation needs the tau111 sum: the six shears do not change when
    every (lambda_i, mu_i) goes to (e^{-2m} lambda_i, e^m mu_i), which keeps
    mu1^2 lambda1 but not mu1 / lambda1, while tau111(T+) + tau111(T-) =
    log(mu1 mu2 mu3) moves by 3m.  Adding s does not help, since the shears
    already give it: sum_i (sigma1(B_i) - sigma2(B_i)) = 6 log s.
    """
    r1 = quasi_hyperbolic_residual(bd)
    r2 = bd.tplus + bd.tminus - bd.sigma1[2] - bd.sigma2[1]
    return (r1, r2)


def quasi_hyperbolic_residual(bd: PantsBD) -> float:
    """sigma1(B2) + sigma2(B3): zero iff mu1^2 lambda1 = 1.

    On conversion output the combination equals 2 log(mu1 sqrt(lambda1)),
    which vanishes exactly when A1 is quasi-hyperbolic (mu^2 nu = 1) or
    parabolic, and is nonzero for generic hyperbolic A1.
    """
    return bd.sigma1[1] + bd.sigma2[2]


TorusParabolicRecovery = collections.namedtuple("TorusParabolicRecovery", "s lam2 mu2 t bd")
TorusParabolicRecovery.__doc__ = (
    "Everything determined by the 4 free pants coordinates of the parabolic torus.")


def torus_parabolic_recover(sigma1, tplus: float) -> TorusParabolicRecovery:
    """Recover the parabolic-boundary torus structure from its free coordinates.

    Input is (sigma1(B1), sigma1(B2), sigma1(B3)) and tau111(T+).  Using
    lambda2 = lambda3 and mu2 = mu3:

        s       = e^{sigma1(B2)}
        mu2     = e^{sigma1(B3)} / s
        lambda2 = e^{sigma1(B1) - sigma1(B3)}

    after which every remaining coordinate follows from the conversion's
    formulas.  Raises :class:`InconsistentStratum` when the recovered
    parameters cannot come from a parabolic-boundary torus, i.e. unless
    0 < lambda2 < mu2 and mu2^2 lambda2 < 1 (mu2 the middle eigenvalue of
    the hyperbolic gluing curve; together they give lambda2 < 1), and
    :class:`NonFiniteResult` where s or t leaves the float range.
    """
    sigma1 = tuple(map(float, sigma1))
    if len(sigma1) != 3:
        raise ValueError("expected the three shears sigma1(B1..B3)")
    log_s, log_mu2, log_lam2 = sigma1[1], sigma1[2] - sigma1[1], sigma1[0] - sigma1[2]
    # an overflowed lambda2 or mu2 is off the stratum, which bounds both
    s, mu2, lam2 = _in_range(_exp(log_s), "s"), _exp(log_mu2), _exp(log_lam2)
    if not (lam2 > 0.0 and log_lam2 < log_mu2 and 2.0 * log_mu2 + log_lam2 < 0.0):
        raise InconsistentStratum(
            f"recovered lambda2 = {lam2:g}, mu2 = {mu2:g} are not the two smaller "
            "eigenvalues of a hyperbolic gluing curve"
        )
    log_mu = (0.0, log_mu2, log_mu2)
    sigma2 = _shears((0.0, log_lam2, log_lam2), log_mu, log_s)[1]
    t = _in_range(_exp(_tau_core(sigma1, sigma2) - tplus), "t")
    # tau111(T+) + tau111(T-) = log(mu1 mu2 mu3)
    bd = PantsBD(sigma1, sigma2, tplus, sum(log_mu) - tplus)
    return TorusParabolicRecovery(s, lam2, mu2, t, bd)


def stratum_codimension(kinds) -> int:
    """Codimension of the boundary stratum selected by the boundary kinds.

    Each quasi-hyperbolic boundary contributes 1, each parabolic boundary 2.
    Accepts the three pants boundary kinds or the single torus boundary kind.
    """
    if isinstance(kinds, str):
        kinds = (kinds,)
    return sum(_CODIMENSION[k] for k in kinds)


# Free coordinates of each enumerated stratum.  Interior structures are
# parametrized by the Goldman coordinates themselves; boundary strata by the
# Bonahon-Dreyer coordinates listed here.
_PANTS_STRATA = {
    (HYPERBOLIC, HYPERBOLIC, HYPERBOLIC): (
        "lambda1", "tau1", "lambda2", "tau2", "lambda3", "tau3", "s", "t",
    ),
    (QUASI_HYPERBOLIC, HYPERBOLIC, HYPERBOLIC): (
        "sigma1_B1", "sigma2_B1", "sigma1_B2", "sigma2_B2", "sigma1_B3",
        "tplus", "tminus",
    ),
    (PARABOLIC, HYPERBOLIC, HYPERBOLIC): (
        "sigma1_B1", "sigma2_B1", "sigma1_B2", "sigma1_B3", "tplus", "tminus",
    ),
    (PARABOLIC, PARABOLIC, PARABOLIC): ("sigma1_B1", "tplus"),
}

_TORUS_STRATA = {
    (HYPERBOLIC,): (
        "lambdaB", "tauB", "lambdaC", "tauC", "s", "t", "u", "v",
    ),
    (QUASI_HYPERBOLIC,): (
        "sigma1_B1", "sigma1_B2", "sigma1_B3", "tplus", "tminus",
        "sigmaC1", "sigmaC2",
    ),
    (PARABOLIC,): (
        "sigma1_B1", "sigma1_B2", "sigma1_B3", "tplus", "sigmaC1", "sigmaC2",
    ),
}


def stratum_parameters(surface: str, kinds) -> tuple:
    """Names of the free parameters of an enumerated stratum.

    ``surface`` is "pants" (kinds: the three boundary kinds, degenerations on
    A1) or "torus" (kinds: the boundary kind of B).  Only the strata of the
    classification are enumerated; other combinations raise ValueError.
    """
    if isinstance(kinds, str):
        kinds = (kinds,)
    kinds = tuple(kinds)
    table = {"pants": _PANTS_STRATA, "torus": _TORUS_STRATA}.get(surface)
    if table is None:
        raise ValueError(f"unknown surface {surface!r}")
    if kinds not in table:
        raise ValueError(f"stratum {kinds!r} is not in the enumerated list")
    return table[kinds]
