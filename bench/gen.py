"""Seeded inputs for the three workloads, and their construction through projkit.

Everything here uses the standard library only, so that the set-up probe
(``probe.py``) can generate inputs before it starts timing ``import projkit``
(which includes the numpy import).  ``random.Random(seed)`` makes the same
seed give the same inputs on every machine.
"""

from __future__ import annotations

import math
import random

PAPER_ALPHAS = (0.5, 0.25, 0.1, 0.05, 0.01)
FAR_CENTER = (1.0e4, 1.0e4)
HEXAGON = tuple((math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(6))
TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

# queries: one pass is this many operations per layer, interleaved round-robin
OPS_PER_LAYER = 600
# share of operations whose input is deliberately bad (non-generic, exterior, ...)
BAD_SHARE = 0.05


# ---------------------------------------------------------------- small vector helpers

def cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def det(a, b, c):
    return sum(x * y for x, y in zip(a, cross(b, c)))


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _gauss3(rng):
    return [rng.gauss(0.0, 1.0) for _ in range(3)]


def _orthogonal(rng):
    """Random orthogonal 3x3 matrix (Gram-Schmidt on Gaussian vectors)."""
    basis = []
    while len(basis) < 3:
        v = _gauss3(rng)
        for b in basis:
            d = sum(x * y for x, y in zip(v, b))
            v = [x - d * y for x, y in zip(v, b)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-3:
            basis.append([x / n for x in v])
    return basis


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------- area

def area_inputs(seed: int) -> dict:
    """Five alphas (the paper's for seed 0, log-uniform in [0.01, 0.5] otherwise)."""
    if seed == 0:
        alphas = list(PAPER_ALPHAS)
    else:
        rng = random.Random(seed)
        alphas = [_log_uniform(rng, 0.01, 0.5) for _ in range(5)]
    return {"alphas": alphas, "truncation": 5.0, "cellsize": 0.002,
            "disk_radius": 0.5, "disk_cellsize": 0.005}


# ---------------------------------------------------------------- queries

def _flag_on_parabola(rng, t):
    """Flag at (1, t, t^2) whose line is near the tangent of w0 w2 = w1^2."""
    p = [1.0, t, t * t]
    w = [0.0, 1.0, 2.0 * t]
    w = [x + 0.3 * y for x, y in zip(w, _gauss3(rng))]
    return p, (p, w)


def _flag_tuple(rng, n, bad):
    ts = sorted(rng.uniform(-2.0, 2.0) for _ in range(n))
    flags = [_flag_on_parabola(rng, t) for t in ts]
    if bad:
        # put the last point on the first flag's line: a vanishing pairing
        _, (u, w) = flags[0]
        a, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        p = [a * x + b * y for x, y in zip(u, w)]
        flags[-1] = (p, (p, _gauss3(rng)))
    return flags


def _positive_tuple(rng, n):
    """A generic flag tuple whose invariants (T, or D1 and D2) are positive, so their logs exist."""
    while True:
        flags = _flag_tuple(rng, n, False)
        (e1, e), (f1, f), (g1, g) = flags[:3]
        if n == 3:
            t = det(f1, *e) * det(e1, *g) * det(g1, *f) / (det(f1, *g) * det(e1, *f) * det(g1, *e))
            if t > 0.0:
                return flags
            continue
        l1 = flags[3][0]
        efg, efl = det(e1, f1, g1), det(e1, f1, l1)
        d1 = -(efg / efl) * (det(l1, *f) / det(g1, *f))
        d2 = -(det(g1, *e) / det(l1, *e)) * (efl / efg)
        if d1 > 0.0 and d2 > 0.0:
            return flags


def _projective_map(rng):
    """Well-conditioned random invertible matrix (condition number <= 10)."""
    u, v = _orthogonal(rng), _orthogonal(rng)
    s = [1.0, _log_uniform(rng, 0.3, 3.0), _log_uniform(rng, 0.3, 3.0)]
    return matmul(u, [[s[i] * v[j][i] for j in range(3)] for i in range(3)])


def _disk_point(rng, center, radius):
    """Interior point whose distance to the boundary reaches down to 1e-6 of the radius."""
    rho = 1.0 - 10.0 ** rng.uniform(-6.0, 0.0)
    th = rng.uniform(0.0, 2.0 * math.pi)
    return [center[0] + radius * rho * math.cos(th), center[1] + radius * rho * math.sin(th)]


def _polygon_point(rng, verts):
    """Interior point of a convex polygon, pushed to within 1e-6 of the boundary."""
    n = len(verts)
    bx = sum(v[0] for v in verts) / n
    by = sum(v[1] for v in verts) / n
    k = rng.randrange(n)
    s = rng.random()
    a, b = verts[k], verts[(k + 1) % n]
    q = (a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]))
    rho = 1.0 - 10.0 ** rng.uniform(-6.0, 0.0)
    return [bx + rho * (q[0] - bx), by + rho * (q[1] - by)]


def _exterior_point(rng, dom):
    kind, geo = dom
    th = rng.uniform(0.0, 2.0 * math.pi)
    rho = 1.0 + 10.0 ** rng.uniform(-3.0, 0.0)
    if kind == "polygon":
        return [rho * 1.5 * math.cos(th) + 0.3, rho * 1.5 * math.sin(th) + 0.3]
    (cx, cy), r = geo
    return [cx + r * rho * math.cos(th), cy + r * rho * math.sin(th)]


QUERY_DOMAINS = (
    ("conic", ((0.0, 0.0), 1.0)),       # unit disk
    ("conic", (FAR_CENTER, 1.0)),       # disk far from the origin
    ("polygon", TRIANGLE),
    ("polygon", HEXAGON),
)


def _domain_point(rng, dom):
    kind, geo = dom
    if kind == "conic":
        return _disk_point(rng, *geo)
    return _polygon_point(rng, geo)


def _normal_form(kind, rng):
    if kind == "hyperbolic":
        a = rng.uniform(0.2, 1.5)
        b = rng.uniform(0.2, 1.5)
        l1, l3 = math.exp(a), math.exp(-b)
        return [[l1, 0.0, 0.0], [0.0, 1.0 / (l1 * l3), 0.0], [0.0, 0.0, l3]]
    if kind == "quasi_hyperbolic":
        mu = math.exp(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0))
        return [[mu, 1.0, 0.0], [0.0, mu, 0.0], [0.0, 0.0, 1.0 / (mu * mu)]]
    if kind == "parabolic":
        return [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
    th = rng.uniform(0.3, 2.8)  # elliptic: a rotation block, reported as "other"
    c, s = math.cos(th), math.sin(th)
    return [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]


CLASSIFY_KINDS = ("hyperbolic", "quasi_hyperbolic", "parabolic", "other")


def _conjugate(rng, n, log10_cond):
    """P n P^-1 with P = U diag(1, c^(1/2), c) V^T, so cond(P) = 10^log10_cond."""
    u, v = _orthogonal(rng), _orthogonal(rng)
    c = 10.0 ** log10_cond
    s = [1.0, math.sqrt(c), c]
    p = matmul(u, [[s[i] * v[j][i] for j in range(3)] for i in range(3)])
    pinv = matmul(v, [[u[j][i] / s[i] for j in range(3)] for i in range(3)])
    return matmul(matmul(p, n), pinv)


def _hyperbolic_boundary(rng):
    lam = rng.uniform(0.05, 0.8)
    mu = rng.uniform(1.05, 3.0) * lam  # middle eigenvalue, strictly between
    nu = 1.0 / (lam * mu)
    if nu <= mu:
        mu, nu = math.sqrt(1.0 / lam) * 0.9, math.sqrt(1.0 / lam) / 0.9
    return ("hyperbolic", lam, mu + nu)


PANTS_STRATA = (
    ("hyperbolic", "hyperbolic", "hyperbolic"),
    ("quasi_hyperbolic", "hyperbolic", "hyperbolic"),
    ("parabolic", "hyperbolic", "hyperbolic"),
    ("parabolic", "parabolic", "parabolic"),
)
TORUS_STRATA = ("hyperbolic", "quasi_hyperbolic", "parabolic")


def _boundary(rng, kind):
    if kind == "hyperbolic":
        return _hyperbolic_boundary(rng)
    if kind == "quasi_hyperbolic":
        return ("quasi_hyperbolic", rng.uniform(0.05, 0.8), None)
    return ("parabolic", 1.0, 2.0)


def queries_inputs(seed: int) -> dict:
    """Raw inputs for every query operation, grouped by layer."""
    rng = random.Random(seed)
    n = OPS_PER_LAYER
    bad = lambda: rng.random() < BAD_SHARE  # noqa: E731
    out = {}

    # rp2: construction, genericity, transform / rescale
    rp2 = []
    for i in range(n):
        r = i % 6
        if r == 0:
            p, (u, w) = _flag_on_parabola(rng, rng.uniform(-2, 2))
            rp2.append(("flag", p, u, w))
        elif r == 1:
            rp2.append(("line", _gauss3(rng), _gauss3(rng)))
        elif r in (2, 3):
            k = 3 if r == 2 else 4
            rp2.append(("generic%d" % k, _flag_tuple(rng, k, bad())))
        elif r == 4:
            rp2.append(("transform", _flag_tuple(rng, 1, False)[0], _projective_map(rng)))
        else:
            scales = [_log_uniform(rng, 1e-3, 1e3) * rng.choice((-1, 1)) for _ in range(3)]
            rp2.append(("rescaled", _flag_tuple(rng, 1, False)[0], scales))
    out["rp2"] = rp2

    # invariants: T / tau111 / D / shear on original, rescaled and transformed tuples
    inv = []
    for i in range(n):
        k = 3 if i % 2 == 0 else 4
        flags = _flag_tuple(rng, k, bad())
        variant = ("plain", "rescaled", "transformed")[(i // 2) % 3]
        extra = None
        if variant == "rescaled":
            extra = [[_log_uniform(rng, 1e-3, 1e3) * rng.choice((-1, 1)) for _ in range(3)]
                     for _ in range(k)]
        elif variant == "transformed":
            extra = _projective_map(rng)
        op = ("triple_ratio", "tau111")[(i // 6) % 2] if k == 3 else \
            ("double_ratios", "shear1", "shear2")[(i // 6) % 3]
        inv.append((op, flags, variant, extra))
    out["invariants"] = inv

    # hilbert chord path: distance / chord / finsler_norm on four domains
    hil = []
    for i in range(n):
        d = i % len(QUERY_DOMAINS)
        dom = QUERY_DOMAINS[d]
        op = ("distance", "distance", "chord", "finsler")[(i // 4) % 4]
        x = _exterior_point(rng, dom) if bad() else _domain_point(rng, dom)
        if op == "finsler":
            th = rng.uniform(0.0, 2.0 * math.pi)
            y = [math.cos(th), math.sin(th)]
        else:
            y = _domain_point(rng, dom)
        hil.append((op, d, x, y))
    out["hilbert"] = hil

    # isometry: classify conjugated normal forms, log10 conditioning in [0, 5]
    iso = []
    for i in range(n):
        kind = CLASSIFY_KINDS[i % 4]
        log10_cond = rng.uniform(0.0, 5.0)
        m = _conjugate(rng, _normal_form(kind, rng), log10_cond)
        if bad():
            # det 8, on a conjugate mild enough that the scaled det gate must see it
            m = _conjugate(rng, _normal_form(kind, rng), rng.uniform(0.0, 1.0))
            m = [[2.0 * x for x in row] for row in m]
            kind = "not_unimodular"
        iso.append((kind, log10_cond, m))
    out["isometry"] = iso

    # coords: records from every stratum, conversions and recoveries
    crd = []
    for i in range(n):
        r = i % 4
        s, t = _log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 0.1, 10.0)
        if r in (0, 1):
            kinds = PANTS_STRATA[(i // 4) % 4]
            bs = [_boundary(rng, k) for k in kinds]
            crd.append(("pants", bs, s, t))
        elif r == 2:
            kind = TORUS_STRATA[(i // 4) % 3]
            uv = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            crd.append(("torus", [_boundary(rng, kind), _hyperbolic_boundary(rng)], s, t, *uv))
        elif bad():
            # lambda = exp(sigma1(B1) - sigma1(B3)) > 1: not a parabolic torus
            crd.append(("recover_bad", [0.5, rng.uniform(-1, 1), -0.5], rng.uniform(-1, 1)))
        else:
            uv = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            crd.append(("recover", [("parabolic", 1.0, 2.0), _hyperbolic_boundary(rng)],
                        s, t, *uv))
    out["coords"] = crd
    return out


# ---------------------------------------------------------------- cli

def _record_json(surface, boundaries, s, t, u=None, v=None):
    bs = []
    for kind, lam, tau in boundaries:
        entry = {"kind": kind}
        if kind != "parabolic":
            entry["lambda"] = lam
            if tau is not None:
                entry["tau"] = tau
        bs.append(entry)
    rec = {"surface": surface, "boundaries": bs, "s": s, "t": t}
    if u is not None:
        rec["u"], rec["v"] = u, v
    return rec


def cli_inputs(seed: int) -> dict:
    """Records and query inputs for one scripted CLI session."""
    rng = random.Random(seed)
    s, t = _log_uniform(rng, 0.2, 5.0), _log_uniform(rng, 0.2, 5.0)
    pants = _record_json("pants", [_hyperbolic_boundary(rng) for _ in range(3)], s, t)
    torus = _record_json("torus", [_hyperbolic_boundary(rng), _hyperbolic_boundary(rng)],
                         _log_uniform(rng, 0.2, 5.0), _log_uniform(rng, 0.2, 5.0),
                         rng.uniform(-1, 1), rng.uniform(-1, 1))
    sp, tp = _log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 0.1, 10.0)
    parabolic = _record_json("pants", [("parabolic", 1.0, 2.0)] * 3, sp, tp)
    matrices = [(kind, _conjugate(rng, _normal_form(kind, rng), rng.uniform(0.0, 1.0)))
                for kind in ("hyperbolic", "quasi_hyperbolic", "parabolic")]
    disk_pts = (_disk_point(rng, (0.0, 0.0), 1.0), _disk_point(rng, (0.0, 0.0), 1.0))
    tri_pts = (_polygon_point(rng, TRIANGLE), _polygon_point(rng, TRIANGLE))
    flags3 = _positive_tuple(rng, 3)
    flags4 = _positive_tuple(rng, 4)
    shears = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1, 1))
    bulge_v = rng.uniform(-1, 1)
    lam = rng.uniform(0.1, 0.8)
    complex_rec = _record_json("pants", [("hyperbolic", lam, 0.5 * math.sqrt(4.0 / lam)),
                                         ("parabolic", 1.0, 2.0), ("parabolic", 1.0, 2.0)],
                               1.0, 1.0)
    huge_s = _record_json("pants", [("parabolic", 1.0, 2.0)] * 3, 1e308, tp)
    return {"pants": pants, "torus": torus, "parabolic": parabolic, "matrices": matrices,
            "disk_pts": disk_pts, "tri_pts": tri_pts, "flags3": flags3, "flags4": flags4,
            "shears": shears, "bulge_v": bulge_v, "complex_rec": complex_rec,
            "huge_s": huge_s, "exterior": _exterior_point(rng, QUERY_DOMAINS[0])}


INPUTS = {"area": area_inputs, "queries": queries_inputs, "cli": cli_inputs}


# ---------------------------------------------------------------- construction (set-up)

def _make_flag(pk, raw):
    p, (u, w) = raw
    return pk.Flag(pk.ProjPoint(p), pk.ProjLine(u, w))


def _make_boundary(pk, raw):
    kind, lam, tau = raw
    if kind == "parabolic":
        return pk.BoundaryData.parabolic()
    if kind == "quasi_hyperbolic":
        return pk.BoundaryData.quasi_hyperbolic(lam)
    return pk.BoundaryData.hyperbolic(lam, tau)


def make_domain(pk, dom):
    kind, geo = dom
    if kind == "conic":
        return pk.ConicOval.disk(*geo)
    return pk.Polygon(geo)


def build(workload: str, inp: dict, pk) -> dict:
    """Construct the domain, flag and record objects a workload calls the library with.

    This is the library-side part of set-up, timed by ``probe.py`` together
    with ``import projkit``.
    """
    if workload == "area":
        return {"disk": pk.ConicOval.unit_circle(),
                "region": pk.ConicOval.disk((0.0, 0.0), inp["disk_radius"])}
    if workload == "cli":
        rec = inp["pants"]
        return {"pants": pk.PantsGoldman(
            tuple(_make_boundary(pk, (b["kind"], b.get("lambda"), b.get("tau")))
                  for b in rec["boundaries"]), rec["s"], rec["t"])}
    objs = {"domains": [make_domain(pk, d) for d in QUERY_DOMAINS], "flags": {}, "records": {}}
    for i, item in enumerate(inp["rp2"]):
        if item[0] in ("generic3", "generic4"):
            objs["flags"][("rp2", i)] = [_make_flag(pk, f) for f in item[1]]
        elif item[0] in ("transform", "rescaled"):
            objs["flags"][("rp2", i)] = [_make_flag(pk, item[1])]
    for i, (_, flags, variant, extra) in enumerate(inp["invariants"]):
        made = [_make_flag(pk, f) for f in flags]
        if variant == "rescaled":
            made = [f.rescaled(*sc) for f, sc in zip(made, extra)]
        elif variant == "transformed":
            made = [f.transform(extra) for f in made]
        objs["flags"][("inv", i)] = made
    for i, item in enumerate(inp["coords"]):
        if item[0] == "pants":
            bs = tuple(_make_boundary(pk, b) for b in item[1])
            objs["records"][i] = pk.PantsGoldman(bs, item[2], item[3])
        elif item[0] in ("torus", "recover"):
            b, c = (_make_boundary(pk, x) for x in item[1])
            objs["records"][i] = pk.TorusGoldman(b, c, *item[2:])
    return objs
