"""`queries` workload: a closed loop of scalar calls, round-robin across layers.

Each operation is timed on its own.  Its expected outcome is computed before
the clock starts, from the generated floats, by the exact references of
``oracles.py``: closed forms of the Hilbert metric, the determinant
definitions of T, D1 and D2 (taken on the original flags, so rescaled and
projectively moved copies test invariance), the normal form's kind for
``classify``, and the Goldman -> Bonahon-Dreyer formulas.  Deliberately bad
inputs pass only if the documented ``ProjKitError`` subclass is raised.
"""

from __future__ import annotations

import math
import time

import gen
import oracles as ex

# Accuracy bounds.  The references are exact to ~1e-50, so these bound the
# program's own error.
RTOL_DISTANCE = 1e-9   # distances, chords (relative to the chord) and Finsler norms
RTOL_INVARIANT = 1e-9  # T, D1, D2 and their logs, including moved copies, over the
                       # condition number of the flag tuple
RTOL_COORDS = 1e-12    # conversions and recoveries: error / max(1, |value|), and for
                       # conversions also over the condition of the middle eigenvalues
RTOL_RP2 = 1e-14       # constructed vectors, relative to the size of the summed terms


class Unexpected:
    """An exception the operation's contract does not allow."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"Unexpected({type(self.exc).__name__}: {self.exc})"


def _rel(got, exp):
    exp = float(exp)
    if not math.isfinite(got):
        return math.inf
    return abs(got - exp) / abs(exp) if exp != 0.0 else abs(got)


def _abs_scaled(got, exp):
    exp = float(exp)
    if not math.isfinite(got):
        return math.inf
    return abs(got - exp) / max(1.0, abs(exp))


def _raises(error):
    def check(r):
        return isinstance(r, error), None
    return check


# ---------------------------------------------------------------- rp2

def _vec_err(got, exp, scale):
    """Largest component error over ``scale``, the size of the terms that were summed."""
    return max(abs(float(g) - float(e)) for g, e in zip(got, exp)) / scale


def _flag_check(pk, exp, scales):
    """The flag's point and spanning vectors equal ``exp`` to RTOL_RP2."""
    def check(r):
        ok = isinstance(r, pk.Flag) and max(
            _vec_err(v, e, sc)
            for v, e, sc in zip((r.point.v, r.line.u, r.line.w), exp, scales)) <= RTOL_RP2
        return ok, None
    return check


def _rp2_ops(pk, inp, objs):
    ops = []
    for i, item in enumerate(inp["rp2"]):
        kind = item[0]
        if kind == "flag":
            _, p, u, w = item

            def check(r, p=p, u=u, w=w):
                ok = isinstance(r, pk.Flag) and r.point.v.tolist() == p \
                    and r.line.u.tolist() == u and r.line.w.tolist() == w
                return ok, None
            ops.append(("rp2", pk.Flag, (p, (u, w)), check, None))
        elif kind == "line":
            _, u, w = item
            n_exp, scale = ex.cross(u, w), float(ex.norm(u) * ex.norm(w))

            def check(r, n_exp=n_exp, scale=scale):
                ok = isinstance(r, pk.ProjLine) and _vec_err(r.normal, n_exp, scale) <= RTOL_RP2
                return ok, None
            ops.append(("rp2", pk.ProjLine, (u, w), check, None))
        elif kind in ("generic3", "generic4"):
            expected = ex.generic(item[1])
            fn = pk.is_generic_triple if kind == "generic3" else pk.is_generic_quadruple

            def check(r, expected=expected):
                return r in (True, False) and bool(r) is expected, None
            ops.append(("rp2", fn, tuple(objs["flags"][("rp2", i)]), check, None))
        elif kind == "transform":
            _, (p, (u, w)), m = item
            exp = [ex.matvec(m, v) for v in (p, u, w)]
            m_norm = ex.norm([x for row in m for x in row])
            scales = [float(m_norm * ex.norm(v)) for v in (p, u, w)]
            ops.append(("rp2", pk.Flag.transform, (objs["flags"][("rp2", i)][0], m),
                        _flag_check(pk, exp, scales), None))
        else:
            _, (p, (u, w)), sc = item
            exp = [ex.scaled(c, v) for c, v in zip(sc, (p, u, w))]
            scales = [float(ex.norm(e)) for e in exp]
            ops.append(("rp2", pk.Flag.rescaled, (objs["flags"][("rp2", i)][0], *sc),
                        _flag_check(pk, exp, scales), None))
    return ops


# ---------------------------------------------------------------- invariants

def _ratio_check(get, values, kappa):
    """The ratio(s) read by ``get`` match ``values``; records the relative error
    over the condition number ``kappa`` of the flag tuple."""
    def check(r):
        try:
            err = max(_rel(g, e) for g, e in zip(get(r), values)) / kappa
        except AttributeError:
            err = math.inf
        return err <= RTOL_INVARIANT, err
    return check


def _log_check(pk, value, kappa):
    """log(value), or NonPositiveRatio when the exact value is not positive."""
    if not value > 0:
        return _raises(pk.NonPositiveRatio)
    expected = value.ln(ex.CTX)

    def check(r):
        err = _abs_scaled(r, expected) / kappa if isinstance(r, float) else math.inf
        return err <= RTOL_INVARIANT, None
    return check


def _invariant_ops(pk, inp, objs):
    ops = []
    fns = {"triple_ratio": pk.triple_ratio, "tau111": pk.tau111,
           "double_ratios": pk.double_ratios, "shear1": pk.shear, "shear2": pk.shear}
    for i, (op, raw, _, _) in enumerate(inp["invariants"]):
        args = tuple(objs["flags"][("inv", i)])
        if op in ("shear1", "shear2"):
            args += (int(op[-1]),)
        # a pairing that nearly vanishes amplifies the rounding of the (moved)
        # flags by the inverse of its size: scale the bound by that condition
        transversality = ex.transversality(raw)
        kappa = max(1.0, 1.0 / float(transversality)) if transversality else 1.0
        if not ex.generic(raw):
            check = _raises(pk.NonGenericFlags)
        elif op == "triple_ratio":
            check = _ratio_check(lambda r: (r.value,), (ex.triple_ratio(*raw),), kappa)
        elif op == "tau111":
            check = _log_check(pk, ex.triple_ratio(*raw), kappa)
        elif op == "double_ratios":
            check = _ratio_check(lambda r: (r.d1, r.d2), ex.double_ratios(*raw), kappa)
        else:
            check = _log_check(pk, ex.double_ratios(*raw)[int(op[-1]) - 1], kappa)
        ops.append(("invariants", fns[op], args, check, None))
    return ops


# ---------------------------------------------------------------- hilbert (chord path)

def _float_check(exp, record):
    def check(r):
        err = _rel(r, exp) if isinstance(r, float) else math.inf
        return err <= RTOL_DISTANCE, err if record else None
    return check


def _hilbert_ops(pk, inp, objs):
    ops = []
    fns = {"distance": pk.hilbert_distance, "chord": pk.chord, "finsler": pk.finsler_norm}
    for op, k, x, y in inp["hilbert"]:
        dom = gen.QUERY_DOMAINS[k]
        # accuracy of conic domains near the boundary and far from the origin
        # is a known defect (ROADMAP section 5): counted, but not a surprise
        known = "conic-accuracy" if dom[0] == "conic" else None
        if not ex.inside(dom, x):
            check, known = _raises(pk.PointOutsideDomain), None
        elif op == "distance":
            check = _float_check(ex.distance(dom, x, y), True)
        elif op == "finsler":
            check = _float_check(ex.finsler(dom, x, y), False)
        else:
            p, q = ex.chord(dom, x, y)
            length = math.hypot(q[0] - p[0], q[1] - p[1])

            def check(r, p=p, q=q, length=length):
                if not isinstance(r, pk.Chord):
                    return False, None
                err = max(abs(float(r.p[j]) - p[j]) + abs(float(r.q[j]) - q[j])
                          for j in range(2)) / length
                return err <= RTOL_DISTANCE, None
        ops.append(("hilbert.chord", fns[op], (objs["domains"][k], x, y), check, known))
    return ops


# ---------------------------------------------------------------- isometry

def _isometry_ops(pk, inp, objs):
    ops = []
    for kind, _, m in inp["isometry"]:
        if kind == "not_unimodular":
            check, known = _raises(pk.NotUnimodular), None
        else:
            def check(r, kind=kind):
                return isinstance(r, pk.IsometryClass) and r.kind == kind, None
            # misclassification of badly conditioned conjugates: ROADMAP section 5
            known = "isometry-misclassified"
        ops.append(("isometry", pk.classify, (m,), check, known))
    return ops


# ---------------------------------------------------------------- coords

def _data(b):
    return (b.kind, b.lam, b.tau)


def _pants_error(bs, s, t):
    """Error of a PantsBD over the coordinates and the tau-sum identity, divided by
    the largest condition of a middle eigenvalue (near the quasi-hyperbolic locus
    every formula for mu loses that factor)."""
    s1, s2, tplus, tminus, logmu = ex.pants([_data(b) for b in bs], s, t)
    kappa = max(ex.mu_condition(*_data(b)) for b in bs)

    def err(bd):
        errs = [_abs_scaled(g, e) for g, e in zip(bd.sigma1 + bd.sigma2, s1 + s2)]
        errs += [_abs_scaled(bd.tplus, tplus), _abs_scaled(bd.tminus, tminus),
                 _abs_scaled(bd.tplus + bd.tminus, logmu)]
        return max(errs) / kappa
    return err


def _coords_ops(pk, inp, objs):
    ops = []
    for i, item in enumerate(inp["coords"]):
        rec = objs["records"].get(i)
        if item[0] == "pants":
            err = _pants_error(rec.boundaries, rec.s, rec.t)

            def check(r, err=err):
                return isinstance(r, pk.PantsBD) and err(r) <= RTOL_COORDS, None
            ops.append(("coords", pk.pants_goldman_to_bd, (rec,), check, None))
        elif item[0] == "torus":
            err = _pants_error((rec.b, rec.c, rec.c), rec.s, rec.t)
            c1, c2 = ex.gluing_shears(rec.u, rec.v)

            def check(r, err=err, c1=c1, c2=c2):
                ok = isinstance(r, pk.TorusBD) and max(
                    err(r.pants), _abs_scaled(r.sigma_c1, c1),
                    _abs_scaled(r.sigma_c2, c2)) <= RTOL_COORDS
                return ok, None
            ops.append(("coords", pk.torus_goldman_to_bd, (rec,), check, None))
        elif item[0] == "recover":
            # round trip: the exact coordinates of a parabolic torus give back its record
            s1, _, tplus, _, _ = ex.pants([_data(b) for b in (rec.b, rec.c, rec.c)],
                                          rec.s, rec.t)
            expected = (rec.s, rec.c.lam, float(ex.mu(*_data(rec.c))), rec.t)

            def check(r, expected=expected):
                ok = isinstance(r, tuple) and len(r) == 5 and max(
                    _rel(g, e) for g, e in zip(r[:4], expected)) <= RTOL_COORDS
                return ok, None
            ops.append(("coords", pk.torus_parabolic_recover,
                        ([float(x) for x in s1], float(tplus)), check, None))
        else:
            ops.append(("coords", pk.torus_parabolic_recover, (item[1], item[2]),
                        _raises(pk.InconsistentStratum), None))
    return ops


# ---------------------------------------------------------------- the loop

def build_ops(pk, inp, objs):
    """All operations as (layer, fn, args, check, known defect), round-robin across layers."""
    groups = [_rp2_ops(pk, inp, objs), _invariant_ops(pk, inp, objs),
              _hilbert_ops(pk, inp, objs), _isometry_ops(pk, inp, objs),
              _coords_ops(pk, inp, objs)]
    return [g[i] for i in range(max(map(len, groups))) for g in groups if i < len(g)]


def run_pass(calls, error_type, latencies):
    """One closed-loop pass; appends each call's seconds to ``latencies``."""
    clock = time.perf_counter
    results = []
    append, lat = results.append, latencies.append
    for fn, args in calls:
        t0 = clock()
        try:
            r = fn(*args)
        except error_type as exc:
            r = exc
        except Exception as exc:  # any other exception breaks the op's contract
            r = Unexpected(exc)
        lat(clock() - t0)
        append(r)
    return results


def fingerprint(pk, r):
    """Exact, comparable form of one result."""
    if isinstance(r, (pk.ProjKitError, Unexpected)):
        return ("exc", type(getattr(r, "exc", r)).__name__)
    if isinstance(r, pk.Flag):
        return (r.point.v.tolist(), r.line.u.tolist(), r.line.w.tolist())
    if isinstance(r, pk.ProjLine):
        return (r.u.tolist(), r.w.tolist(), r.normal.tolist())
    if isinstance(r, pk.Chord):
        return (r.p.tolist(), r.q.tolist())
    return repr(r)
