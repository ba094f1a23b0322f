"""`cli` workload: a scripted session of ``python -m projkit`` invocations.

Each invocation is a fresh interpreter, so the session pays interpreter,
numpy and projkit import, argparse and 17-digit formatting every time.  The
exit-code contract is: 0 on success, 1 with ``error: <ErrorClass>:`` on stderr
for a domain error, 2 for malformed input, and never a traceback.  Outputs are
checked against the exact references of ``oracles.py``; a repeated invocation
must print byte-identical stdout.
"""

from __future__ import annotations

import contextlib
import csv
import decimal
import io
import json
import math
import os
import subprocess
import sys
import time
import traceback

import gen
import oracles as ex

SWEEP_STEPS = 10000
RTOL = 1e-12    # conversions, shears, tau-sum identity (scaled by max(1, |value|))
RTOL_GEOM = 1e-9  # distances and invariants, as in the queries workload


def _err(got, exp):
    got, exp = float(got), float(exp)
    if not math.isfinite(got):
        return math.inf
    return abs(got - exp) / max(1.0, abs(exp))


def _boundary_triplet(b):
    lam = b.get("lambda", 1.0)
    tau = b.get("tau", 2.0 / math.sqrt(lam) if b["kind"] == "quasi_hyperbolic" else 2.0)
    return b["kind"], lam, tau


# ---------------------------------------------------------------- output checks

def _check_sweep(rec, surface, index):
    fixed = [_boundary_triplet(b) for b in rec["boundaries"]]
    # the boundaries that stay fixed along the sweep: the other two pants
    # boundaries, or the torus meridian C twice
    others = [fixed[k] for k in range(3) if k != index] if surface == "pants" else fixed[1:] * 2
    with decimal.localcontext(ex.CTX):
        others_mu = ex.mu(*others[0]) * ex.mu(*others[1])
    others_kappa = max(ex.mu_condition(*b) for b in others)

    def check(out):
        lines = out.splitlines()
        rows = list(csv.reader(lines[2:]))
        if len(rows) != SWEEP_STEPS + 1 or rows[-1][4] != "parabolic":
            return False, f"{len(rows)} rows, last kind {rows[-1][4] if rows else None}"
        worst = 0.0
        with decimal.localcontext(ex.CTX):
            for row in rows:
                values = [float(v) for k, v in enumerate(row) if k != 4]
                if not all(math.isfinite(v) for v in values):
                    return False, f"non-finite row {row[0]}"
                pinched = (row[4], row[2], row[3])
                logmu = (ex.mu(*pinched) * others_mu).ln()
                # mu(lambda, tau) loses digits like tau / sqrt(tau^2 - 4/lambda) near the
                # parabolic end, whatever the formula: scale the bound by that condition
                kappa = max(others_kappa, ex.mu_condition(*pinched))
                worst = max(worst, _err(float(row[11]) + float(row[12]), logmu) / kappa)
        return worst <= RTOL, f"tau-sum identity error {worst:.2e} (condition-scaled)"
    return check


def _kv(out):
    """Parse table output ``key = value`` lines."""
    return dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)


def _check_fields(expected, tol):
    """Table output whose named fields match decimal values within tol."""
    def check(out):
        got = _kv(out)
        worst = max(_err(got[k], v) if k in got else math.inf for k, v in expected.items())
        return worst <= tol, f"max error {worst:.2e}"
    return check


def _check_json(expected):
    def check(out):
        got = json.loads(out)
        worst = 0.0
        for key, value in expected.items():
            vals = got[key] if isinstance(got[key], list) else [got[key]]
            exps = value if isinstance(value, list) else [value]
            worst = max([worst] + [_err(g, e) for g, e in zip(vals, exps)])
        return worst <= RTOL, f"max error {worst:.2e}"
    return check


def _check_kind(kind):
    def check(out):
        got = _kv(out).get("kind")
        return got == kind, f"kind {got}"
    return check


def _check_finite_convert(out):
    got = json.loads(out)
    values = got["sigma1"] + got["sigma2"] + [got["tplus"], got["tminus"]]
    return all(math.isfinite(v) for v in values), "finite coordinates"


def _flags_json(flags):
    return json.dumps([{"point": p, "line": [u, w]} for p, (u, w) in flags])


def _bulging_flags(y, x):
    """The four flags adapted to a bulging geodesic: E, F, then G, L on w0 w2 = (x/y^2) w1^2."""
    def through(p, normal):
        return p, (p, gen.cross(normal, p))
    return [([1.0, 0.0, 0.0], ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])),
            ([0.0, 0.0, 1.0], ([0.0, 0.0, 1.0], [0.0, 1.0, 0.0])),
            through([1.0, -y, x], [x, 2.0 * x / y, 1.0]),
            through([1.0, y, x], [x, -2.0 * x / y, 1.0])]


# ---------------------------------------------------------------- the session

class Call:
    """One invocation and its contract."""

    def __init__(self, label, argv, exit_code, check=None, error=None, env=None, known=None):
        self.label, self.argv, self.exit_code = label, argv, exit_code
        self.check, self.error, self.env, self.known = check, error, env or {}, known


def session(inp) -> list:
    """The scripted invocations; ``known`` names the ROADMAP section 5 defect a call exposes."""
    calls = []
    d = ex.d
    with decimal.localcontext(ex.CTX):
        pants, torus = inp["pants"], inp["torus"]
        calls.append(Call("sweep pants", ["sweep", "--input", json.dumps(pants), "--boundary", "2",
                                          "--steps", str(SWEEP_STEPS)], 0,
                          _check_sweep(pants, "pants", 1)))
        calls.append(Call("sweep torus", ["sweep", "--input", json.dumps(torus), "--boundary", "1",
                                          "--steps", str(SWEEP_STEPS)], 0,
                          _check_sweep(torus, "torus", 0)))
        par = inp["parabolic"]
        ls = d(par["s"]).ln()
        calls.append(Call("convert all-parabolic", ["convert", "--input", json.dumps(par)], 0,
                          _check_json({"sigma1": [ls] * 3, "sigma2": [-ls] * 3,
                                       "tplus": ((d(par["s"]) + 1) / d(par["t"])).ln()})))
        c1, c2 = ex.gluing_shears(torus["u"], torus["v"])
        calls.append(Call("convert torus", ["convert", "--input", json.dumps(torus)], 0,
                          _check_json({"sigmaC1": c1, "sigmaC2": c2})))
        for kind, m in inp["matrices"]:
            flat = json.dumps([x for row in m for x in row])
            calls.append(Call(f"classify {kind}", ["classify", "--input", flat], 0,
                              _check_kind(kind)))
        x, y = inp["disk_pts"]
        disk = {"domain": {"conic": [1, 0, 1, 0, 0, -1]}, "x": x, "y": y}
        calls.append(Call("distance disk", ["distance", "--input", json.dumps(disk)], 0,
                          _check_fields({"distance": ex.distance(gen.QUERY_DOMAINS[0], x, y)},
                                        RTOL_GEOM)))
        x, y = inp["tri_pts"]
        tri = {"domain": {"polygon": [list(p) for p in gen.TRIANGLE]}, "x": x, "y": y}
        calls.append(Call("distance triangle", ["distance", "--input", json.dumps(tri)], 0,
                          _check_fields({"distance": ex.distance(("polygon", gen.TRIANGLE), x, y)},
                                        RTOL_GEOM)))
        t = ex.triple_ratio(*inp["flags3"])
        # bounds over the condition number of the tuple, as in the queries workload
        kappa3 = max(1.0, 1.0 / float(ex.transversality(inp["flags3"])))
        kappa4 = max(1.0, 1.0 / float(ex.transversality(inp["flags4"])))
        calls.append(Call("invariants 3 flags", ["invariants", "--input",
                                                 _flags_json(inp["flags3"])], 0,
                          _check_fields({"T": t, "tau111": t.ln()}, RTOL_GEOM * kappa3)))
        d1, d2 = ex.double_ratios(*inp["flags4"])
        calls.append(Call("invariants 4 flags", ["invariants", "--input",
                                                 _flags_json(inp["flags4"])], 0,
                          _check_fields({"D1": d1, "D2": d2, "sigma1": d1.ln(),
                                         "sigma2": d2.ln()}, RTOL_GEOM * kappa4)))
        s1, s2, bv = inp["shears"]
        calls.append(Call("bulge shears", ["bulge", "--input", json.dumps(
            {"sigma1": s1, "sigma2": s2, "v": bv})], 0,
            _check_fields({"sigma1": d(s1) - 3 * d(bv), "sigma2": d(s2) + 3 * d(bv)}, RTOL)))
        bv = inp["bulge_v"]
        flags = [{"point": p, "line": [a, b]} for p, (a, b) in _bulging_flags(1.0, 1.0)]
        calls.append(Call("bulge flags", ["bulge", "--input", json.dumps(
            {"flags": flags, "v": bv})], 0,
            _check_fields({"delta_sigma1": -3 * d(bv), "delta_sigma2": 3 * d(bv)}, RTOL)))

    # bad input: the exit-code contract
    calls.append(Call("malformed json", ["classify", "--input", "[1, 2,"], 2,
                      error="MalformedInput"))
    calls.append(Call("nan matrix", ["classify", "--input",
                                     "[NaN, 0, 0, 0, 1, 0, 0, 0, 1]"], 2, error="MalformedInput"))
    outside = {"domain": {"conic": [1, 0, 1, 0, 0, -1]}, "x": inp["exterior"], "y": [0.0, 0.0]}
    calls.append(Call("exterior point", ["distance", "--input", json.dumps(outside)], 1,
                      error="PointOutsideDomain"))
    calls.append(Call("complex eigenvalues", ["convert", "--input",
                                              json.dumps(inp["complex_rec"])], 1,
                      error="ComplexEigenvalues"))
    flags3 = _flags_json(inp["flags3"])
    calls.append(Call("--tol nan", ["invariants", "--input", flags3, "--tol", "nan"], 2,
                      error="MalformedInput", known="cli-nan-tolerance"))
    calls.append(Call("PROJKIT_TOL=nan", ["invariants", "--input", flags3], 2,
                      error="MalformedInput", env={"PROJKIT_TOL": "nan"},
                      known="cli-nan-tolerance"))
    calls.append(Call("convert s=1e308", ["convert", "--input", json.dumps(inp["huge_s"])], 0,
                      _check_finite_convert, known="coords-overflow"))
    return calls


def verdict(call, code, out, err):
    """(passed, detail) of one invocation against its contract."""
    if "Traceback" in err:
        return False, "traceback on stderr"
    if code != call.exit_code:
        return False, f"exit {code}, expected {call.exit_code}"
    if call.error is not None and f"error: {call.error}" not in err:
        return False, f"stderr lacks 'error: {call.error}'"
    if call.check is not None:
        try:
            return call.check(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return False, f"unparsable output: {exc!r}"
    return True, ""


def run_subprocess(call, src, root):
    """Run one invocation as ``python -m projkit``; returns (seconds, code, out, err)."""
    env = dict(os.environ)
    env.pop("PROJKIT_TOL", None)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(call.env)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "projkit", *call.argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def run_in_process(call, main):
    """Run one invocation through ``projkit.cli.main``; returns (seconds, code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("PROJKIT_TOL", None)
    os.environ.update(call.env)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(call.argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # what an uncaught exception would print and return
                traceback.print_exc()
                code = 1
    finally:
        elapsed = time.perf_counter() - t0
        for key in call.env:
            os.environ.pop(key, None)
        if saved is not None:
            os.environ["PROJKIT_TOL"] = saved
    return elapsed, code, out.getvalue(), err.getvalue()
