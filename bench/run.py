"""projkit benchmark: one workload, one seed, every metric with its unit.

Usage (from the repository root):

    python3 bench/run.py --workload {area,queries,cli} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --write-manifest

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics; the
traced passes must produce exactly the untraced outputs.  Both modes print one
line per metric (unit, sample count, median, quartiles), then, as the last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything runs in this one process and thread (plus the
set-up probes, the ``area`` calibration helper and, for ``cli``, the CLI
subprocesses, one at a time): a closed loop with a single caller.  Times are
scaled to a reference machine speed by calibration kernels run between the
measured intervals (``calibrate.py``); the raw times are printed as well.

``failed`` counts the operations whose output fails its oracle in a way that
is not a documented defect; any such failure, a failed area reference
self-test, or traced outputs that differ make ``correct`` false.  Outputs that
hit a documented defect (ROADMAP section 5) are wrong as well, but they are
reported by class in the table and as the traced run's ``fail_rate`` and
per-layer counts, not in ``failed``: they are accuracy findings, like the
area error, and the same inputs hit them on every pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# One thread everywhere: the loop is a single caller, and BLAS pools only add
# start-up jitter (their creation varies by tens of ms per process).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gen  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
AREA_GROSS_RTOL = 0.1  # an area further than this from the exact value is wrong, not inexact

MANIFEST = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 25,
    "workloads": [
        {"name": "area", "why": "five truncated ideal-triangle areas and a disk area: almost all "
                                "time in hilbert's density sampler and grid, the path of "
                                "ROADMAP items 2 and 3"},
        {"name": "queries", "why": "tens of thousands of scalar calls round-robin over rp2, "
                                   "invariants, hilbert chords, classify and coords: per-call "
                                   "overhead, near-boundary accuracy, bad conditioning"},
        {"name": "cli", "why": "python -m projkit subprocesses: import, argparse and formatting "
                               "cost, two 10000-step sweeps (coords) and the exit-code contract"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": n, "unit": u, "better": b} for n, u, b in (
            ("hilbert.area.calls", "count", "lower"),
            ("hilbert.area.self_s", "s", "lower"),
            ("hilbert.chord.calls", "count", "lower"),
            ("hilbert.chord.self_s", "s", "lower"),
            ("hilbert.chord.p50_us", "us", "lower"),
            ("rp2.calls", "count", "lower"),
            ("rp2.self_s", "s", "lower"),
            ("rp2.p50_us", "us", "lower"),
            ("invariants.calls", "count", "lower"),
            ("invariants.self_s", "s", "lower"),
            ("invariants.fail", "count", "lower"),
            ("isometry.calls", "count", "lower"),
            ("isometry.self_s", "s", "lower"),
            ("isometry.misclassified", "count", "lower"),
            ("isometry.fail", "count", "lower"),
            ("coords.calls", "count", "lower"),
            ("coords.self_s", "s", "lower"),
            ("coords.fail", "count", "lower"),
            ("cli.import_s", "s", "lower"),
            ("cli.self_s", "s", "lower"),
            ("cli.stdout_bytes", "bytes", "lower"),
            ("cli.exit_mismatch", "count", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.self_share", "ratio", "higher"),
            ("area_relerr_max", "ratio", "lower"),
            ("distance_relerr_max", "ratio", "lower"),
            ("invariant_relerr_max", "ratio", "lower"),
            ("fail_rate", "ratio", "lower"),
            ("latency_p99_ms", "ms", "lower"),
        )
    ],
}
UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
UNITS.update({"wall_s_in_process": "s", "wall_raw_s": "s", "setup_raw_s": "s"})


def machine(cpu_model=False) -> dict:
    import numpy
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}
    if cpu_model:  # only for the committed record: a run reads nothing outside the checkout
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), platform.processor())
    return info


# ---------------------------------------------------------------- statistics and output

class Report:
    """Samples per metric, plus counts of attempted and failed operations."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failed = 0       # failures that are not documented defects
        self.wrong = 0        # all wrong outputs, documented defects included
        self.known = {}       # documented defect -> wrong outputs
        self.unexpected = []  # (label, detail) of failures that are not documented defects
        self.notes = []

    def add(self, name, values):
        self.samples.setdefault(name, []).extend(values if isinstance(values, list) else [values])

    def count(self, ok, known, label, detail=""):
        self.attempted += 1
        if ok:
            return
        self.wrong += 1
        if known:
            self.known[known] = self.known.get(known, 0) + 1
        else:
            self.failed += 1
            self.unexpected.append((label, detail))

    def fail_rate(self):
        """Share of wrong outputs, documented defects included."""
        return self.wrong / max(1, self.attempted)

    def value(self, name):
        return statistics.median(self.samples[name])

    def print_table(self):
        print(f"{'metric':<24} {'unit':<6} {'n':>7} {'median':>14} {'q1':>14} {'q3':>14}")
        for name, vals in self.samples.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            print(f"{name:<24} {UNITS.get(name, ''):<6} {len(vals):>7} "
                  f"{statistics.median(vals):>14.6g} {q1:>14.6g} {q3:>14.6g}")
        print(f"attempted {self.attempted}, failed {self.failed}, wrong outputs {self.wrong} "
              f"(fail_rate {self.fail_rate():.4g})")
        for name, n in sorted(self.known.items()):
            print(f"  documented defect {name}: {n} wrong outputs")
        for label, detail in self.unexpected[:20]:
            print(f"  UNEXPECTED {label}: {detail}")
        for note in self.notes:
            print(note)

    def result(self, names, correct) -> dict:
        return {"correct": bool(correct and not self.unexpected), "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {n: {"value": float(self.value(n)), "unit": UNITS[n]} for n in names}}


# ---------------------------------------------------------------- set-up

def setup_times(workload, seed):
    """Fresh-process set-up probes: [{setup_s, setup_raw_s, import_s}, ...]."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "probe.py"), workload,
                               str(seed), SRC], cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout))
    return times


def import_projkit():
    sys.path.insert(0, SRC)
    import projkit
    if not os.path.abspath(projkit.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"projkit imported from {projkit.__file__}, not from {SRC}")
    return projkit


def timed_loop(seconds, trace, run_one):
    """Call run_one(traced) pass after pass until ``seconds`` have elapsed.

    Untraced only with trace off; alternating untraced / traced with trace on,
    so both kinds of pass see the same machine state.
    """
    # inputs, objects and reference values live for the whole run: keep the
    # cyclic collector from rescanning them during the timed passes
    gc.collect()
    gc.freeze()
    t_end = time.perf_counter() + seconds
    k = 0
    while True:
        run_one(trace and k % 2 == 1)
        k += 1
        if time.perf_counter() >= t_end and (not trace or k >= 2):
            return


# ---------------------------------------------------------------- workloads

def run_area(pk, inp, objs, seconds, trace, rep):
    import area
    import calibrate
    import tracing
    calls = area.make_calls(pk, inp, objs)
    st = area.self_test(inp["alphas"], inp["truncation"])
    rep.notes.append(f"area reference self-test: density {st['density_relerr']:.1e}, "
                     f"area {st['area_relerr']:.1e} -> {'pass' if st['passed'] else 'FAIL'}")
    first = {}

    def one(traced):
        tracer = tracing.Tracer()
        outputs = []
        raw = scaled = 0.0
        with (tracing.install(tracer) if traced else contextlib.nullcontext({})) as wrappers:
            for _, fn, args, _ in calls:
                fn = wrappers.get(fn, fn)
                t0 = time.perf_counter()
                outputs.append(fn(*args))
                secs = time.perf_counter() - t0
                call_scaled = secs * speed.scale()
                raw, scaled = raw + secs, scaled + call_scaled
                if not traced:
                    rep.add("latency_p50_ms", call_scaled * 1e3)
        for (label, _, _, ref), out in zip(calls, outputs):
            err = abs(out - ref) / ref
            rep.add("area_relerr_max_samples", err)
            rep.count(err <= AREA_GROSS_RTOL, None, label, f"area {out!r} vs exact {ref!r}")
            first.setdefault(label, out)
            if out != first[label]:
                rep.count(False, None, label, "output differs between passes")
        _record_pass(rep, traced, raw, scaled / raw, tracer)

    with calibrate.Speed("array") as speed:
        timed_loop(seconds, trace, one)
    for label, _, _, ref in calls:
        rep.notes.append(f"  {label}: area {first[label]!r}, exact {ref!r}, "
                         f"relative error {(first[label] - ref) / ref:+.3e}")
    rep.add("area_relerr_max", max(rep.samples.pop("area_relerr_max_samples")))
    return st["passed"]


def run_queries(pk, inp, objs, seconds, trace, rep):
    import calibrate
    import queries
    import tracing
    ops = queries.build_ops(pk, inp, objs)
    plain = [(fn, args) for _, fn, args, _, _ in ops]
    first = []
    per_layer = {}
    errs = {"distance": 0.0, "invariant": 0.0}
    speed = calibrate.Speed()

    def one(traced):
        tracer = tracing.Tracer()
        lat = []
        with (tracing.install(tracer) if traced else contextlib.nullcontext({})) as wrappers:
            calls = plain if not traced else [
                (wrappers[fn], args) if fn in wrappers else
                (_span(tracer, layer, fn), args) for layer, fn, args, _, _ in ops]
            t0 = time.perf_counter()
            results = queries.run_pass(calls, pk.ProjKitError, lat)
            wall = time.perf_counter() - t0
        scale = speed.scale()
        if not traced:
            # per-pass statistics, so that memory does not grow with the number of
            # passes (3000 calls a pass leave 30 beyond the 99th percentile)
            rep.add("latency_p50_ms", statistics.median(lat) * scale * 1e3)
            rep.add("latency_p99_ms", statistics.quantiles(lat, n=100)[98] * scale * 1e3)
        fails = {}
        for (layer, fn, _, check, known), r in zip(ops, results):
            ok, err = check(r)
            if err is not None:
                key = "distance" if layer == "hilbert.chord" else "invariant"
                errs[key] = max(errs[key], err)
            rep.count(ok, known, f"{layer}:{fn.__name__}", repr(r))
            if not ok:
                fails[f"{layer}.fail"] = fails.get(f"{layer}.fail", 0) + 1
                if known == "isometry-misclassified":
                    fails["isometry.misclassified"] = fails.get("isometry.misclassified", 0) + 1
        prints = [queries.fingerprint(pk, r) for r in results]
        if not first:
            first.extend(prints)
        elif prints != first:
            rep.count(False, None, "queries pass", "outputs differ from the first pass")
        if traced:
            for key in ("invariants.fail", "isometry.fail", "isometry.misclassified",
                        "coords.fail"):
                per_layer.setdefault(key, []).append(fails.get(key, 0))
        _record_pass(rep, traced, wall, scale, tracer)

    timed_loop(seconds, trace, one)
    rep.add("distance_relerr_max", errs["distance"])
    rep.add("invariant_relerr_max", errs["invariant"])
    for key, vals in per_layer.items():
        rep.add(key, vals)
    return True


def run_cli(pk, inp, objs, seconds, trace, rep):
    import calibrate
    import cli_session
    import tracing
    calls = cli_session.session(inp)
    first = {}  # label -> (stdout, exit code, verdict) of the first run
    bytes_out = []
    speed = calibrate.Speed()

    def judge(call, code, out, err):
        """Count one invocation; a repeat must print what the first run printed."""
        if call.label not in first:
            first[call.label] = (out, code, cli_session.verdict(call, code, out, err))
        out0, code0, (ok, detail) = first[call.label]
        if (out, code) != (out0, code0):
            ok, detail = False, "output differs from the first run"
        rep.count(ok, call.known, call.label, detail)
        return code == call.exit_code

    def subprocess_pass():
        raw = norm = 0.0
        for call in calls:
            secs, code, out, err = cli_session.run_subprocess(call, SRC, ROOT)
            scaled = secs * speed.scale()
            raw, norm = raw + secs, norm + scaled
            rep.add("latency_p50_ms", scaled * 1e3)
            judge(call, code, out, err)
        rep.add("wall_s", norm)
        rep.add("wall_raw_s", raw)

    if not trace:
        timed_loop(seconds, False, lambda traced: subprocess_pass())
        rep.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
        return True

    import projkit.cli
    mismatches = []
    subprocess_pass()  # the untraced reference outputs the in-process passes must match

    def in_process(traced):
        tracer = tracing.Tracer()
        n_bad, n_bytes = 0, 0
        with (tracing.install(tracer) if traced else contextlib.nullcontext({})):
            t0 = time.perf_counter()
            main = projkit.cli.main
            for call in calls:
                _, code, out, err = cli_session.run_in_process(call, main)
                n_bad += not judge(call, code, out, err)
                n_bytes += len(out.encode())
        wall = time.perf_counter() - t0
        if traced:
            mismatches.append(n_bad)
            bytes_out.append(n_bytes)
        _record_pass(rep, traced, wall, speed.scale(), tracer, untraced_key="wall_s_in_process")

    timed_loop(seconds, True, in_process)
    rep.add("cli.exit_mismatch", mismatches)
    rep.add("cli.stdout_bytes", bytes_out)
    return True


def _span(tracer, layer, fn):
    def call(*args):
        return tracer.call(layer, fn, *args)
    return call


def _record_pass(rep, traced, wall, scale, tracer, untraced_key="wall_s"):
    """Record one pass: ``wall`` raw seconds, ``scale`` the calibration factor.

    Times are recorded at the reference speed.
    """
    if not traced:
        rep.add(untraced_key, wall * scale)
        if untraced_key == "wall_s":
            rep.add("wall_raw_s", wall)
        return
    rep.add("trace.wall_s", wall * scale)
    covered = 0.0
    for layer, rec in tracer.summary().items():
        if layer != "cli":
            rep.add(f"{layer}.calls", rec["calls"])
        rep.add(f"{layer}.self_s", rec["self_s"] * scale)
        covered += rec["self_s"]
        if layer in ("rp2", "hilbert.chord"):
            rep.add(f"{layer}.p50_us", rec["p50_us"] * scale)
    rep.add("trace.self_share", covered / wall)


WORKLOADS = {"area": run_area, "queries": run_queries, "cli": run_cli}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json and bench/machine.json, then exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "projkit", "__init__.py")):
        print(f"error: no projkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(MANIFEST, fh, indent=2)
            fh.write("\n")
        with open(os.path.join(BENCH_DIR, "machine.json"), "w", encoding="utf-8") as fh:
            json.dump(machine(cpu_model=True), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    rep = Report()
    inp = gen.INPUTS[args.workload](args.seed)
    pk = import_projkit()
    objs = gen.build(args.workload, inp, pk)
    correct = WORKLOADS[args.workload](pk, inp, objs, args.seconds, bool(args.trace), rep)
    if args.workload != "cli":
        rep.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    # after the workload, so that the probes do not count in the cli children's peak RSS
    probes = setup_times(args.workload, args.seed)
    rep.add("setup_s", [p["setup_s"] for p in probes])
    rep.add("setup_raw_s", [p["setup_raw_s"] for p in probes])
    if args.workload == "cli" and args.trace:
        rep.add("cli.import_s", [p["import_s"] for p in probes])

    if args.trace:
        untraced = rep.samples.get("wall_s_in_process") or rep.samples["wall_s"]
        rep.add("trace.overhead_s", rep.value("trace.wall_s") - statistics.median(untraced))
        rep.add("fail_rate", rep.fail_rate())
        for m in MANIFEST["per_layer"]:
            rep.samples.setdefault(m["name"], [0.0])
        names = [m["name"] for m in MANIFEST["per_layer"]]
    else:
        names = [m["name"] for m in MANIFEST["end_to_end"]]
    print("machine: " + json.dumps(machine()))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    rep.print_table()
    print(json.dumps(rep.result(names, correct)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
