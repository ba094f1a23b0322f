"""Set-up probe: time ``import projkit`` plus object construction in a fresh process.

Usage: python3 bench/probe.py <workload> <seed> <src-dir>

Inputs are generated before the clock starts (standard library only, so numpy
is not yet imported); the timed span is the import of the package the
workload uses and the construction of its domain, flag and record objects
through library constructors.  Prints one JSON object with the raw seconds
``setup_raw_s``, ``setup_s`` (the same scaled to the reference machine speed
by the calibration kernel run right afterwards) and ``import_s`` (the import
alone, scaled).
"""

import json
import os
import sys
import time

import gen


def main() -> int:
    workload, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    inp = gen.INPUTS[workload](seed)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import projkit as pk
    if workload == "cli":
        import projkit.cli  # noqa: F401  (what `python -m projkit` imports)
    imported = time.perf_counter() - t0
    gen.build(workload, inp, pk)
    elapsed = time.perf_counter() - t0
    import calibrate
    calibrate.kernel()  # first numpy calls of a process carry one-off costs
    speed = calibrate.kernel()
    if not os.path.abspath(pk.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"projkit imported from {pk.__file__}, not from {src}", file=sys.stderr)
        return 2
    scale = calibrate.REFERENCE["python"] / speed
    print(json.dumps({"setup_s": elapsed * scale, "setup_raw_s": elapsed,
                      "import_s": imported * scale}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
