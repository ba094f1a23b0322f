"""Machine-speed calibration.

The effective CPU speed of the benchmark host changes by up to ~2x within
seconds (shared cores), and not by the same factor for every kind of work:
interpreted Python slows down most, streaming numpy over arrays larger than
the caches least.  So every measured interval is followed by a run of a fixed
calibration kernel that does the same kind of work as the interval, and is
reported as

    seconds * REFERENCE[kind] / (mean kernel seconds before and after),

the time the interval would have taken at the reference speed.  The kernels
use no projkit code, so a change to projkit moves only the numerator; the raw
seconds are printed next to the normalised ones.

``python``: interpreted arithmetic and numpy calls on 3-vectors and 3x3
matrices, like the scalar API, the CLI and imports (``queries``, ``cli``,
set-up).  ``array``: broadcast division, masked minima and a rolled product
over (4096, 256, 3) arrays, the shape of work of the area sampler (``area``).
The ``array`` kernel runs in a helper process (``python3 calibrate.py
array``), so its ~100 MB of temporaries do not count in the benchmark
process's peak RSS.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# kernel seconds on the baseline machine in its fast state (see machine.json)
REFERENCE = {"python": 0.0035, "array": 0.15}
_REPEATS = {"python": 3, "array": 2}

_VEC = np.linspace(0.1, 1.0, 3)
_MAT = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.5, 0.0, 1.0]])


def _python():
    acc = 0.0
    for i in range(1500):
        pair = (i * 0.5, math.sqrt(i + 1.0))
        acc += pair[0] / pair[1] if i % 3 else -pair[1]
    for _ in range(120):
        w = np.cross(_VEC, _MAT @ _VEC)
        acc += float(np.linalg.norm(w)) + float(np.linalg.det(_MAT))
    return acc


def _array():
    slack = np.linspace(0.1, 1.1, 4096 * 3).reshape(4096, 3)
    theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    den = np.stack([np.cos(theta), np.sin(theta), -np.cos(theta) - np.sin(theta)], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = slack[:, None, :] / den[None, :, :]
        fwd = np.min(np.where(den[None] > 0.0, ratio, np.inf), axis=2)
        bwd = np.min(np.where(den[None] < 0.0, -ratio, np.inf), axis=2)
        radii = 2.0 / (1.0 / fwd + 1.0 / bwd)
        return float(np.sum(radii * np.roll(radii, -1, axis=1)))


_KERNELS = {"python": _python, "array": _array}


def kernel(kind: str = "python") -> float:
    """Seconds for one calibration sample (the fastest of a few runs)."""
    fn = _KERNELS[kind]
    best = math.inf
    for _ in range(_REPEATS[kind]):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Calibration samples taken between measured intervals.

    ``python`` samples run in this process; ``array`` samples in a helper
    process, which ``close`` (or leaving the ``with`` block) stops.
    """

    def __init__(self, kind: str = "python"):
        self.kind = kind
        self._helper = None
        if kind != "python":
            self._helper = subprocess.Popen([sys.executable, __file__, kind], text=True,
                                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.last = self._sample()

    def _sample(self) -> float:
        if self._helper is None:
            return kernel(self.kind)
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def scale(self) -> float:
        """Factor converting the interval since the previous call to reference seconds."""
        before, self.last = self.last, self._sample()
        return REFERENCE[self.kind] / (0.5 * (before + self.last))

    def close(self):
        if self._helper is not None:
            self._helper.stdin.close()
            self._helper.wait(timeout=60)
            self._helper.stdout.close()
            self._helper = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


if __name__ == "__main__":
    # helper process: one kernel sample per input line, until stdin closes
    for _ in sys.stdin:
        print(kernel(sys.argv[1]), flush=True)
