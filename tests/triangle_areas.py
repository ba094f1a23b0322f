"""Reference Busemann areas of polygon regions in the standard triangle, in decimals.

Run ``python tests/triangle_areas.py`` to rewrite ``tests/triangle_areas.json``,
which ``test_hilbert.py`` reads.  Everything is taken in 60-digit ``decimal``
arithmetic from the exact values of the float inputs, so the areas are good to
far beyond double precision.

The method is the Green's-theorem edge sum of de la Harpe's normed plane (the
density is pi / (12 x y z) with z = 1 - x - y), written independently of
``projkit.hilbert``: the region is clipped to the Hilbert ball's hexagon, and
each edge's integral of log(l) dt / t, l in {x, z} and t in {y, y - 1}, is the
one antiderivative log|l_r| log|t| - Re Li2(1 - l / l_r) on the whole edge, with
the real part of the dilogarithm from its power series and the reflection,
Landen and inversion formulas (Lewin, *Polylogarithms and Associated
Functions*, 1981).  At 60 digits the cancellation among its terms costs nothing,
so there is no case split beyond l_r = 0 and the t = 0 terms that cancel.
"""

import json
import pathlib
from decimal import Decimal, localcontext

PATH = pathlib.Path(__file__).with_name("triangle_areas.json")
DIGITS = 60

# the cases: (name, the region's vertices in the standard triangle, the truncation
# radius about the region's vertex mean or None)
ALPHAS = (0.5, 0.25, 0.1, 0.05, 0.01)  # projkit area's defaults, at its truncation 5
# the untruncated triangle toward the corner, where its area diverges like log^2(1 / alpha)
DIVERGENCE_ALPHAS = (1e-2, 1e-4, 1e-8, 1e-30, 1e-300)


def _inscribed(alpha):
    return [(0.0, 0.5), (alpha, 0.0), (0.5, 0.5)]


CASES = [(f"alpha={a!r} truncation=5", _inscribed(a), 5.0) for a in ALPHAS] + [
    ("alpha=0.5 untruncated", _inscribed(0.5), None),
    ("near corner", [(1e-7, 1e-7), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)], None),
    ("interior", [(0.125, 0.25), (0.5, 0.125), (0.25, 0.5)], None),
    ("alpha=5e-324 truncation=1e308", _inscribed(5e-324), 1e308),
] + [(f"alpha={a!r} untruncated", _inscribed(a), None) for a in DIVERGENCE_ALPHAS]


def _pi():
    """pi by Machin's formula, 16 atan(1/5) - 4 atan(1/239)."""
    def atan_inv(n):
        total, power, k, n2 = Decimal(0), Decimal(1) / n, 0, n * n
        while power > Decimal(10) ** -(DIGITS + 20):  # past that, no term moves the sum
            total += (-1) ** k * power / (2 * k + 1)
            power /= n2
            k += 1
        return total
    return 16 * atan_inv(5) - 4 * atan_inv(239)


def _li2(w, pi2_6):
    """Re Li2(w) for any real w."""
    if w == 1:
        return pi2_6
    if w > 1:  # inversion: Re Li2(w) = pi^2/3 - log(w)^2 / 2 - Li2(1/w)
        return 2 * pi2_6 - w.ln() ** 2 / 2 - _li2(1 / w, pi2_6)
    if w < -1:  # inversion: Li2(w) = -pi^2/6 - log(-w)^2 / 2 - Li2(1/w)
        return -pi2_6 - (-w).ln() ** 2 / 2 - _li2(1 / w, pi2_6)
    if w < Decimal("-0.5"):  # Landen: Li2(w) = -Li2(w / (w - 1)) - log(1 - w)^2 / 2
        return -_li2(w / (w - 1), pi2_6) - (1 - w).ln() ** 2 / 2
    if w > Decimal("0.5"):  # reflection
        return pi2_6 - w.ln() * (1 - w).ln() - _li2(1 - w, pi2_6)
    total, power, k = Decimal(0), w, 1
    while True:
        term = power / (k * k)
        if abs(term) < Decimal(10) ** -(DIGITS + 5):
            return total + term
        total += term
        power *= w
        k += 1


def _log_over_t(l0, t0, l1, t1, dt, pi2_6):
    """The integral of log(l) dt / t along an edge, l = l_r + m t."""
    m = (l1 - l0) / dt
    lr = l0 - m * t0

    def antiderivative(l, t):
        if t == 0:
            return Decimal(0)  # log|l_r| log|t| cancels against the other edge at this end
        if lr == 0:
            return abs(t).ln() * (abs(m).ln() + abs(t).ln() / 2)
        return abs(lr).ln() * abs(t).ln() - _li2(1 - l / lr, pi2_6)
    return antiderivative(l1, t1) - antiderivative(l0, t0)


def _clip(verts, base, radius):
    """verts cut by p_j >= e^{-2R} (b_j / b_i) p_i, i != j."""
    k = (-2 * Decimal(radius)).exp()
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            c = k * base[j] / base[i]
            out = []
            for p, q in zip(verts, verts[1:] + verts[:1]):
                fp, fq = p[j] - c * p[i], q[j] - c * q[i]
                if fp >= 0:
                    out.append(p)
                if (fp >= 0) != (fq >= 0):
                    out.append(tuple((fq * a - fp * b) / (fq - fp) for a, b in zip(p, q)))
            verts = out
    return verts


def area(region, radius):
    """Busemann area of the region (vertices as floats) within radius of its vertex mean."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        pi = _pi()
        pi2_6 = pi * pi / 6
        verts = [(Decimal(x), Decimal(y), 1 - Decimal(x) - Decimal(y)) for x, y in region]
        if radius is not None:
            base = tuple(sum(v[i] for v in verts) / len(verts) for i in range(3))
            verts = _clip(verts, base, radius)
        total = Decimal(0)
        for (x0, y0, z0), (x1, y1, z1) in zip(verts, verts[1:] + verts[:1]):
            dy = y1 - y0
            if dy == 0:
                continue
            # Green's potential log(x / z) (1 / y - 1 / (y - 1)), integrated in y
            total += (_log_over_t(x0, y0, x1, y1, dy, pi2_6)
                      - _log_over_t(x0, y0 - 1, x1, y1 - 1, dy, pi2_6)
                      - _log_over_t(z0, y0, z1, y1, dy, pi2_6)
                      + _log_over_t(z0, y0 - 1, z1, y1 - 1, dy, pi2_6))
        result = pi / 12 * total
        if radius is None and region == _inscribed(0.5):
            # the ideal triangle on the midpoints of the sides has area pi^3 / 24
            assert abs(result - pi ** 3 / 24) < Decimal(10) ** -(DIGITS - 10)
        return result


def main():
    rows = [{"case": name, "region": region, "truncation": radius,
             "area": format(area(region, radius), ".30e")} for name, region, radius in CASES]
    PATH.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
