"""Command-line front end for projkit.

Subcommands: invariants, classify, distance, area, convert, sweep, bulge.
All numeric output is printed with 17 significant digits in a fixed field
order, so identical inputs produce byte-identical output.  Domain errors exit
with code 1 and a machine-readable error name on stderr; malformed input
exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import coords, hilbert, invariants, isometry
from .errors import NonFiniteResult, ProjKitError
from .rp2 import Flag

_ENV_TOL = "PROJKIT_TOL"


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _json_text(obj) -> str:
    """Serialize with fixed float formatting (17 significant digits)."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return json.dumps(obj)
    return _fmt(obj)


def _require_finite(items) -> None:
    """Refuse output with a NaN or infinite number before any of it is written;
    items are (name, value) pairs, a value a string or nested numbers."""
    for name, value in items:
        if not isinstance(value, str) and not np.isfinite(np.asarray(value, dtype=float)).all():
            raise NonFiniteResult(f"{name} is not finite")


def _emit_record(record: dict, fmt: str, out) -> None:
    _require_finite(record.items())
    if fmt == "json":
        out.write(_json_text(record) + "\n")
        return
    for key, value in record.items():
        if isinstance(value, (list, tuple)):
            text = " ".join(_fmt(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            text = _fmt(value)
        else:
            text = str(value)
        if fmt == "csv":
            out.write(f"{key},{text}\n")
        else:
            out.write(f"{key} = {text}\n")


def _load_input(source: str, what: str = "input"):
    """The JSON of --input, every number a float; NaN, infinities, literals
    beyond the float range and true/false (Python's 1 and 0) are malformed."""

    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{what} has NaN or infinite entries")
        return value

    if source is None:
        raise ValueError("missing --input")
    text = source
    if source == "-":
        text = sys.stdin.read()
    elif not source.lstrip().startswith(("{", "[")):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text, parse_float=finite, parse_int=finite, parse_constant=finite)
    nodes = [data]
    while nodes:
        node = nodes.pop()
        if isinstance(node, bool):
            raise ValueError(f"{what} has true/false entries where numbers belong")
        nodes.extend(node.values() if isinstance(node, dict) else
                     node if isinstance(node, list) else ())
    return data


def _default_tol(args) -> dict:
    """The tol= keyword of the library calls: --tol, else $PROJKIT_TOL, else none, so
    the library's default holds; the library call that reads it checks it."""
    env = os.environ.get(_ENV_TOL)
    tol = args.tol if args.tol is not None else float(env) if env else None
    return {} if tol is None else {"tol": tol}


def _parse_domain(data: dict) -> hilbert.ConvexDomain:
    if "polygon" in data:
        return hilbert.Polygon(data["polygon"])
    if "conic" in data:
        return hilbert.ConicOval(data["conic"])
    raise ValueError("domain must carry a 'polygon' or 'conic' entry")


def _parse_boundary(data: dict) -> coords.BoundaryData:
    kind = data["kind"]
    if not isinstance(kind, str):
        raise ValueError(f"boundary kind must be a string, got {kind!r}")
    kind = kind.replace("-", "_")
    if kind == coords.PARABOLIC:
        return coords.BoundaryData.parabolic()
    lam = float(data["lambda"])
    if kind == coords.QUASI_HYPERBOLIC and "tau" not in data:
        return coords.BoundaryData.quasi_hyperbolic(lam)
    return coords.BoundaryData(lam, float(data["tau"]), kind)


def _cmd_invariants(args, out) -> int:
    tol_kw = _default_tol(args)
    flags = [Flag.from_json(item) for item in _load_input(args.input)]
    if len(flags) == 3:
        t = invariants.triple_ratio(*flags, **tol_kw).value
        record = {"T": t, "tau111": invariants.tau111(*flags, **tol_kw)}
    elif len(flags) == 4:
        d = invariants.double_ratios(*flags, **tol_kw)
        sigma1, sigma2 = (invariants.shear(*flags, i, **tol_kw) for i in (1, 2))
        record = {"D1": d.d1, "D2": d.d2, "sigma1": sigma1, "sigma2": sigma2}
    else:
        raise ValueError("expected a JSON array of 3 or 4 flags")
    _emit_record(record, args.format, out)
    return 0


def _cmd_classify(args, out) -> int:
    tol_kw = _default_tol(args)
    entries = _load_input(args.input, "matrix")
    m = np.asarray(entries, dtype=float)
    if m.size != 9:
        raise ValueError("expected a row-major array of 9 numbers")
    c = isometry.classify(m.reshape(3, 3), **tol_kw)
    record = {"kind": c.kind}
    if c.kind == isometry.HYPERBOLIC:
        record["eigenvalues"] = [float(v) for v in c.eigenvalues]
    elif c.kind == isometry.QUASI_HYPERBOLIC:
        record["mu"] = c.mu
        record["nu"] = c.nu
        record["jordan_at_larger"] = c.jordan_at_larger
    elif c.kind == isometry.OTHER and c.eigenvalues is not None:
        record["eigenvalues"] = [
            [float(np.real(v)), float(np.imag(v))] for v in c.eigenvalues
        ]
    _emit_record(record, args.format, out)
    return 0


def _cmd_distance(args, out) -> int:
    data = _load_input(args.input)
    dom = _parse_domain(data["domain"])
    d = hilbert.hilbert_distance(dom, data["x"], data["y"])
    _emit_record({"distance": d}, args.format, out)
    return 0


def _cmd_area(args, out) -> int:
    alphas = [float(a) for a in args.alphas.split(",") if a]
    # compute every row first, so a rejected input leaves stdout empty
    areas = [hilbert.triangle_area_experiment(a, args.truncation, args.cellsize) for a in alphas]
    _require_finite([("area", areas)])
    out.write(f"# config: area alphas={args.alphas} truncation={_fmt(args.truncation)} "
              f"cellsize={_fmt(args.cellsize)}\n")
    out.write("alpha,truncation,cellsize,area\n")
    for alpha, area in zip(alphas, areas):
        out.write(
            f"{_fmt(alpha)},{_fmt(args.truncation)},{_fmt(args.cellsize)},{_fmt(area)}\n"
        )
    return 0


def _parse_goldman(data: dict):
    surface = data["surface"]
    boundaries = [_parse_boundary(b) for b in data["boundaries"]]
    if surface == "pants":
        if len(boundaries) != 3:
            raise ValueError("pants records need 3 boundary entries")
        return coords.PantsGoldman(tuple(boundaries), float(data["s"]), float(data["t"]))
    if surface == "torus":
        if len(boundaries) != 2:
            raise ValueError("torus records need 2 boundary entries (B then C)")
        return coords.TorusGoldman(
            boundaries[0],
            boundaries[1],
            float(data["s"]),
            float(data["t"]),
            float(data.get("u", 0.0)),
            float(data.get("v", 0.0)),
        )
    raise ValueError("surface must be 'pants' or 'torus'")


def _cmd_convert(args, out) -> int:
    data = _load_input(args.input)
    g = _parse_goldman(data)
    if isinstance(g, coords.PantsGoldman):
        surface, pants, gluing = "pants", coords.pants_goldman_to_bd(g), {}
    else:
        bd = coords.torus_goldman_to_bd(g)
        surface, pants, gluing = "torus", bd.pants, {"sigmaC1": bd.sigma_c1, "sigmaC2": bd.sigma_c2}
    record = {"surface": surface, "sigma1": list(pants.sigma1), "sigma2": list(pants.sigma2),
              "tplus": pants.tplus, "tminus": pants.tminus, **gluing}
    _emit_record(record, args.format if args.format != "table" else "json", out)
    return 0


def _cmd_sweep(args, out) -> int:
    data = _load_input(args.input)
    g = _parse_goldman(data)
    # every row in one call, checked before the first line is written
    start, columns, gluing = coords._pinch(g, args.boundary, args.steps)
    _require_finite([*columns.items(), *gluing.items()])
    out.write(f"# config: sweep surface={data['surface']} boundary={args.boundary} steps="
              f"{args.steps} start_lambda={_fmt(start.lam)} start_tau={_fmt(start.tau)}\n")
    names = list(columns)
    out.write(",".join(["step", *names[:3], "kind", *names[3:], *gluing]) + "\n")
    tail = "".join("," + _fmt(x) for x in gluing.values())
    for k, row in enumerate(zip(*columns.values())):
        kind = coords.PARABOLIC if k == args.steps else coords.HYPERBOLIC
        values = [_fmt(v) for v in row]
        out.write(f"{k},{','.join(values[:3])},{kind},{','.join(values[3:])}{tail}\n")
    return 0


def _cmd_bulge(args, out) -> int:
    data = _load_input(args.input)
    v = float(data["v"])
    if "flags" in data:
        flags = [Flag.from_json(item) for item in data["flags"]]
        if len(flags) != 4:
            raise ValueError("bulge needs exactly 4 flags")
        tol_kw = _default_tol(args)
        before = [invariants.shear(*flags, i, **tol_kw) for i in (1, 2)]
        flags[3] = flags[3].transform(isometry.bulging_matrix(v))
        after = [invariants.shear(*flags, i, **tol_kw) for i in (1, 2)]
        record = {
            "sigma1_before": before[0],
            "sigma2_before": before[1],
            "sigma1_after": after[0],
            "sigma2_after": after[1],
            "delta_sigma1": after[0] - before[0],
            "delta_sigma2": after[1] - before[1],
        }
    else:
        s1, s2 = isometry.shear_shift(float(data["sigma1"]), float(data["sigma2"]), v)
        record = {"sigma1": s1, "sigma2": s2}
    _emit_record(record, args.format, out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projkit",
        description="Flag invariants, Hilbert metric and Goldman/Bonahon-Dreyer "
        "coordinates for convex projective surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, options=("input", "format")):
        """A subcommand with the shared options it reads."""
        p = sub.add_parser(name, help=summary)
        if "input" in options:
            p.add_argument("--input", required=True,
                           help="path to a JSON file, inline JSON, or - for stdin")
        if "format" in options:
            p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        if "tol" in options:
            p.add_argument("--tol", type=float, default=None,
                           help=f"tolerance override (also via ${_ENV_TOL})")
        p.set_defaults(func=func)
        return p

    with_tol = ("input", "format", "tol")
    add("invariants", _cmd_invariants, "triangle invariant / double ratios of flags", with_tol)
    add("classify", _cmd_classify, "classify an SL(3,R) element", with_tol)
    add("distance", _cmd_distance, "Hilbert distance between two interior points")

    p = add("area", _cmd_area, "truncated ideal-triangle area experiment (CSV)", ())
    p.add_argument("--alphas", default="0.5,0.25,0.1,0.05,0.01")
    p.add_argument("--truncation", type=float, default=5.0)
    p.add_argument("--cellsize", type=float, default=0.002)

    add("convert", _cmd_convert, "Goldman record -> Bonahon-Dreyer coordinates")

    p = add("sweep", _cmd_sweep, "pinch a boundary to parabolic, emit CSV per step", ("input",))
    p.add_argument("--boundary", type=int, default=1)
    p.add_argument("--steps", type=int, default=10)

    add("bulge", _cmd_bulge, "apply a bulging deformation to shears or flags", with_tol)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ProjKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError, IndexError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: MalformedInput: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
