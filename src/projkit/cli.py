"""Command-line front end for projkit.

Subcommands: invariants, classify, distance, area, convert, sweep, bulge.
All numeric output is printed with 17 significant digits in a fixed field
order, so identical inputs produce byte-identical output.  Domain errors exit
with code 1 and a machine-readable error name on stderr; malformed input
exits with code 2.
"""

import argparse
import json
import math
import os
import sys

from .errors import NonFiniteResult, ProjKitError

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


def _finite(value) -> bool:
    """Whether a number, or every number in nested lists and tuples, is finite."""
    if isinstance(value, (list, tuple)):
        try:  # a flat one, such as a sweep column, in one pass
            return all(map(math.isfinite, value))
        except TypeError:  # an element is a list or tuple
            return all(map(_finite, value))
    return math.isfinite(value)


def _require_finite(items) -> None:
    """Refuse output with a NaN or infinite number before any of it is written;
    items are (name, value) pairs, a value a string or nested numbers."""
    for name, value in items:
        if not isinstance(value, str) and not _finite(value):
            raise NonFiniteResult(f"{name} is not finite")


def _emit_record(record: dict, fmt: str, out) -> None:
    _require_finite(record.items())
    if fmt == "json":
        out.write(_json_text(record) + "\n")
        return
    for key, value in record.items():
        if isinstance(value, (list, tuple)):
            text = " ".join(map(_json_text, value))
        elif isinstance(value, float):
            text = _fmt(value)
        else:
            text = str(value)
        if fmt == "csv":
            # RFC 4180: a value that holds a comma (a list of pairs) is quoted
            out.write(f'{key},"{text}"\n' if "," in text else f"{key},{text}\n")
        else:
            out.write(f"{key} = {text}\n")


def _load_input(source: str, what: str = "input"):
    """The JSON of --input, every number a float; NaN, infinities and literals
    beyond the float range are malformed (``_number`` refuses true and false)."""

    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{what} has NaN or infinite entries")
        return value

    text = source
    if source == "-":
        text = sys.stdin.read()
    elif not source.lstrip().startswith(("{", "[")):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text, parse_float=finite, parse_int=finite, parse_constant=finite)


def _number(value, field: str, nested: bool = False):
    """``value`` of the ``_load_input`` JSON where a number belongs, checked: a float
    (every JSON number is read as one), and with ``nested`` also a list, nested or not,
    of them, entry i named ``field[i]``.  Anything else -- a string, null, an object, or
    a list where one number belongs -- is malformed input, "<field> must be a number"."""
    if nested and type(value) is list:
        for i, item in enumerate(value):
            _number(item, f"{field}[{i}]", True)
    elif type(value) is not float:
        raise ValueError(f"{field} must be a number")
    return value


def _flags(items) -> list:
    """The flags of a JSON list of ``{"point": [...], "line": [[...], [...]]}``."""
    from .rp2 import Flag

    if type(items) is not list:
        raise ValueError("flags must be a JSON array of flags")
    for i, item in enumerate(items):
        for key in ("point", "line"):
            _number(item[key], f"flags[{i}].{key}", nested=True)
    return [Flag.from_json(item) for item in items]


def _default_tol(args) -> dict:
    """The tol= keyword of the library calls: --tol, else $PROJKIT_TOL, else none, so
    the library's default holds; the library call that reads it checks it."""
    env = os.environ.get(_ENV_TOL)
    tol = args.tol if args.tol is not None else float(env) if env else None
    return {} if tol is None else {"tol": tol}


def _parse_domain(data: dict):
    from . import hilbert

    if "polygon" in data:
        return hilbert.Polygon(_number(data["polygon"], "polygon", nested=True))
    if "conic" in data:
        return hilbert.ConicOval(_number(data["conic"], "conic", nested=True))
    raise ValueError("domain must carry a 'polygon' or 'conic' entry")


def _parse_boundary(data: dict, field: str):
    from . import coords

    kind = data["kind"]
    if not isinstance(kind, str):
        raise ValueError(f"boundary kind must be a string, got {kind!r}")
    kind = kind.replace("-", "_")
    if kind == coords.PARABOLIC:
        return coords.BoundaryData.parabolic()
    lam = _number(data["lambda"], f"{field}.lambda")
    if kind == coords.QUASI_HYPERBOLIC and "tau" not in data:
        return coords.BoundaryData.quasi_hyperbolic(lam)
    return coords.BoundaryData(lam, _number(data["tau"], f"{field}.tau"), kind)


def _cmd_invariants(args, out) -> None:
    from . import invariants

    tol_kw = _default_tol(args)
    flags = _flags(_load_input(args.input))
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


def _cmd_classify(args, out) -> None:
    from . import isometry

    tol_kw = _default_tol(args)
    m = _number(_load_input(args.input, "matrix"), "matrix", nested=True)
    if type(m) is list and len(m) == 9:  # row-major; classify takes three rows of 3
        m = [m[0:3], m[3:6], m[6:9]]
    c = isometry.classify(m, **tol_kw)
    record = {"kind": c.kind}
    if c.kind == isometry.HYPERBOLIC:
        record["eigenvalues"] = [float(v) for v in c.eigenvalues]
    elif c.kind == isometry.QUASI_HYPERBOLIC:
        record["mu"] = c.mu
        record["nu"] = c.nu
        record["jordan_at_larger"] = c.jordan_at_larger
    elif c.kind == isometry.OTHER and c.eigenvalues is not None:
        record["eigenvalues"] = [[v.real, v.imag] for v in c.eigenvalues]
    _emit_record(record, args.format, out)


def _cmd_distance(args, out) -> None:
    from . import hilbert

    data = _load_input(args.input)
    dom = _parse_domain(data["domain"])
    x, y = (_number(data[key], key, nested=True) for key in ("x", "y"))
    d = hilbert.hilbert_distance(dom, x, y)
    _emit_record({"distance": d}, args.format, out)


def _cmd_area(args, out) -> None:
    from . import hilbert

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


def _parse_goldman(data: dict):
    from . import coords

    surface = data["surface"]
    boundaries = [_parse_boundary(b, f"boundaries[{i}]") for i, b in enumerate(data["boundaries"])]
    if surface == "pants":
        return coords.PantsGoldman(tuple(boundaries), _number(data["s"], "s"),
                                   _number(data["t"], "t"))
    if surface == "torus":
        if len(boundaries) != 2:
            raise ValueError("torus records need 2 boundary entries (B then C)")
        return coords.TorusGoldman(
            boundaries[0], boundaries[1], _number(data["s"], "s"), _number(data["t"], "t"),
            _number(data.get("u", 0.0), "u"), _number(data.get("v", 0.0), "v"))
    raise ValueError("surface must be 'pants' or 'torus'")


def _cmd_convert(args, out) -> None:
    from . import coords

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


def _cmd_sweep(args, out) -> None:
    from . import coords

    data = _load_input(args.input)
    g = _parse_goldman(data)
    # every row in one call, checked before the first line is written
    start, columns, gluing = coords._pinch(g, args.boundary, args.steps)
    _require_finite([*columns.items(), *gluing.items()])
    out.write(f"# config: sweep surface={data['surface']} boundary={args.boundary} steps="
              f"{args.steps} start_lambda={_fmt(start.lam)} start_tau={_fmt(start.tau)}\n")
    names = list(columns)
    out.write(",".join(["step", *names[:3], "kind", *names[3:], *gluing]) + "\n")
    # one row template per kind, the fixed gluing shears baked in; "%.17g" of a float
    # is _fmt's text
    tail = "".join("," + _fmt(x) for x in gluing.values())
    row = "%d" + ",%.17g" * 3 + ",{}" + ",%.17g" * (len(names) - 3) + tail + "\n"
    hyperbolic, parabolic = row.format(coords.HYPERBOLIC), row.format(coords.PARABOLIC)
    rows = list(zip(range(args.steps + 1), *columns.values()))
    out.write("".join([hyperbolic % r for r in rows[:-1]]) + parabolic % rows[-1])


def _cmd_bulge(args, out) -> None:
    from . import isometry

    data = _load_input(args.input)
    v = _number(data["v"], "v")
    if "flags" in data:
        from . import invariants

        flags = _flags(data["flags"])
        if len(flags) != 4:
            raise ValueError("bulge needs exactly 4 flags")
        tol_kw = _default_tol(args)
        before = [invariants.shear(*flags, i, **tol_kw) for i in (1, 2)]
        # bulging_matrix(v), as the rows of floats Flag.transform reads without numpy
        a, b, c = isometry._bulging_diagonal(v)
        flags[3] = flags[3].transform(((a, 0.0, 0.0), (0.0, b, 0.0), (0.0, 0.0, c)))
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
        s1, s2 = isometry.shear_shift(_number(data["sigma1"], "sigma1"),
                                      _number(data["sigma2"], "sigma2"), v)
        record = {"sigma1": s1, "sigma2": s2}
    _emit_record(record, args.format, out)


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
        args.func(args, sys.stdout)
    except ProjKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError, IndexError, OSError) as exc:
        print(f"error: MalformedInput: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
