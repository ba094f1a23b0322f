"""CLI: dispatch, exit codes, error names, deterministic output."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projkit as pk
from projkit import cli


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "projkit", *args],
        capture_output=True,
        text=True,
        env=env,
    )


ALL_PARABOLIC = json.dumps(
    {
        "surface": "pants",
        "boundaries": [{"kind": "parabolic"}] * 3,
        "s": 2,
        "t": 1,
    }
)

TORUS = json.dumps(
    {
        "surface": "torus",
        "boundaries": [
            {"kind": "parabolic"},
            {"kind": "hyperbolic", "lambda": 0.2, "tau": 5},
        ],
        "s": 2,
        "t": 1,
        "u": 1,
        "v": 0.5,
    }
)


ROTATION = "[0.1,-0.99498743710661997,0,0.99498743710661997,0.1,0,0,0,1]"


def triangle_flags_json(alpha):
    return json.dumps([f.to_json() for f in __import__("conftest").standard_triangle_flags(alpha)])


class TestConvert:
    def test_all_parabolic_record(self):
        result = run_cli("convert", "--input", ALL_PARABOLIC)
        assert result.returncode == 0
        record = json.loads(result.stdout)
        assert record["tplus"] == pytest.approx(math.log(3.0), rel=1e-12)
        assert record["sigma1"] == pytest.approx([math.log(2.0)] * 3)

    def test_torus_record(self):
        result = run_cli("convert", "--input", TORUS)
        record = json.loads(result.stdout)
        assert record["sigmaC1"] == pytest.approx(-0.5)
        assert record["sigmaC2"] == pytest.approx(2.5)

    def test_byte_identical_runs(self):
        first = run_cli("convert", "--input", TORUS)
        second = run_cli("convert", "--input", TORUS)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


class TestClassify:
    def test_parabolic_normal_form(self):
        result = run_cli("classify", "--input", "[1,1,0,0,1,1,0,0,1]")
        assert result.returncode == 0
        assert "parabolic" in result.stdout

    def test_json_format(self):
        result = run_cli(
            "classify", "--input", "[2,1,0,0,2,0,0,0,0.25]", "--format", "json"
        )
        record = json.loads(result.stdout)
        assert record["kind"] == "quasi_hyperbolic"
        assert record["mu"] == pytest.approx(2.0)

    def test_not_unimodular_exit_code(self):
        result = run_cli("classify", "--input", "[2,0,0,0,1,0,0,0,1]")
        assert result.returncode == 1
        assert "NotUnimodular" in result.stderr

    @pytest.mark.parametrize("entries, code", [
        ("[2,0,0,0,1,0,0,0,0.5]", 0), ("[[2,0,0],[0,1,0],[0,0,0.5]]", 0),
        ("[[2,0,0,0,1,0,0,0,0.5]]", 2), ("[[2],[0],[0],[0],[1],[0],[0],[0],[0.5]]", 2),
        ("[[[2,0,0]],[[0,1,0]],[[0,0,0.5]]]", 2), ("[2,0,0,0,1,0,0,0]", 2),
        ('{"matrix": [2,0,0,0,1,0,0,0,0.5]}', 2), ('[2,0,0,0,"x",0,0,0,0.5]', 2),
        ('[[2,0,0],[0,"x",0],[0,0,0.5]]', 2),
    ], ids=["flat", "rows", "one-row", "column", "3x1x3", "eight", "dict", "string",
            "string-in-rows"])
    def test_input_shapes(self, entries, code):
        """A flat list of 9 numbers (row-major) and three rows of 3 are the matrix; any
        other shape is malformed (exit 2), as are 8 entries, a dict and a string entry.
        The other shapes of 9 numbers went through numpy's reshape and exited 0."""
        result = run_cli("classify", "--input", entries)
        assert result.returncode == code
        assert "Traceback" not in result.stderr
        if code:
            assert result.stdout == ""
            assert result.stderr.startswith("error: MalformedInput:")
        else:
            assert result.stdout == "kind = hyperbolic\neigenvalues = 2 1 0.5\n"

    @pytest.mark.parametrize("fmt, sep, quote", [("table", " = ", ""), ("csv", ",", '"')],
                             ids=["table", "csv"])
    def test_complex_pair_digits(self, fmt, sep, quote):
        """A rotation's complex pairs print 17 significant digits in table and csv output,
        each pair as in JSON output: they went through str, as [0.1, 0.99498743710662].
        The csv value holds commas, so it is quoted (RFC 4180)."""
        result = run_cli("classify", "--input", ROTATION, "--format", fmt)
        assert result.returncode == 0
        assert result.stdout == (
            f"kind{sep}other\neigenvalues{sep}{quote}[0.10000000000000001, 0.99498743710661997] "
            f"[0.10000000000000001, -0.99498743710661997] [1, 0]{quote}\n")

    def test_non_finite_matrix_exit_2(self):
        # rejected before any arithmetic: one error line, no numpy warning
        for entries in ("[NaN,0,0,0,1,0,0,0,1]", "[1,0,0,0,-Infinity,0,0,0,1]"):
            result = run_cli("classify", "--input", entries)
            assert result.returncode == 2
            assert result.stdout == ""
            assert result.stderr == "error: MalformedInput: matrix has NaN or infinite entries\n"


class TestErrors:
    def test_malformed_json_exit_2(self):
        result = run_cli("convert", "--input", "{not json")
        assert result.returncode == 2
        assert "MalformedInput" in result.stderr

    def test_missing_field_exit_2(self):
        result = run_cli("convert", "--input", '{"surface": "pants"}')
        assert result.returncode == 2

    def test_unknown_flag_exit_2(self):
        result = run_cli("classify", "--frobnicate", "1")
        assert result.returncode == 2

    def test_domain_error_names_are_distinct(self):
        outside = run_cli(
            "distance",
            "--input",
            '{"domain": {"conic": [1,0,1,0,0,-1]}, "x": [2,0], "y": [0,0]}',
        )
        degenerate = run_cli(
            "invariants",
            "--input",
            json.dumps(
                [
                    {"point": [0, 0.5, 1], "line": [[0, 0, 1], [0, 1, 1]]},
                    {"point": [0.5, 0.5, 1], "line": [[0, 1, 1], [1, 0, 1]]},
                    {"point": [0, 0, 1], "line": [[0, 0, 1], [1, 0, 1]]},
                ]
            ),
        )
        assert outside.returncode == degenerate.returncode == 1
        assert "PointOutsideDomain" in outside.stderr
        assert "NonGenericFlags" in degenerate.stderr


class TestInvariants:
    def test_triple(self):
        result = run_cli("invariants", "--input", triangle_flags_json(0.25), "--format", "json")
        record = json.loads(result.stdout)
        assert record["T"] == pytest.approx(3.0, rel=1e-12)
        assert record["tau111"] == pytest.approx(math.log(3.0), rel=1e-12)

    def test_quadruple(self):
        flags = [f.to_json() for f in pk.bulging_configuration(1.0, 1.0)]
        result = run_cli("invariants", "--input", json.dumps(flags), "--format", "json")
        record = json.loads(result.stdout)
        assert record["D1"] == pytest.approx(1.0, rel=1e-12)
        assert record["sigma2"] == pytest.approx(0.0, abs=1e-12)

    def test_env_tolerance_override(self):
        import os

        env = dict(os.environ, PROJKIT_TOL="0.5")
        # an extreme tolerance declares even generic flags degenerate
        result = run_cli("invariants", "--input", triangle_flags_json(0.25), env=env)
        assert result.returncode == 1
        assert "NonGenericFlags" in result.stderr

    def test_nonpositive_tolerance_rejected(self):
        import os

        flags = triangle_flags_json(0.25)
        results = [
            run_cli("invariants", "--input", flags, "--tol", tol) for tol in ("-1", "nan", "inf")
        ]
        results.append(
            run_cli("invariants", "--input", flags, env=dict(os.environ, PROJKIT_TOL="nan"))
        )
        for result in results:
            assert result.returncode == 2
            assert result.stdout == ""
            assert "Traceback" not in result.stderr


class TestDistance:
    def test_conic(self):
        result = run_cli(
            "distance",
            "--input",
            '{"domain": {"conic": [1,0,1,0,0,-1]}, "x": [0,0], "y": [0.5,0]}',
            "--format",
            "json",
        )
        assert json.loads(result.stdout)["distance"] == pytest.approx(
            0.5 * math.log(3.0), rel=1e-12
        )

    def test_polygon(self):
        result = run_cli(
            "distance",
            "--input",
            '{"domain": {"polygon": [[-1,-1],[1,-1],[1,1],[-1,1]]}, "x": [0,0], "y": [0,0.5]}',
            "--format",
            "json",
        )
        assert json.loads(result.stdout)["distance"] == pytest.approx(
            0.5 * math.log(3.0), rel=1e-12
        )

    def test_point_within_rounding_of_the_boundary(self):
        """y within rounding of the unit circle: its containment test said interior and
        the chord solve put the exit at y, so the distance divided by zero (a traceback)."""
        record = {"domain": {"conic": [1, 0, 1, 0, 0, -1]},
                  "x": [-0.34026108536292143, 0.23457715140921453],
                  "y": [0.7556028436344767, 0.6550300319004406]}
        code, out, err = run_main("distance", "--input", json.dumps(record))
        assert (code, out) == (1, "")
        assert err == ("error: PointOutsideDomain: point y = "
                       "[0.7556028436344767, 0.6550300319004406] is not interior\n")

    def test_polygon_near_the_float_range(self):
        """A vertex at 1e308: the edge normals overflowed, x was refused and numpy
        warnings reached stderr."""
        result = run_cli(
            "distance",
            "--input",
            '{"domain": {"polygon": [[-1,-1],[1e308,-1],[1,1],[-1,1]]}, "x": [0,0], "y": [0,0.5]}',
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "distance = 0.54930614433405489\n"

    def test_conic_centre_free_of_blas(self):
        """The centre came from LAPACK's solve: this record printed 0.12551180203587803
        with OpenBLAS's SkylakeX kernel and 0.125511802035878 with its Haswell and
        SandyBridge kernels.  Cramer's rule on floats gives the latter everywhere, 0.58 ulp
        from the exact 0.12551180203587798..."""
        record = {"domain": {"conic": [2.309, -1.149, 1.102, -1.909, -1.611, -8.26]},
                  "x": [0, 0], "y": [0.25, 0.125]}
        assert run_main("distance", "--input", json.dumps(record)) == (
            0, "distance = 0.125511802035878\n", "")

    def test_distance_past_the_cross_ratio_overflow(self):
        """The cross ratio overflowed and the distance exited 1 with NonFiniteResult."""
        record = {"domain": {"polygon": [[-1, -1], [1e308, -1], [1, 1], [-1, 1]]},
                  "x": [0.18240924359246036, 0.18240924359246036],
                  "y": [1.4366681146128056e307, 0.6881984436753196]}
        code, out, err = run_main("distance", "--input", json.dumps(record))
        assert (code, err) == (0, "")
        assert float(out.removeprefix("distance = ")) == pytest.approx(
            355.298697288858688913370002956, rel=1e-14)

    @pytest.mark.parametrize("d", [1.8961503816218355e+154, 2.6815615859885194e+154])
    def test_conic_whose_minimum_overflows(self, d):
        """q_min = f + (d, e) . center / 2 overflows: the conic is refused with one error
        line, and no numpy overflow warning on stderr before it."""
        record = {"domain": {"conic": [1, 0, 1, d, 0, -1]}, "x": [0, 0], "y": [0.5, 0]}
        result = run_cli("distance", "--input", json.dumps(record))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: MalformedInput: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("conic, y, expected", [
        ([1, 0, 1, 0, 0, -1], 1e-160, 1e-160),
        ([1, 0, 1, 0, 0, -1], 1e-300, 1e-300),
        ([1e-170, 0, 1e-170, 0, 0, -1e-170], 0.5, 0.5493061443340549),
    ])
    def test_extreme_scales(self, conic, y, expected):
        """Tiny steps printed 9.9999443357584898e-161 or exited 1 (NonFiniteResult), and
        the conic scaled by 1e-170 exited 2 as "not an oval"."""
        record = {"domain": {"conic": conic}, "x": [0, 0], "y": [y, 0]}
        assert run_main("distance", "--input", json.dumps(record)) == (
            0, f"distance = {expected:.17g}\n", "")


HYPERBOLIC_TORUS = json.dumps(
    {
        "surface": "torus",
        "boundaries": [
            {"kind": "hyperbolic", "lambda": 0.3, "tau": 4},
            {"kind": "hyperbolic", "lambda": 0.2, "tau": 5},
        ],
        "s": 2,
        "t": 1,
        "u": 1,
        "v": 0.5,
    }
)


class TestSweepAreaBulge:
    def test_sweep_csv_shape(self):
        result = run_cli("sweep", "--input", HYPERBOLIC_TORUS, "--steps", "4")
        lines = result.stdout.strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1].startswith("step,frac,lambda,tau,kind,")
        assert len(lines) == 2 + 5
        last = lines[-1].split(",")
        assert last[4] == "parabolic"
        assert float(last[2]) == 1.0 and float(last[3]) == 2.0

    def test_sweep_from_huge_tau(self):
        """tau = 1e160 squares past the float range; the sweep runs in log space.
        It exited 2 (a negative mu from tau - sqrt(tau^2 - 4/lambda))."""
        record = json.dumps({
            "surface": "pants", "s": 1, "t": 1,
            "boundaries": [{"kind": "hyperbolic", "lambda": 0.5, "tau": 1e160},
                           {"kind": "parabolic"}, {"kind": "parabolic"}],
        })
        for command in (("convert",), ("sweep", "--steps", "4")):
            result = run_cli(*command, "--input", record)
            assert result.returncode == 0, result.stderr
            assert "inf" not in result.stdout and "nan" not in result.stdout
        rows = result.stdout.strip().splitlines()[2:]
        taus = [float(row.split(",")[3]) for row in rows]
        assert taus[0] == pytest.approx(1e160, rel=1e-13) and taus[-1] == 2.0

    def test_sweep_from_the_largest_tau(self):
        """tau = 1.7976931348623157e308, the largest float, which convert accepts: row 0
        prints the record's tau and every row is finite.  lambda mu is subnormal there
        (~5.6e-309), and the sweep exited 1 ("tau is not finite") when 1 / (lambda mu)
        overflowed."""
        record = json.dumps({
            "surface": "pants", "s": 1, "t": 1,
            "boundaries": [{"kind": "hyperbolic", "lambda": 0.5, "tau": sys.float_info.max},
                           {"kind": "parabolic"}, {"kind": "parabolic"}],
        })
        assert run_main("convert", "--input", record)[0] == 0
        code, out, err = run_main("sweep", "--input", record, "--steps", "2")
        assert (code, err) == (0, "")
        taus = [row.split(",")[3] for row in out.splitlines()[2:]]
        assert taus[0] == "1.7976931348623157e+308" and taus[-1] == "2"
        assert all(math.isfinite(float(tau)) for tau in taus)

    def test_sweep_rejects_gluing_curve(self):
        result = run_cli("sweep", "--input", HYPERBOLIC_TORUS, "--boundary", "2")
        assert result.returncode == 2

    def test_area_csv(self):
        result = run_cli(
            "area", "--alphas", "0.5,0.25", "--truncation", "2", "--cellsize", "0.02"
        )
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "# config: area alphas=0.5,0.25 truncation=2 cellsize=0.02"
        assert lines[1] == "alpha,truncation,cellsize,area"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2
        assert float(rows[1][3]) > float(rows[0][3])

    def test_area_defaults_golden(self):
        """The five default areas, from the closed-form edge sum: each within 6.7e-16 of
        the 60-digit reference in tests/triangle_areas.json.  The quadrature's digits,
        1.2918569293390896 .. 4.0544537842594526, were 1e-10 .. 3.8e-8 off."""
        result = run_cli("area")
        assert result.returncode == 0
        assert result.stdout == (
            "# config: area alphas=0.5,0.25,0.1,0.05,0.01 truncation=5 cellsize=0.002\n"
            "alpha,truncation,cellsize,area\n"
            "0.5,5,0.002,1.2918568801601551\n"
            "0.25,5,0.002,1.4498173423798784\n"
            "0.10000000000000001,5,0.002,1.9236981767962731\n"
            "0.050000000000000003,5,0.002,2.4264643790916738\n"
            "0.01,5,0.002,4.0544537804729179\n"
        )

    def test_area_at_a_subnormal_truncation(self):
        """A radius of 1e-310 gives the area 0, which pi R^2 underflows to; it was inf,
        exit 1."""
        assert run_main("area", "--alphas", "0.25", "--truncation", "1e-310") == (0, (
            "# config: area alphas=0.25 truncation=9.9999999999999694e-311 cellsize=0.002\n"
            "alpha,truncation,cellsize,area\n"
            "0.25,9.9999999999999694e-311,0.002,0\n"), "")

    @pytest.mark.parametrize(
        "args",
        [
            ("--truncation", "nan"),
            ("--truncation", "inf"),
            ("--truncation", "0"),
            ("--cellsize", "inf"),
            ("--cellsize", "-0.01"),
            ("--alphas", "0.5,nan"),
            ("--samples", "0"),
            ("--parallel",),
            ("--format", "json"),
            ("--tol", "5"),
        ],
    )
    def test_area_bad_input_exit_2(self, args):
        result = run_cli("area", "--alphas", "0.5", *args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("sweep", "--input", HYPERBOLIC_TORUS, "--format", "json"),
            ("sweep", "--input", HYPERBOLIC_TORUS, "--tol", "1e-9"),
            ("convert", "--input", ALL_PARABOLIC, "--tol", "1e-9"),
            ("distance", "--input", '{"domain": {"conic": [1,0,1,0,0,-1]}, "x": [0,0], '
             '"y": [0.5,0]}', "--tol", "1e-9"),
        ],
    )
    def test_unread_option_exit_2(self, args):
        """Options a subcommand does not read are unknown arguments."""
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr

    def test_bulge_scalar(self):
        result = run_cli(
            "bulge", "--input", '{"sigma1": 0.3, "sigma2": -0.2, "v": 0.1}',
            "--format", "json",
        )
        record = json.loads(result.stdout)
        assert record["sigma1"] == pytest.approx(0.0, abs=1e-15)
        assert record["sigma2"] == pytest.approx(0.1, rel=1e-12)

    def test_bulge_flags(self):
        flags = [f.to_json() for f in pk.bulging_configuration(1.0, 1.0)]
        result = run_cli(
            "bulge",
            "--input",
            json.dumps({"flags": flags, "v": 0.2}),
            "--format",
            "json",
        )
        record = json.loads(result.stdout)
        assert record["delta_sigma1"] == pytest.approx(-0.6, abs=1e-12)
        assert record["delta_sigma2"] == pytest.approx(0.6, abs=1e-12)


# ---------------------------------------------------------------------------
# each command loads only the layers it calls, numpy only where arrays are, and none of
# the stdlib modules that cost a scalar command most of its start: dataclasses, the
# inspect it imports, and typing

# run with -S, so that no site .pth preloads typing; sys.argv[1] holds the directories
# of projkit and numpy
_HEAVY_IN_CHILD = """
import json, sys
sys.path[:0] = json.loads(sys.argv[1])
HEAVY = ("dataclasses", "inspect", "typing")

def heavy():
    return [m for m in HEAVY if m in sys.modules]
"""

_IN_CHILD = _HEAVY_IN_CHILD + """
import contextlib, io, runpy

def loaded():
    names = sorted(m[8:] for m in sys.modules if m.startswith("projkit."))
    return [names, "numpy" in sys.modules, heavy()]

import projkit
report = [[None, *loaded()]]
for argv in json.loads(sys.argv[2]):
    for name in [m for m in sys.modules if m == "projkit" or m.startswith("projkit.")]:
        del sys.modules[name]  # each command starts from an unimported projkit
    sys.argv = ["projkit", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("projkit", run_name="__main__")
        except SystemExit as exc:
            report.append([exc.code, *loaded()])
print(json.dumps(report))
"""


def _in_bare_child(code: str, *args) -> list:
    """The JSON that ``code`` prints in a child without site (-S), projkit and numpy on
    its path."""
    import numpy

    paths = [str(Path(m.__file__).parents[1]) for m in (pk, numpy)]
    result = subprocess.run([sys.executable, "-S", "-c", code, json.dumps(paths), *args],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def modules_in_child(*argvs):
    """[exit code, projkit submodules loaded, numpy loaded, those of dataclasses, inspect
    and typing loaded] for ``import projkit`` (exit code None), then for
    ``python -m projkit`` on each argv in turn, in one child that unloads projkit between
    commands (numpy, once loaded, stays)."""
    return _in_bare_child(_IN_CHILD, json.dumps(argvs))


_QUERIES_IN_CHILD = _HEAVY_IN_CHILD + """
import projkit as pk
tri = pk.Polygon([[0, 0], [1, 0], [0, 1]])
conic = pk.ConicOval([2.309, -1.149, 1.102, -1.909, -1.611, -8.26])
pk.hilbert_distance(conic, [0, 0], [0.25, 0.125]), pk.finsler_norm(tri, [0.2, 0.2], [1, 0])
pk.busemann_area(tri, pk.Polygon([[0.1, 0.1], [0.5, 0.1], [0.1, 0.5]]), 0.01)
pk.busemann_area(pk.ConicOval.unit_circle(), pk.ConicOval.disk((0, 0), 0.5), 0.005)
pk.busemann_area(conic, pk.Polygon([[0, 0], [1.5, 0.3], [1.4, 2], [0.2, 1.6]]), 0.01)
before = "numpy" in sys.modules
pk.chord(conic, [0, 0], [0.25, 0.125])
print(json.dumps([before, "numpy" in sys.modules]))
"""


def test_scalar_commands_start_without_numpy():
    """import projkit loads errors alone; each command loads only the layers it calls, and
    convert, invariants, bulge (shears and flags), classify (each kind, a complex pair,
    three rows of 3 and a NotUnimodular refusal), area, sweep, distance (a conic and a
    polygon) and a malformed-JSON refusal leave numpy unloaded.  No command loads
    dataclasses, inspect or typing.  In the library, domains, distances, norms, the area
    of a polygon in a triangle and the areas in a conic (a disk in a disk, a quadrilateral
    in an ellipse) leave numpy unloaded; chord, whose endpoints are arrays, loads it,
    which shows that the check can fail."""
    flags = json.dumps([f.to_json() for f in pk.bulging_configuration(1.0, 1.0)])
    classify, coords = ["errors", "isometry"], ["coords", "errors"]
    invariants, hilbert = ["errors", "invariants", "rp2"], ["errors", "hilbert"]
    cases = [(("convert", "--input", ALL_PARABOLIC), 0, coords),
             (("convert", "--input", TORUS), 0, coords),
             (("invariants", "--input", triangle_flags_json(0.25)), 0, invariants),
             (("invariants", "--input", flags), 0, invariants),
             (("bulge", "--input", '{"sigma1": 0.3, "sigma2": -0.2, "v": 0.1}'), 0, classify),
             (("bulge", "--input", '{"sigma1": 0, "sigma2": 0, "v": 1e308}'), 1, classify),
             (("bulge", "--input", f'{{"flags": {flags}, "v": 0.2}}'), 0,
              ["errors", "invariants", "isometry", "rp2"]),
             (("area", "--alphas", "0.5", "--truncation", "2", "--cellsize", "0.05"), 0, hilbert),
             (("sweep", "--input", HYPERBOLIC_TORUS, "--steps", "2"), 0, coords),
             (("distance", "--input", '{"domain": {"conic": [1,0,1,0,0,-1]}, '
               '"x": [0, 0], "y": [0.5, 0]}'), 0, hilbert),
             (("distance", "--input", '{"domain": {"polygon": [[0,0],[1,0],[0,1]]}, '
               '"x": [0.2, 0.2], "y": [0.3, 0.3]}'), 0, hilbert),
             (("classify", "--input", "[1, 2,"), 2, classify)]
    cases += [(("classify", "--input", m), code, classify) for m, code in (
        ("[2,0,0,0,1,0,0,0,0.5]", 0), ("[2,1,0,0,2,0,0,0,0.25]", 0), ("[1,1,0,0,1,1,0,0,1]", 0),
        ("[0,-1,0,1,0,0,0,0,1]", 0), ("[[2,1,0],[0,2,0],[0,0,0.25]]", 0),
        ("[2,0,0,0,1,0,0,0,1]", 1))]
    expected = [[None, ["errors"], False, []]]
    expected += [[code, ["cli", *layers], False, []] for _, code, layers in cases]
    assert modules_in_child(*(argv for argv, _, _ in cases)) == expected
    assert _in_bare_child(_QUERIES_IN_CHILD) == [False, True]


_NAMES_IN_CHILD = """
import json, sys

def fresh():
    for name in [m for m in sys.modules if m == "projkit" or m.startswith("projkit.")]:
        del sys.modules[name]
    import projkit
    return projkit

star = {}
exec("from projkit import *", star)
del star["__builtins__"]
names = [dir(fresh()), sorted(star)]
pk = fresh()
pk.Flag
print(json.dumps([*names, sorted(vars(pk))]))
"""

# the package namespace once bound: what the eagerly importing package held (its six
# layers, the public names, __version__ and the module dunders), plus the lazy binding
_LAYER_MODULES = ["coords", "errors", "hilbert", "invariants", "isometry", "rp2"]
_DUNDERS = ["__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
            "__package__", "__path__", "__spec__", "__version__"]


def test_lazy_namespace_names():
    """dir(projkit), ``from projkit import *`` and vars(projkit) after the first use of a
    public name each bind every layer and give the names the package held when it
    imported them all, each in a fresh import."""
    from test_api import PUBLIC_NAMES

    public = sorted(PUBLIC_NAMES + _LAYER_MODULES)
    namespace = sorted(public + _DUNDERS + ["__dir__", "__getattr__", "_bind"])
    result = subprocess.run([sys.executable, "-c", _NAMES_IN_CHILD], capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [namespace, public, namespace]


def test_layer_attributes_load_one_layer():
    """A layer named as an attribute loads that layer and what it imports; a name that
    is neither a layer nor public is an AttributeError."""
    code = ("import sys, projkit\n"
            "projkit.hilbert\n"
            "print(sorted(m for m in sys.modules if m.startswith('projkit.')))\n"
            "print(hasattr(projkit, 'no_such_name'), 'projkit.coords' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['projkit.errors', 'projkit.hilbert']\nFalse True\n"


@pytest.mark.parametrize("argv, layers", [
    (("classify", "--input", "[1,1,0,0,1,1,0,0,1]"), {"cli", "errors", "isometry"}),
    (("convert", "--input", ALL_PARABOLIC), {"cli", "coords", "errors"}),
], ids=["classify", "convert"])
def test_importtime_lists_the_layers(argv, layers):
    """python -X importtime reports the layers a command loads through the package's
    __getattr__, and no others; loaded by importlib.import_module, they were missing from
    its report.  convert reads its boundary kinds from errors, without the classify layer."""
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "projkit", *argv],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    listed = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
              if line.startswith("import time:")}
    assert {name for name in listed if name.startswith("projkit.")} == {
        f"projkit.{layer}" for layer in layers}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(-3.0, 3.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0),
       st.sampled_from(["json", "table"]))
def test_bulged_flag_is_bulging_matrix_image(v, y, x, fmt):
    """The CLI bulges the fourth flag by the rows of bulging_matrix(v) as floats: its
    output is that of flags[3].transform(bulging_matrix(v)), digit for digit."""
    flags = list(pk.bulging_configuration(y, x))
    before = [pk.shear(*flags, i) for i in (1, 2)]
    flags[3] = flags[3].transform(pk.bulging_matrix(v))
    after = [pk.shear(*flags, i) for i in (1, 2)]
    out = io.StringIO()
    cli._emit_record({"sigma1_before": before[0], "sigma2_before": before[1],
                      "sigma1_after": after[0], "sigma2_after": after[1],
                      "delta_sigma1": after[0] - before[0],
                      "delta_sigma2": after[1] - before[1]}, fmt, out)
    record = {"flags": [f.to_json() for f in pk.bulging_configuration(y, x)], "v": v}
    assert run_main("bulge", "--input", json.dumps(record), "--format", fmt) == (
        0, out.getvalue(), "")


# ---------------------------------------------------------------------------
# the exit-code contract: 0 with finite numbers, 1 for a named domain error,
# 2 for malformed input; stdout stays empty unless the exit code is 0


def run_main(*argv):
    """cli.main in this process, with captured streams: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects an option value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


NEAR_DOUBLE_ROOT = json.dumps({
    "surface": "pants", "s": 1, "t": 1,
    "boundaries": [{"kind": "hyperbolic", "lambda": 0.5, "tau": 2.8284271385627746},
                   {"kind": "parabolic"}, {"kind": "parabolic"}],
})

MIXED_PANTS = json.dumps({
    "surface": "pants", "s": 0.7, "t": 3.1,
    "boundaries": [{"kind": "hyperbolic", "lambda": 0.2, "tau": 5},
                   {"kind": "quasi_hyperbolic", "lambda": 0.3},
                   {"kind": "hyperbolic", "lambda": 0.4, "tau": 3.5}],
})

# A2 parabolic and A3 quasi-hyperbolic: neither can be pinched
PARABOLIC_QUASI_PANTS = json.dumps({
    "surface": "pants", "s": 0.7, "t": 3.1,
    "boundaries": [{"kind": "hyperbolic", "lambda": 0.2, "tau": 5}, {"kind": "parabolic"},
                   {"kind": "quasi_hyperbolic", "lambda": 0.3}],
})


@pytest.mark.parametrize("record, argv, expected", [
    (MIXED_PANTS, (),
     '{"surface": "pants", "sigma1": [-0.61208775582172792, -0.69404573277244519, '
     '-0.70324853421870503], "sigma2": [0.70324853421870515, -0.30420297605242719, '
     '-0.26837791734676131], "tplus": 0.15957293145214324, "tminus": 0.76592060186827138}\n'),
    (HYPERBOLIC_TORUS, ("--format", "csv"),
     "surface,torus\n"
     "sigma1,0.0092028014462599561 0.2596398173146629 0.41466790955442401\n"
     "sigma2,-1.3770915596736306 -0.97162645156546645 -1.1266545438052278\n"
     "tplus,1.7781753083620977\n"
     "tminus,-0.96268200712951835\n"
     "sigmaC1,-0.5\n"
     "sigmaC2,2.5\n"),
    (ALL_PARABOLIC, (),
     '{"surface": "pants", "sigma1": [0.69314718055994529, 0.69314718055994529, '
     '0.69314718055994529], "sigma2": [-0.69314718055994529, -0.69314718055994529, '
     '-0.69314718055994529], "tplus": 1.0986122886681096, "tminus": -1.0986122886681096}\n'),
], ids=["mixed-pants", "torus-csv", "all-parabolic"])
def test_convert_golden(record, argv, expected):
    """Every printed digit of three conversions stays fixed."""
    assert run_main("convert", "--input", record, *argv) == (0, expected, "")


@pytest.mark.parametrize("record, argv, digest", [
    (MIXED_PANTS, ("--boundary", "3"),
     "be9023ab7c12f2cc4d2597982f1fb37127903ee42f84114028915fe8e7a194d3"),
    (HYPERBOLIC_TORUS, (), "47340d2292190a75e73c0bd3305bab97ee865a9c3ebfff8e0d63013e6bf290b1"),
], ids=["pants", "torus"])
def test_sweep_golden(record, argv, digest):
    """A 10,000-step sweep prints fixed bytes (the sha256 of its stdout): one row template
    per kind, each row one _convert call with math on Python floats, so its bits are
    libm's and the same on every Python from 3.10 on."""
    code, out, err = run_main("sweep", "--input", record, "--steps", "10000", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestContract:
    @pytest.mark.parametrize(
        "args",
        [
            ("convert", "--input", TORUS.replace('"parabolic"', "1")),
            ("distance", "--input", '{"domain": {"conic": [1,0,1,0,0,-1]}, "x": [NaN, 0], '
             '"y": [0.5, 0]}'),
            ("convert", "--input", ALL_PARABOLIC.replace('"s": 2', '"s": NaN')),
            ("convert", "--input", TORUS.replace('"u": 1', '"u": Infinity')),
            ("convert", "--input", TORUS.replace('"tau": 5', '"tau": Infinity')),
            ("bulge", "--input", '{"sigma1": NaN, "sigma2": 0, "v": 0.1}'),
            ("bulge", "--input", '{"sigma1": 1e400, "sigma2": 0, "v": 0.1}'),
            ("bulge", "--input", '{"sigma1": 0, "sigma2": 0, "v": 1' + "0" * 400 + "}"),
            ("sweep", "--input", HYPERBOLIC_TORUS.replace('"lambda": 0.3', '"lambda": -Infinity')),
        ],
    )
    def test_bad_input_exit_2(self, args):
        """NaN, infinities and literals beyond the float range are malformed input,
        rejected where the JSON is read; so is a boundary kind that is not a string."""
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: MalformedInput:")
        assert "Traceback" not in result.stderr and "math domain" not in result.stderr

    @pytest.mark.parametrize("args, field", [
        (("distance", "--input", '{"domain": {"conic": [1,0,1,0,0,-1]}, "x": [0, 0], '
          '"y": [0.5, false]}'), "y[1]"),
        (("convert", "--input", ALL_PARABOLIC.replace('"s": 2', '"s": true')), "s"),
        (("classify", "--input", "[true,0,0,0,1,0,0,0,1]"), "matrix[0]"),
        (("bulge", "--input", '{"sigma1": 0.3, "sigma2": -0.2, "v": true}'), "v"),
        (("sweep", "--input", HYPERBOLIC_TORUS.replace('"t": 1', '"t": true')), "t"),
        (("invariants", "--input", triangle_flags_json(0.25).replace("[0.0, 0.5, 1.0]",
                                                                     "[0.0, 0.5, true]")),
         "flags[0].point[2]"),
    ], ids=["distance", "convert", "classify", "bulge", "sweep", "invariants"])
    def test_boolean_input_exit_2(self, args, field):
        """JSON true and false are not numbers: each subcommand read them as 1 and 0
        and exited 0."""
        code, out, err = run_main(*args)
        assert (code, out, err) == (2, "", f"error: MalformedInput: {field} must be a number\n")

    @pytest.mark.parametrize("record, argv, message", [
        (HYPERBOLIC_TORUS, ("--steps", "0"), "steps must be at least 1"),
        (HYPERBOLIC_TORUS, ("--steps", "-3"), "steps must be at least 1"),
        (MIXED_PANTS, ("--boundary", "0"), "pants boundary index must be 1, 2 or 3"),
        (MIXED_PANTS, ("--boundary", "4"), "pants boundary index must be 1, 2 or 3"),
        (PARABOLIC_QUASI_PANTS, ("--boundary", "2"), "the pinched boundary must start hyperbolic"),
        (PARABOLIC_QUASI_PANTS, ("--boundary", "3"), "the pinched boundary must start hyperbolic"),
        (ALL_PARABOLIC.replace('{"kind": "parabolic"}, ', "", 1), (),
         "a pair of pants has exactly 3 boundary curves"),
    ])
    def test_sweep_refusals_exit_2(self, record, argv, message):
        code, out, err = run_main("sweep", "--input", record, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: MalformedInput:") and message in err

    @pytest.mark.parametrize("v", [10, 100, 300])
    def test_bulge_flags_far_out_is_not_malformed(self, v):
        """A valid configuration bulged from v = 10 on exited 2 as MalformedInput
        ("linearly independent"); the genericity rule may still refuse it (exit 1),
        and a tolerance below its unit pairing gives the shift (-3v, 3v)."""
        record = json.dumps({"flags": [f.to_json() for f in pk.bulging_configuration()],
                             "v": v})
        code, out, err = run_main("bulge", "--input", record)
        assert code in (0, 1) and "MalformedInput" not in err
        if v < 300:
            code, out, err = run_main("bulge", "--input", record, "--tol", "1e-300")
            assert code == 0
            assert out.splitlines()[-2:] == [f"delta_sigma1 = {-3 * v}", f"delta_sigma2 = {3 * v}"]

    @pytest.mark.parametrize("v", [10, 100, 300])
    def test_bulged_flags_read_back(self, v):
        """The quadruple whose fourth flag is bulged by v, as Flag.to_json writes it,
        exited 2 from v = 10 on (MalformedInput: "linearly independent"): invariants read
        its own output as malformed.  The genericity rule refuses it (exit 1) at the
        default tolerance, and a tolerance below its unit pairing gives (-3v, 3v)."""
        flags = list(pk.bulging_configuration())
        flags[3] = flags[3].transform(pk.bulging_matrix(v))
        record = json.dumps([f.to_json() for f in flags])
        code, out, err = run_main("invariants", "--input", record)
        assert (code, out) == (1, "") and err.startswith("error: NonGenericFlags: ")
        if v < 300:  # at v = 300 the unit pairing underflows to 0
            code, out, err = run_main("invariants", "--input", record, "--tol", "1e-300")
            assert code == 0
            assert out.splitlines()[-2:] == [f"sigma1 = {-3 * v}", f"sigma2 = {3 * v}"]

    def test_non_finite_result_exit_1(self):
        """sigma1 - 3v and sigma2 + 3v overflow: shear_shift refuses them, and nothing is
        printed (it printed -inf and inf)."""
        result = run_cli("bulge", "--input", '{"sigma1": 0, "sigma2": 0, "v": 1e308}')
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            "error: NonFiniteResult: the shears bulged by v = 1e+308 are not finite\n")

    @pytest.mark.parametrize("v", [400, -400])
    def test_bulge_flags_past_the_float_range_exit_1(self, v):
        """The bulging matrix leaves the float range: a named error, not a traceback
        from math.exp (v = 400) or shears of a singular matrix (v = -400)."""
        record = json.dumps({"flags": [f.to_json() for f in pk.bulging_configuration()], "v": v})
        result = run_cli("bulge", "--input", record)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: NonFiniteResult: ")
        assert "Traceback" not in result.stderr

    def test_sweep_non_finite_writes_nothing(self):
        """The gluing shears u -+ 3v overflow: the sweep writes no line, not even its header."""
        record = HYPERBOLIC_TORUS.replace('"v": 0.5', '"v": 1e308')
        code, out, err = run_main("sweep", "--input", record, "--steps", "4")
        assert (code, out) == (1, "")
        assert err == "error: NonFiniteResult: sigmaC1 is not finite\n"

    @pytest.mark.parametrize("column, row, bad", [("tplus", 2, math.nan), ("tau", 4, math.inf),
                                                  ("sigma1_B3", 0, -math.inf)])
    def test_sweep_non_finite_column_writes_nothing(self, monkeypatch, column, row, bad):
        """A NaN or infinity in any row of a column: the sweep writes no line."""
        from projkit import coords

        pinch = coords._pinch

        def spoiled(*args):
            start, columns, gluing = pinch(*args)
            values = list(columns[column])
            values[row] = bad
            return start, {**columns, column: tuple(values)}, gluing

        monkeypatch.setattr(coords, "_pinch", spoiled)
        code, out, err = run_main("sweep", "--input", HYPERBOLIC_TORUS, "--steps", "4")
        assert (code, out) == (1, "")
        assert err == f"error: NonFiniteResult: {column} is not finite\n"

    @pytest.mark.parametrize("value, finite", [
        ([0.5, 1.0, -2.0], True), ((0.5, math.inf, 1.0), False), ([1.0, math.nan], False),
        ([[0.0, 1.0], [2.0, 3.0]], True), ([[0.0, 1.0], [2.0, -math.inf]], False),
        ([1.0, [2.0, math.nan]], False), ([1.0, (2.0, 3.0)], True), ([], True),
    ])
    def test_finite_reads_flat_and_nested_lists(self, value, finite):
        """A flat list is checked in one pass; a list holding lists falls back to the
        recursion, which finds a NaN or infinity at any depth."""
        assert cli._finite(value) is finite

    @pytest.mark.parametrize("argv", [("convert",), ("sweep", "--steps", "4")])
    def test_overflowing_gluing_shears_exit_1(self, argv):
        """u -+ 3v overflow: convert exited 2 (MalformedInput, from TorusBD's check on
        its fields) where sweep exits 1; the input is well-formed, so both exit 1."""
        record = HYPERBOLIC_TORUS.replace('"v": 0.5', '"v": 1e308')
        code, out, err = run_main(*argv, "--input", record)
        assert (code, out) == (1, "")
        assert err.startswith("error: NonFiniteResult: ")

    def test_chord_past_the_float_range_exit_1(self):
        """A chord exit past the float range is NonFiniteResult, not a NaN distance."""
        square = [[-1.5e308, -1.5e308], [1.5e308, -1.5e308], [1.5e308, 1.5e308],
                  [-1.5e308, 1.5e308]]
        record = json.dumps({"domain": {"polygon": square}, "x": [-5e307, 0], "y": [5e307, 0]})
        code, out, err = run_main("distance", "--input", record)
        assert (code, out) == (1, "")
        assert err.startswith("error: NonFiniteResult: the chord from x = ")

    def test_sweep_through_double_root(self):
        """Rows next to the double root tau^2 = 4/lambda: mu comes from the path, not
        back from a rounded tau (this exited 1 with ComplexEigenvalues after 9,999 rows)."""
        code, out, err = run_main("sweep", "--input", NEAR_DOUBLE_ROOT, "--steps", "10000")
        assert (code, err) == (0, "")
        rows = out.splitlines()[2:]
        assert len(rows) == 10001
        assert rows[-1].split(",")[4] == "parabolic"
        assert all(row.split(",")[4] == "hyperbolic" for row in rows[:-1])

    @pytest.mark.parametrize("record, boundary", [(MIXED_PANTS, 3), (HYPERBOLIC_TORUS, 1)],
                             ids=["pants-A3", "torus"])
    def test_sweep_tau_sum_against_decimal(self, record, boundary):
        """tau111(T+) + tau111(T-) = log(mu1 mu2 mu3) on every row of a 10,000-step
        sweep, against 50-digit decimal arithmetic along the pinching path
        log mu = -(log lambda + log(nu0/mu0) (1 - frac)) / 2, which _pinch writes from the
        record's logs.  The sweep rebuilt tau from mu and mu from tau, which lost up to
        1.9e-12 near the parabolic end."""
        code, out, _ = run_main("sweep", "--input", record, "--boundary", str(boundary),
                                "--steps", "10000")
        assert code == 0
        data = json.loads(record)
        fixed = [(b["kind"], b.get("lambda", 1.0), b.get("tau")) for b in data["boundaries"]]
        if data["surface"] == "torus":
            fixed = [fixed[0], fixed[1], fixed[1]]
        index = boundary - 1
        with localcontext() as ctx:
            ctx.prec = 50
            lam0, tau0 = Decimal(fixed[index][1]), Decimal(fixed[index][2])
            mu0 = 2 / (lam0 * (tau0 + (tau0 * tau0 - 4 / lam0).sqrt()))
            log_ratio0 = ((tau0 - mu0) / mu0).ln()
            others = sum(_decimal_log_mu(*b) for k, b in enumerate(fixed) if k != index)
            worst = 0.0
            for row in out.splitlines()[2:]:
                values = row.split(",")
                frac, lam = Decimal(float(values[1])), Decimal(float(values[2]))
                ref = others - (lam.ln() + log_ratio0 * (1 - frac)) / 2
                got = Decimal(float(values[11])) + Decimal(float(values[12]))
                worst = max(worst, float(abs(got - ref) / max(1, abs(ref))))
        assert worst <= 1e-14


def _decimal_log_mu(kind, lam, tau):
    """log of the middle eigenvalue of a fixed boundary, in the current decimal context."""
    if kind == "parabolic":
        return Decimal(0)
    lam = Decimal(lam)
    if tau is None:  # quasi-hyperbolic: the double root 1 / sqrt(lambda)
        return -lam.ln() / 2
    tau = Decimal(tau)
    return (2 / (lam * (tau + (tau * tau - 4 / lam).sqrt()))).ln()


FLAGS3 = json.loads(triangle_flags_json(0.25))
FLAGS4 = [f.to_json() for f in pk.bulging_configuration(1.0, 1.0)]


@pytest.mark.parametrize("command, doc", [
    ("invariants", FLAGS3),
    ("invariants", FLAGS4),
    ("classify", [2, 0, 0, 0, 1, 0, 0, 0, 0.5]),
    ("classify", [2, 1, 0, 0, 2, 0, 0, 0, 0.25]),
    ("classify", [1, 1, 0, 0, 1, 1, 0, 0, 1]),
    ("classify", json.loads(ROTATION)),
    ("distance", {"domain": {"conic": [1, 0, 1, 0, 0, -1]}, "x": [0, 0], "y": [0.5, 0]}),
    ("convert", json.loads(MIXED_PANTS)),
    ("convert", json.loads(HYPERBOLIC_TORUS)),
    ("bulge", {"sigma1": 0.3, "sigma2": -0.2, "v": 0.1}),
    ("bulge", {"flags": FLAGS4, "v": 0.2}),
], ids=["triple", "quadruple", "hyperbolic", "quasi-hyperbolic", "parabolic", "complex-pair",
        "distance", "pants", "torus", "bulge-shears", "bulge-flags"])
def test_csv_lines_have_two_fields(command, doc):
    """Every csv line of every record command reads back as one name and one value."""
    code, out, err = run_main(command, "--input", json.dumps(doc), "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows and all(len(row) == 2 for row in rows), out


def _replaced(doc, path, value):
    """The JSON text of ``doc`` with ``value`` at ``path``."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc)


DISK = {"domain": {"conic": [1, 0, 1, 0, 0, -1]}, "x": [0.1, 0], "y": [0.5, 0]}
SQUARE = {"domain": {"polygon": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}, "x": [0, 0],
          "y": [0, 0.5]}


@pytest.mark.parametrize("command, doc, path, value, field", [
    ("classify", [2, 0, 0, 0, 1, 0, 0, 0, 0.5], (4,), "1", "matrix[4]"),
    ("classify", [[2, 0, 0], [0, 1, 0], [0, 0, 0.5]], (1, 1), "1", "matrix[1][1]"),
    ("invariants", FLAGS3, (2, "point", 1), "1", "flags[2].point[1]"),
    ("invariants", FLAGS4, (0, "line", 1, 2), "0", "flags[0].line[1][2]"),
    ("bulge", {"sigma1": 0.3, "sigma2": -0.2, "v": 0.1}, ("sigma1",), "0.3", "sigma1"),
    ("bulge", {"sigma1": 0.3, "sigma2": -0.2, "v": 0.1}, ("v",), [0.1], "v"),
    ("bulge", {"flags": FLAGS4, "v": 0.2}, ("flags", 3, "point", 0), "1", "flags[3].point[0]"),
    ("convert", json.loads(ALL_PARABOLIC), ("s",), "2", "s"),
    ("convert", json.loads(ALL_PARABOLIC), ("t",), None, "t"),
    ("convert", json.loads(TORUS), ("u",), "1", "u"),
    ("convert", json.loads(TORUS), ("boundaries", 1, "lambda"), "0.2",
     "boundaries[1].lambda"),
    ("sweep", json.loads(HYPERBOLIC_TORUS), ("boundaries", 0, "tau"), "4",
     "boundaries[0].tau"),
    ("distance", DISK, ("x",), ["0.1", 0], "x[0]"),
    ("distance", DISK, ("y", 1), {}, "y[1]"),
    ("distance", DISK, ("domain", "conic", 0), "1", "conic[0]"),
    ("distance", SQUARE, ("domain", "polygon", 1, 0), "1", "polygon[1][0]"),
])
def test_non_number_input_exit_2(command, doc, path, value, field):
    """A string, null, object or list where a number belongs is malformed input: classify,
    invariants, bulge and convert read strings of numbers and exited 0, and distance
    exited 2 with a TypeError's text."""
    code, out, err = run_main(command, "--input", _replaced(doc, path, value))
    assert (code, out, err) == (2, "", f"error: MalformedInput: {field} must be a number\n")


# (subcommand and options, a valid JSON input); area's "input" is the values
# of --alphas, --truncation and --cellsize
CONTRACT_CASES = [
    (("invariants",), FLAGS3),
    (("invariants", "--format", "json"), FLAGS4),
    (("classify",), [2, 1, 0, 0, 2, 0, 0, 0, 0.25]),
    (("classify", "--format", "csv"), [1, 1, 0, 0, 1, 1, 0, 0, 1]),
    (("distance",), {"domain": {"conic": [1, 0, 1, 0, 0, -1]}, "x": [0, 0], "y": [0.5, 0]}),
    (("distance", "--format", "csv"),
     {"domain": {"polygon": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}, "x": [0, 0], "y": [0, 0.5]}),
    (("convert",), json.loads(MIXED_PANTS)),
    (("convert", "--format", "csv"), json.loads(HYPERBOLIC_TORUS)),
    (("sweep", "--steps", "3", "--boundary", "3"), json.loads(MIXED_PANTS)),
    (("sweep", "--steps", "3"), json.loads(HYPERBOLIC_TORUS)),
    (("bulge",), {"sigma1": 0.3, "sigma2": -0.2, "v": 0.1}),
    (("bulge", "--format", "json"), {"flags": FLAGS4, "v": 0.2}),
    (("area",), [0.25, 2, 0.05]),
]

# JSON texts put in place of a value: non-finite and out-of-range numbers,
# extreme magnitudes and wrong types
LITERALS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400, "1e308",
            "-1.7976931348623157e308", "5e-324", "1e-300", "0", "-0", "-1", "true", "null",
            '"x"', '"parabolic"', "[]", "{}", "[1, 2]", '{"kind": 1}']


def _paths(doc, prefix=()):
    """Every position below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_exit_code_contract(data):
    """Every subcommand, fed NaN, infinities, literals beyond the float range, extreme
    magnitudes or wrong types anywhere in its input, exits 0, 1 or 2 without an
    exception; stdout is empty unless it exits 0, and then every number is finite."""
    argv, doc = data.draw(st.sampled_from(CONTRACT_CASES))
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    texts = {}
    for n in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(paths))
        text = data.draw(st.one_of(
            st.sampled_from(LITERALS),
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
        ))
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = f"@{n}@"
        except (KeyError, IndexError, TypeError):  # an earlier change replaced this position
            continue
        texts[f'"@{n}@"'] = text
    if argv[0] == "area":
        values = [texts.get(json.dumps(v), repr(v)) for v in doc]
        argv = argv + ("--alphas", values[0], "--truncation", values[1], "--cellsize", values[2])
    else:
        source = json.dumps(doc)
        for marker, text in texts.items():
            source = source.replace(marker, text)
        argv = argv + ("--input", source)

    code, out, err = run_main(*argv)
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert re.match(r"error: \w+: ", err) or err.startswith("usage:")
    else:
        assert not re.search(r"(?i)\b(nan|inf|infinity)\b", out), out
