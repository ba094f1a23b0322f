"""CLI: dispatch, exit codes, error names, deterministic output."""

import contextlib
import copy
import io
import json
import math
import re
import subprocess
import sys
from decimal import Decimal, localcontext

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

    def test_non_finite_matrix_exit_2(self):
        # rejected before any LAPACK call: one error line, no numpy warning
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
        """The five default areas keep every printed digit."""
        result = run_cli("area")
        assert result.returncode == 0
        assert result.stdout == (
            "# config: area alphas=0.5,0.25,0.1,0.05,0.01 truncation=5 cellsize=0.002\n"
            "alpha,truncation,cellsize,area\n"
            "0.5,5,0.002,1.2918569293390896\n"
            "0.25,5,0.002,1.4498173419798617\n"
            "0.10000000000000001,5,0.002,1.9236981770033719\n"
            "0.050000000000000003,5,0.002,2.4264643797531025\n"
            "0.01,5,0.002,4.0544537842594517\n"
        )

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

    @pytest.mark.parametrize("args", [
        ("distance", "--input", '{"domain": {"conic": [1,0,1,0,0,-1]}, "x": [0, 0], '
         '"y": [0.5, false]}'),
        ("convert", "--input", ALL_PARABOLIC.replace('"s": 2', '"s": true')),
        ("classify", "--input", "[true,0,0,0,1,0,0,0,1]"),
        ("bulge", "--input", '{"sigma1": 0.3, "sigma2": -0.2, "v": true}'),
        ("sweep", "--input", HYPERBOLIC_TORUS.replace('"t": 1', '"t": true')),
        ("invariants", "--input", triangle_flags_json(0.25).replace("[0.0, 0.5, 1.0]",
                                                                    "[0.0, 0.5, true]")),
    ], ids=["distance", "convert", "classify", "bulge", "sweep", "invariants"])
    def test_boolean_input_exit_2(self, args):
        """JSON true and false are not numbers: each subcommand read them as 1 and 0
        and exited 0."""
        code, out, err = run_main(*args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: MalformedInput:")

    @pytest.mark.parametrize("record, argv, message", [
        (HYPERBOLIC_TORUS, ("--steps", "0"), "steps must be at least 1"),
        (HYPERBOLIC_TORUS, ("--steps", "-3"), "steps must be at least 1"),
        (MIXED_PANTS, ("--boundary", "0"), "pants boundary index must be 1, 2 or 3"),
        (MIXED_PANTS, ("--boundary", "4"), "pants boundary index must be 1, 2 or 3"),
        (PARABOLIC_QUASI_PANTS, ("--boundary", "2"), "the pinched boundary must start hyperbolic"),
        (PARABOLIC_QUASI_PANTS, ("--boundary", "3"), "the pinched boundary must start hyperbolic"),
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

    def test_non_finite_result_exit_1(self):
        """sigma1 - v and sigma2 + v overflow: nothing is printed (it printed -inf and inf)."""
        result = run_cli("bulge", "--input", '{"sigma1": 0, "sigma2": 0, "v": 1e308}')
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: NonFiniteResult: sigma1 is not finite\n"

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
        log mu = -(log lambda + log(nu0/mu0) (1 - frac)) / 2.  The sweep rebuilt tau
        from mu and mu from tau, which lost up to 1.9e-12 near the parabolic end."""
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
