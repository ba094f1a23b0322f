"""CLI: dispatch, exit codes, error names, deterministic output."""

import json
import math
import subprocess
import sys

import pytest

import projkit as pk


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
