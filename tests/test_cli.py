"""Tests for argument parsing, table schemas, and CLI reproducibility."""

import contextlib
import csv
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loem.cli
from loem import outcome_probabilities

from loem.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    HEISENBERG_COLUMNS,
    SIMULATE_COLUMNS,
    SURFACE_COLUMNS,
    UsageError,
    main,
    parse_args,
)

SIMULATE_ARGS = [
    "simulate",
    "--theta-deg",
    "40",
    "--phi-deg",
    "36",
    "--n",
    "1",
    "--shots",
    "10000",
    "--repeats",
    "400",
    "--seed",
    "7",
    "--format",
    "csv",
]

FAST_SIMULATE = [
    "simulate",
    "--theta-deg",
    "40",
    "--phi-deg",
    "36",
    "--shots",
    "300",
    "--repeats",
    "20",
    "--seed",
    "7",
    "--resamples",
    "2",
]


GOLDEN_SIMULATE_ARGS = [
    "simulate",
    "--theta-deg",
    "25",
    "70",
    "--phi-deg",
    "36",
    "--shots",
    "500",
    "--repeats",
    "40",
    "--seed",
    "7",
    "--resamples",
    "0",
]
# Outputs of GOLDEN_SIMULATE_ARGS under each noise model, recorded with the
# per-trial campaign loop that the array engine replaced.
GOLDEN_SIMULATE_CSV = {
    "multinomial": (
        "theta_deg,phi_deg,n,shots,repeats,m_mse_theta,m_mse_phi,cov_m,qcrb_theta,qcrb_phi,"
        "err_theta,err_phi,n_failed\n"
        "25.0,36.0,1,500,40,0.6403829592328204,3.31062444169239,0.022789603259028245,0.5,"
        "2.799454966056695,nan,nan,0\n"
        "70.0,36.0,1,500,40,0.4531738794524908,0.7862613556934271,0.02094497167569911,0.5,"
        "0.5662371657158972,nan,nan,0\n"
    ),
    "poisson": (
        "theta_deg,phi_deg,n,shots,repeats,m_mse_theta,m_mse_phi,cov_m,qcrb_theta,qcrb_phi,"
        "err_theta,err_phi,n_failed\n"
        "25.0,36.0,1,500,40,0.498187125076637,1.7625060616184174,0.045032592709222385,0.5,"
        "2.799454966056695,nan,nan,0\n"
        "70.0,36.0,1,500,40,0.5015283752590757,0.547048390657079,-0.09644284554721991,0.5,"
        "0.5662371657158972,nan,nan,0\n"
    ),
}


class TestParseArgs:
    def test_simulate_reference_invocation(self):
        config = parse_args(SIMULATE_ARGS)
        assert config.command == "simulate"
        assert tuple(config.theta_deg) == (40.0,)
        assert config.phi_deg == 36.0
        assert config.shots == 10000
        assert config.repeats == 400
        assert config.seed == 7
        assert config.format == "csv"

    def test_simulate_default_theta_sweep(self):
        config = parse_args(["simulate", "--phi-deg", "36"])
        assert config.theta_deg == (10.0, 25.0, 40.0, 55.0, 70.0, 85.0)

    def test_heisenberg_reference_invocation(self):
        config = parse_args(
            [
                "heisenberg",
                "--theta-deg",
                "8.5",
                "--phi-deg",
                "8.5",
                "--n-max",
                "10",
                "--shots",
                "10000",
                "--repeats",
                "400",
                "--seed",
                "7",
            ]
        )
        assert config.command == "heisenberg"
        assert config.n_max == 10

    def test_missing_phi_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["simulate", "--theta-deg", "95", "--n", "1"])

    def test_angle_constraint_quoted(self, capsys):
        assert main(["simulate", "--theta-deg", "95", "--phi-deg", "36", "--n", "1"]) == EXIT_USAGE
        assert "0 <= angle < pi/(2N)" in capsys.readouterr().err

    def test_heisenberg_constraint_names_offending_n(self, capsys):
        assert main(["heisenberg", "--theta-deg", "50", "--phi-deg", "8.5", "--n-max", "4"]) == EXIT_USAGE
        assert "N = 2" in capsys.readouterr().err

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["probs", "--theta-deg", "10", "--phi-deg", "10", "--bogus", "1"])

    def test_unknown_command_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["transmogrify"])

    def test_malformed_number_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["probs", "--theta-deg", "ninety", "--phi-deg", "45"])

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("LOEM_SEED", "123")
        config = parse_args(["simulate", "--phi-deg", "36"])
        assert config.seed == 123

    def test_seed_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("LOEM_SEED", "123")
        config = parse_args(["simulate", "--phi-deg", "36", "--seed", "9"])
        assert config.seed == 9

    def test_largest_seed_accepted(self):
        config = parse_args(["simulate", "--phi-deg", "36", "--seed", str(2**128 - 1)])
        assert config.seed == 2**128 - 1


class TestSingleResultCommands:
    def test_probs_output(self, capsys):
        assert main(["probs", "--theta-deg", "90", "--phi-deg", "45", "--n", "1"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.25 0.25 0.25 0.25"

    def test_qfim_output(self, capsys):
        assert main(["qfim", "--theta-deg", "90", "--phi-deg", "10"]) == EXIT_OK
        rows = [[float(v) for v in line.split()] for line in capsys.readouterr().out.splitlines()]
        assert np.allclose(rows, np.diag([2.0, 2.0]), atol=1e-9)

    def test_wcc_antiparallel(self, capsys):
        code = main(["wcc", "--family", "antiparallel", "--theta-deg", "50", "--phi-deg", "20"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "wcc_holds = true" in out
        assert float(out.splitlines()[0].split("=")[1]) < 1e-8

    def test_wcc_parallel_fails_condition(self, capsys):
        code = main(["wcc", "--family", "parallel", "--theta-deg", "50", "--phi-deg", "20"])
        assert code == EXIT_OK
        assert "wcc_holds = false" in capsys.readouterr().out


class TestTables:
    def test_surface_shape_and_header(self, tmp_path):
        out = tmp_path / "surface.csv"
        code = main(["surface", "--resolution", "10", "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SURFACE_COLUMNS)
        assert len(lines) == 1 + 10 * 10
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        # rows sum to 1 and angles step by 360/resolution
        probs = [float(v) for v in first[2:]]
        assert abs(sum(probs) - 1.0) < 1e-12
        assert float(lines[2].split(",")[1]) == 36.0

    def test_simulate_header_golden(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(FAST_SIMULATE + ["--output", str(out)]) == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == (
            "theta_deg,phi_deg,n,shots,repeats,m_mse_theta,m_mse_phi,cov_m,"
            "qcrb_theta,qcrb_phi,err_theta,err_phi,n_failed"
        )
        assert header == ",".join(SIMULATE_COLUMNS)

    def test_heisenberg_header_golden(self, tmp_path):
        out = tmp_path / "h.csv"
        args = [
            "heisenberg",
            "--theta-deg",
            "8.5",
            "--phi-deg",
            "8.5",
            "--n-max",
            "2",
            "--shots",
            "300",
            "--repeats",
            "20",
            "--seed",
            "7",
            "--output",
            str(out),
        ]
        assert main(args) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "n,m_mse_theta,m_mse_phi,qcrb_theta,qcrb_phi,snl_theta,snl_phi"
        assert lines[0] == ",".join(HEISENBERG_COLUMNS)
        assert len(lines) == 3

    def test_seed_reproducibility_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(FAST_SIMULATE + ["--output", str(a)]) == EXIT_OK
        assert main(FAST_SIMULATE + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_json_csv_round_trip_identical(self, tmp_path):
        csv_path, json_path = tmp_path / "run.csv", tmp_path / "run.json"
        assert main(FAST_SIMULATE + ["--output", str(csv_path)]) == EXIT_OK
        assert main(FAST_SIMULATE + ["--format", "json", "--output", str(json_path)]) == EXIT_OK
        with open(csv_path, newline="") as handle:
            csv_rows = list(csv.DictReader(handle))
        json_rows = json.loads(json_path.read_text())
        assert len(csv_rows) == len(json_rows)
        for c_row, j_row in zip(csv_rows, json_rows):
            assert list(c_row) == list(j_row)
            for key in j_row:
                assert float(c_row[key]) == float(j_row[key])

    @pytest.mark.parametrize("n", [1, 3])
    def test_surface_matches_scalar_probabilities(self, tmp_path, n):
        csv_path, json_path = tmp_path / "s.csv", tmp_path / "s.json"
        args = ["surface", "--resolution", "7", "--n", str(n)]
        assert main(args + ["--output", str(csv_path)]) == EXIT_OK
        assert main(args + ["--format", "json", "--output", str(json_path)]) == EXIT_OK
        with open(csv_path, newline="") as handle:
            csv_rows = [[float(v) for v in row] for row in list(csv.reader(handle))[1:]]
        assert len(csv_rows) == 49
        for row in csv_rows:
            expected = outcome_probabilities(np.radians(row[0]), np.radians(row[1]), n)
            assert np.max(np.abs(np.array(row[2:]) - expected)) <= 2.3e-16
        json_rows = json.loads(json_path.read_text())
        assert [[r[c] for c in SURFACE_COLUMNS] for r in json_rows] == csv_rows

    def test_json_writes_null_for_non_finite(self, tmp_path):
        # --resamples 0 skips the error bars, so the err_* cells are nan.
        args = ["simulate", "--theta-deg", "40", "--phi-deg", "36", "--shots", "100", "--repeats", "10"]
        args += ["--resamples", "0"]
        csv_path, json_path = tmp_path / "run.csv", tmp_path / "run.json"
        assert main(args + ["--output", str(csv_path)]) == EXIT_OK
        assert main(args + ["--format", "json", "--output", str(json_path)]) == EXIT_OK

        def reject(name):
            raise ValueError(f"non-RFC 8259 constant {name}")

        (json_row,) = json.loads(json_path.read_text(), parse_constant=reject)
        with open(csv_path, newline="") as handle:
            (csv_row,) = list(csv.DictReader(handle))
        assert "nan" in set(csv_row.values())
        for key, text in csv_row.items():
            if text in ("nan", "inf", "-inf"):
                assert json_row[key] is None
            else:
                assert float(text) == json_row[key]

    @pytest.mark.parametrize("noise", sorted(GOLDEN_SIMULATE_CSV))
    def test_simulate_golden_csv(self, tmp_path, noise):
        out = tmp_path / "golden.csv"
        assert main(GOLDEN_SIMULATE_ARGS + ["--noise", noise, "--output", str(out)]) == EXIT_OK
        assert out.read_text() == GOLDEN_SIMULATE_CSV[noise]

    def test_default_simulate_layout(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = [
            "simulate",
            "--phi-deg",
            "36",
            "--shots",
            "200",
            "--repeats",
            "10",
            "--seed",
            "1",
            "--resamples",
            "0",
            "--output",
            str(out),
        ]
        assert main(args) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [10.0, 25.0, 40.0, 55.0, 70.0, 85.0]


def one_error_line(err: str) -> bool:
    return err.startswith("error:") and err.count("\n") == 1


# Non-finite angles and values outside the ranges the library (or, for
# CLI-only options, the parser) accepts: each must exit 1 with one error line.
REJECTED_VALUES = [
    ["probs", "--theta-deg", "nan", "--phi-deg", "10"],
    ["probs", "--theta-deg", "10", "--phi-deg", "10", "--format", "json"],
    ["qfim", "--theta-deg", "inf", "--phi-deg", "10"],
    ["probs", "--theta-deg", "10", "--phi-deg", "10", "--n", "0"],
    ["qfim", "--family", "single", "--theta-deg", "10", "--phi-deg", "10", "--n", "0"],
    ["surface", "--n", "0"],
    ["simulate", "--phi-deg", "36", "--n", "0"],
    ["heisenberg", "--theta-deg", "8.5", "--phi-deg", "8.5", "--n-max", "0"],
    ["surface", "--resolution", "1"],
    ["simulate", "--phi-deg", "36", "--resamples", "-1"],
    ["simulate", "--phi-deg", "36", "--resamples", "1"],
    ["simulate", "--phi-deg", "36", "--shots", "0"],
    ["simulate", "--phi-deg", "36", "--repeats", "1"],
    ["wcc", "--theta-deg", "10", "--phi-deg", "10", "--tol", "0"],
    ["wcc", "--theta-deg", "10", "--phi-deg", "10", "--tol", "nan"],
]


class TestExitCodes:
    @pytest.mark.parametrize("args", REJECTED_VALUES, ids=" ".join)
    def test_rejected_value_exit_one(self, capsys, args):
        assert main(args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and one_error_line(captured.err)

    def test_out_of_range_row_runs_no_campaign(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(loem.cli, "run_trials", lambda *a, **k: calls.append(a))
        assert main(["simulate", "--theta-deg", "10", "95", "--phi-deg", "36"]) == EXIT_USAGE
        assert calls == []
        assert one_error_line(capsys.readouterr().err)

    def test_single_resample_runs_no_campaign(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(loem.cli, "run_trials", lambda *a, **k: calls.append(a))
        assert main(["simulate", "--theta-deg", "40", "--phi-deg", "36", "--resamples", "1"]) == EXIT_USAGE
        assert calls == []
        assert one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "theta, code",
        [
            (["95"], EXIT_USAGE),
            (["0", "--shots", "100"], EXIT_NUMERICAL),
            (["0", "--shots", "1"], EXIT_NUMERICAL),
        ],
    )
    def test_failed_run_keeps_output(self, tmp_path, capsys, theta, code):
        out = tmp_path / "kept.csv"
        out.write_text("prior contents\n")
        args = ["simulate", "--phi-deg", "36", "--repeats", "20", "--resamples", "0", "--theta-deg"]
        assert main(args + theta + ["--output", str(out)]) == code
        assert out.read_text() == "prior contents\n"
        assert one_error_line(capsys.readouterr().err)

    def test_usage_error_exit_one(self, capsys):
        assert main(["simulate", "--theta-deg", "95", "--n", "1"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_malformed_seed_env_exit_one(self, monkeypatch, capsys):
        monkeypatch.setenv("LOEM_SEED", "abc")
        assert main(["simulate", "--theta-deg", "40", "--phi-deg", "36"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "LOEM_SEED" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "heisenberg"])
    def test_seed_beyond_philox_key_exit_one(self, capsys, command):
        args = [command, "--theta-deg", "40", "--phi-deg", "36", "--seed", str(2**128)]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2**128" in err and err.count("\n") == 1

    def test_numerical_degeneracy_exit_two(self, capsys):
        args = [
            "simulate",
            "--theta-deg",
            "0.001",
            "--phi-deg",
            "36",
            "--shots",
            "100",
            "--repeats",
            "20",
            "--seed",
            "1",
            "--resamples",
            "0",
        ]
        assert main(args) == EXIT_NUMERICAL
        assert "error:" in capsys.readouterr().err

    def test_io_failure_exit_three(self, tmp_path, capsys):
        out = tmp_path / "missing" / "deep" / "out.csv"
        assert main(["surface", "--resolution", "4", "--output", str(out)]) == EXIT_IO
        assert "error:" in capsys.readouterr().err


class TestCliBoundary:
    """Any angle, N and family: a result with exit 0, or one error line."""

    @settings(max_examples=150, deadline=None)
    @given(
        command=st.sampled_from(["probs", "qfim", "wcc"]),
        family=st.sampled_from(["antiparallel", "single", "parallel"]),
        theta=st.floats(allow_nan=True, allow_infinity=True),
        phi=st.floats(allow_nan=True, allow_infinity=True),
        n=st.integers(-2, 12),
    )
    def test_exit_code_and_stderr(self, command, family, theta, phi, n):
        # "--flag=value" keeps argparse from reading "-inf" or "-1e-05" as a flag.
        args = [command, f"--theta-deg={theta!r}", f"--phi-deg={phi!r}", f"--n={n}"]
        if command != "probs":
            args.append(f"--family={family}")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
        stderr = err.getvalue() + "".join(f"{w.message}\n" for w in caught)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL)
        if code == EXIT_OK:
            assert stderr == "" and out.getvalue()
            assert "nan" not in out.getvalue() and "inf" not in out.getvalue()
        else:
            assert one_error_line(stderr) and out.getvalue() == ""
