"""Tests for argument parsing, table schemas, and CLI reproducibility."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
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
    _CHUNK,
    _float_texts,
    _write_table,
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


# Outputs of GOLDEN_SIMULATE_ARGS with three error-bar resamples instead of
# none, recorded before the campaign loop restored substreams from Python-int
# state words.  err_* come from Poisson resamples under either noise model.
GOLDEN_ERROR_BARS_CSV = {
    "multinomial": (
        "theta_deg,phi_deg,n,shots,repeats,m_mse_theta,m_mse_phi,cov_m,qcrb_theta,qcrb_phi,"
        "err_theta,err_phi,n_failed\n"
        "25.0,36.0,1,500,40,0.6403829592328204,3.31062444169239,0.022789603259028245,0.5,"
        "2.799454966056695,0.09198805609759578,0.5688151173905629,0\n"
        "70.0,36.0,1,500,40,0.4531738794524908,0.7862613556934271,0.02094497167569911,0.5,"
        "0.5662371657158972,0.10458183572895799,0.1317204471117347,0\n"
    ),
    "poisson": (
        "theta_deg,phi_deg,n,shots,repeats,m_mse_theta,m_mse_phi,cov_m,qcrb_theta,qcrb_phi,"
        "err_theta,err_phi,n_failed\n"
        "25.0,36.0,1,500,40,0.498187125076637,1.7625060616184174,0.045032592709222385,0.5,"
        "2.799454966056695,0.09198805609759578,0.5688151173905629,0\n"
        "70.0,36.0,1,500,40,0.5015283752590757,0.547048390657079,-0.09644284554721991,0.5,"
        "0.5662371657158972,0.10458183572895799,0.1317204471117347,0\n"
    ),
}


GOLDEN_HEISENBERG_ARGS = [
    "heisenberg",
    "--theta-deg",
    "8.5",
    "--phi-deg",
    "8.5",
    "--n-max",
    "4",
    "--shots",
    "1000",
    "--repeats",
    "50",
    "--seed",
    "7",
]
# Outputs of GOLDEN_HEISENBERG_ARGS, recorded before the campaign statistics
# took their standard errors from the deviations they already form.
GOLDEN_HEISENBERG_CSV = (
    "n,m_mse_theta,m_mse_phi,qcrb_theta,qcrb_phi,snl_theta,snl_phi\n"
    "1,0.515852864352994,24.72898274604204,0.5,22.885785902786992,0.5,22.885785902786992\n"
    "2,0.14706882611087563,1.6878096158386688,0.125,1.4623096064805698,0.25,"
    "2.9246192129611397\n"
    "3,0.05898810591059196,0.26421326303598003,0.05555555555555555,0.29974972571542197,"
    "0.16666666666666666,0.899249177146266\n"
    "4,0.023193700507850423,0.11131116427073091,0.03125,0.0999370945424198,0.125,"
    "0.3997483781696792\n"
)
GOLDEN_HEISENBERG_JSON = (
    '[\n'
    '  {\n'
    '    "n": 1,\n'
    '    "m_mse_theta": 0.515852864352994,\n'
    '    "m_mse_phi": 24.72898274604204,\n'
    '    "qcrb_theta": 0.5,\n'
    '    "qcrb_phi": 22.885785902786992,\n'
    '    "snl_theta": 0.5,\n'
    '    "snl_phi": 22.885785902786992\n'
    '  },\n'
    '  {\n'
    '    "n": 2,\n'
    '    "m_mse_theta": 0.14706882611087563,\n'
    '    "m_mse_phi": 1.6878096158386688,\n'
    '    "qcrb_theta": 0.125,\n'
    '    "qcrb_phi": 1.4623096064805698,\n'
    '    "snl_theta": 0.25,\n'
    '    "snl_phi": 2.9246192129611397\n'
    '  },\n'
    '  {\n'
    '    "n": 3,\n'
    '    "m_mse_theta": 0.05898810591059196,\n'
    '    "m_mse_phi": 0.26421326303598003,\n'
    '    "qcrb_theta": 0.05555555555555555,\n'
    '    "qcrb_phi": 0.29974972571542197,\n'
    '    "snl_theta": 0.16666666666666666,\n'
    '    "snl_phi": 0.899249177146266\n'
    '  },\n'
    '  {\n'
    '    "n": 4,\n'
    '    "m_mse_theta": 0.023193700507850423,\n'
    '    "m_mse_phi": 0.11131116427073091,\n'
    '    "qcrb_theta": 0.03125,\n'
    '    "qcrb_phi": 0.0999370945424198,\n'
    '    "snl_theta": 0.125,\n'
    '    "snl_phi": 0.3997483781696792\n'
    '  }\n'
    ']\n'
)


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

    def test_wcc_tolerance_is_per_unit_of_the_jacobian_scale(self, capsys):
        # The antiparallel family has zero curvature. At N = 1e5 its roundoff, about 4e-8, is far
        # below max_i |d_i psi|^2 = N^2 / 2 = 5e9, the scale --tol is judged in: 1e-8 of it is 50.
        args = ["wcc", "--family", "antiparallel", "--n", "100000", "--theta-deg", "0.0005", "--phi-deg", "0.0003"]
        assert main(args) == EXIT_OK
        curvature, verdict = capsys.readouterr().out.splitlines()
        assert verdict == "wcc_holds = true (tol = 50)"
        assert 0.0 < float(curvature.removeprefix("max_abs_curvature = ")) < 1e-6

    def test_wcc_parallel_fails_condition(self, capsys):
        code = main(["wcc", "--family", "parallel", "--theta-deg", "50", "--phi-deg", "20"])
        assert code == EXIT_OK
        assert "wcc_holds = false" in capsys.readouterr().out

    # The README's text commands, recorded before the curvature's <psi|psi> moved from np.vdot to np.vecdot.
    @pytest.mark.parametrize(
        "args, text",
        [
            (["probs", "--theta-deg", "90", "--phi-deg", "45", "--n", "1"], "0.25 0.25 0.25 0.25\n"),
            (
                ["qfim", "--theta-deg", "50", "--phi-deg", "20", "--family", "antiparallel"],
                "2 -2.35736444454e-35\n-2.35736444454e-35 1.17364817767\n",
            ),
            (
                ["wcc", "--family", "antiparallel", "--theta-deg", "50", "--phi-deg", "20"],
                "max_abs_curvature = 8.42159e-18\nwcc_holds = true (tol = 1e-08)\n",
            ),
        ],
        ids=["probs", "qfim", "wcc"],
    )
    def test_readme_text_golden(self, capsys, args, text):
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == text

    # Recorded before the curvature took its Gram matrix and overlaps from qfim_pure's
    # expressions: |sin 50 deg| for the identical pair, half of it for one qubit.
    @pytest.mark.parametrize("family, curvature", [("parallel", "0.766044"), ("single", "0.383022")])
    def test_wcc_golden(self, capsys, family, curvature):
        assert main(["wcc", "--family", family, "--theta-deg", "50", "--phi-deg", "20"]) == EXIT_OK
        assert capsys.readouterr().out == f"max_abs_curvature = {curvature}\nwcc_holds = false (tol = 1e-08)\n"


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

    @pytest.mark.parametrize("fmt, golden", [("csv", GOLDEN_HEISENBERG_CSV), ("json", GOLDEN_HEISENBERG_JSON)])
    def test_heisenberg_golden_table(self, tmp_path, fmt, golden):
        out = tmp_path / f"golden.{fmt}"
        assert main(GOLDEN_HEISENBERG_ARGS + ["--format", fmt, "--output", str(out)]) == EXIT_OK
        assert out.read_text() == golden

    @pytest.mark.parametrize("noise", sorted(GOLDEN_ERROR_BARS_CSV))
    def test_simulate_error_bars_golden_csv(self, tmp_path, noise):
        out = tmp_path / "golden.csv"
        args = GOLDEN_SIMULATE_ARGS[:-1] + ["3", "--noise", noise, "--output", str(out)]
        assert main(args) == EXIT_OK
        assert out.read_text() == GOLDEN_ERROR_BARS_CSV[noise]

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


def reference_table(columns: list[str], rows: list[list], fmt: str) -> str:
    """The csv and json calls the table commands made before, kept as the oracle for _write_table."""
    handle = io.StringIO()
    if fmt == "json":

        def value(v):
            return None if isinstance(v, float) and not math.isfinite(v) else v

        json.dump([{c: value(v) for c, v in zip(columns, row)} for row in rows], handle, indent=2)
        handle.write("\n")
    else:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    return handle.getvalue()


def written_table(columns: list[str], table: list, fmt: str) -> str:
    handle = io.StringIO()
    _write_table(handle, columns, [table], fmt)
    return handle.getvalue()


class Discard:
    def write(self, text: str) -> None:
        pass


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16]
SPECIAL_INTS = [2**63, 10**30]


@st.composite
def random_tables(draw, n_rows: int):
    """Named columns of n_rows cells: float ndarrays, float lists or int lists, drawn from small pools."""
    names = draw(st.lists(st.text("abcxyz_", min_size=1, max_size=8), min_size=1, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = []
    for _ in names:
        kind = draw(st.sampled_from(["ndarray", "floats", "ints"]))
        if kind == "ints":
            values = st.integers(-(2**64), 2**64) | st.sampled_from(SPECIAL_INTS)
        else:
            values = st.floats() | st.sampled_from(SPECIAL_FLOATS)
        pool = draw(st.lists(values, min_size=1, max_size=12))
        column = [pool[i] for i in rng.integers(len(pool), size=n_rows)]
        table.append(np.array(column, dtype=np.float64) if kind == "ndarray" else column)
    return names, table


class TestTableWriter:
    """_write_table gives the bytes of the csv/json oracle, a chunk of rows at a time."""

    # No shrink phase: each shrink step re-runs the pure-Python json.dump
    # oracle on up to 8193 rows, and test_special_values gives the minimal report.
    @pytest.mark.parametrize("n_rows", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    @settings(max_examples=5, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
    @given(data=st.data())
    def test_matches_reference_writer(self, n_rows, data):
        names, table = data.draw(random_tables(n_rows))
        rows = [list(row) for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in table))]
        for fmt in ("csv", "json"):
            # Line lists, whose first difference pytest reports at once.
            expected = reference_table(names, rows, fmt)
            assert written_table(names, table, fmt).splitlines(True) == expected.splitlines(True)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_table(self, fmt):
        assert written_table(["a", "b"], [[], []], fmt) == reference_table(["a", "b"], [], fmt)
        handle = io.StringIO()
        _write_table(handle, ["a", "b"], [[[], []], [np.empty(0), []]], fmt)
        assert handle.getvalue() == reference_table(["a", "b"], [], fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("cuts", [[0], [3], [0, 0, 5, 5, 9], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]])
    def test_blocks_join_into_one_table(self, monkeypatch, fmt, cuts):
        # Blocks split at any rows, empty ones too, and across chunk edges
        # give the bytes of the whole table in one block.
        monkeypatch.setattr(loem.cli, "_CHUNK", 4)
        floats = (SPECIAL_FLOATS * 2)[:11]
        table = [np.array(floats), list(range(11))]
        edges = [0, *cuts, 11]
        blocks = [[column[a:b] for column in table] for a, b in zip(edges, edges[1:])]
        handle = io.StringIO()
        _write_table(handle, ["a", "b"], iter(blocks), fmt)
        assert handle.getvalue() == written_table(["a", "b"], table, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_strided_columns_match_contiguous_columns(self, fmt):
        # Zero-stride, strided and reversed float columns across a chunk edge.
        n_rows = _CHUNK + 3
        x = np.random.default_rng(16).random(3 * n_rows)
        x[::5] = (SPECIAL_FLOATS * n_rows)[: len(x[::5])]
        table = [np.broadcast_to(np.float64(-0.0), n_rows), np.broadcast_to(x[:1], n_rows), x[::3], x[::-3]]
        contiguous = [np.ascontiguousarray(column) for column in table]
        assert table[0].strides == (0,) and table[2].strides == (24,)
        names = ["z", "y", "s", "r"]
        expected = written_table(names, contiguous, fmt)
        assert written_table(names, table, fmt).splitlines(True) == expected.splitlines(True)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_special_values(self, fmt):
        floats = SPECIAL_FLOATS + SPECIAL_FLOATS[::-1]
        ints = [SPECIAL_INTS[i % 2] for i in range(len(floats))]
        rows = [list(row) for row in zip(floats, floats, ints)]
        table = [np.array(floats), floats, ints]
        assert written_table(["a", "b", "c"], table, fmt) == reference_table(["a", "b", "c"], rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_surface_matches_reference_writer(self, monkeypatch, tmp_path, fmt):
        # Bands of 42 theta rows with a ragged last band, of one row
        # (R > _CHUNK), and of 6 rows with a ragged last band.
        for chunk, resolution in [(_CHUNK, 97), (64, 97), (64, 10)]:
            monkeypatch.setattr(loem.cli, "_CHUNK", chunk)
            out = tmp_path / f"surface.{fmt}"
            args = ["surface", "--resolution", str(resolution), "--n", "3", "--format", fmt, "--output", str(out)]
            assert main(args) == EXIT_OK
            # The row lists the surface command built, from the full grid,
            # before it returned columns.
            angles = np.linspace(0.0, 360.0, resolution, endpoint=False)
            theta_deg, phi_deg = np.meshgrid(angles, angles, indexing="ij")
            probs = outcome_probabilities(np.radians(theta_deg), np.radians(phi_deg), 3)
            rows = np.column_stack([theta_deg.ravel(), phi_deg.ravel(), *probs.reshape(4, -1)]).tolist()
            expected = reference_table(SURFACE_COLUMNS, rows, fmt).encode()
            assert out.read_bytes().splitlines(True) == expected.splitlines(True)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [4, _CHUNK])
    def test_patterns_shared_across_columns_and_chunks(self, monkeypatch, fmt, chunk):
        # -0.0 and 0.0 in one chunk, nan and inf in one row, each chunk's column a
        # coming back in the next chunk's column b, and a ragged last chunk of 3 rows.
        monkeypatch.setattr(loem.cli, "_CHUNK", chunk)
        n_rows = 2 * chunk + 3
        x = np.random.default_rng(30).random(n_rows + chunk)
        a, b = x[chunk:].copy(), x[:n_rows].copy()
        a[1], b[2], a[chunk + 1], b[chunk + 1] = -0.0, 0.0, 0.0, -0.0
        a[3], b[3], a[chunk + 2], b[chunk] = math.nan, math.inf, -math.inf, math.nan
        table = [a, list(range(n_rows)), b, a.tolist()]
        rows = [list(row) for row in zip(a.tolist(), range(n_rows), b.tolist(), a.tolist())]
        assert b[chunk + 2] == a[2] and b[2 * chunk] == a[chunk]
        # Line lists, whose first difference pytest reports at once.
        written = written_table(["a", "n", "b", "f"], table, fmt)
        assert written.splitlines(True) == reference_table(["a", "n", "b", "f"], rows, fmt).splitlines(True)

    def test_one_format_per_pattern_not_in_the_chunk_before(self, monkeypatch):
        formatted, reprs = [], []
        monkeypatch.setattr(loem.cli, "_CHUNK", 4)
        monkeypatch.setattr(loem.cli, "_float_texts", lambda v: formatted.append(v.tolist()) or _float_texts(v))
        monkeypatch.setattr(loem.cli, "repr", lambda v: reprs.append(v) or repr(v), raising=False)
        # The second chunk's patterns other than 5.0 are all in the first chunk, in either column;
        # the third chunk adds three patterns outside 1e-4 <= |x| < 1e16, which take repr.
        table = [
            np.array([1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0, 1e-5, 1e16, math.nan, 5.0]),
            np.array([1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 1.0, 1.0, 5.0, 1e-5, 1e16, math.nan]),
        ]
        rows = [list(row) for row in zip(*(column.tolist() for column in table))]
        assert written_table(["a", "b"], table, "csv") == reference_table(["a", "b"], rows, "csv")
        assert list(map(repr, formatted)) == ["[1.0, 2.0, 3.0, 4.0]", "[5.0]", "[1e-05, 1e+16, nan]"]
        assert list(map(repr, reprs)) == ["1e-05", "1e+16", "nan"]

    def test_float_texts_are_repr(self):
        # orjson and repr agree in 1e-4 <= |x| < 1e16 and at +-0.0; this guards that range if orjson's notation
        # changes.  Random bit patterns, mostly outside it, cost repr's ~2 us each on both sides, hence 5e4 of them.
        powers = np.array([float(f"1e{k}") for k in range(-330, 311)])
        edges = np.concatenate([powers, np.nextafter(powers, -np.inf), np.nextafter(powers, np.inf)])
        special = [0.0, 5e-324, np.finfo(np.float64).max, 2.0**53 - 1, 2.0**53 + 1, math.nan, math.inf]
        signed = np.concatenate([edges, special])
        rng = np.random.default_rng(20181)
        in_range = 10.0 ** rng.uniform(-4, 16, 200_000) * rng.choice([-1.0, 1.0], 200_000)
        values = np.concatenate(
            [
                signed,
                -signed,
                rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64),
                in_range[np.abs(in_range) < 1e16],
            ]
        )
        assert _float_texts(values) == list(map(repr, values.tolist()))
        assert _float_texts(np.empty(0)) == []

    @pytest.mark.parametrize(
        "fmt, n_columns, chunk",
        [("csv", 1, _CHUNK), ("json", 1, _CHUNK), ("csv", 6, 1024), ("json", 6, 1024)],
        ids=["csv", "json", "csv-6", "json-6"],
    )
    def test_memory_bounded_by_chunk(self, monkeypatch, fmt, n_columns, chunk):
        # Six columns bound the joint sort's temporaries and the texts kept for the next chunk;
        # they run at a smaller chunk, at the same 8x / 2x ratio of rows to chunk.
        monkeypatch.setattr(loem.cli, "_CHUNK", chunk)

        def peak(n_rows: int) -> int:
            rng = np.random.default_rng(0)
            table = [rng.random(n_rows) for _ in range(n_columns)]  # distinct floats: no cell shared
            tracemalloc.start()
            try:
                _write_table(Discard(), [f"p{i}" for i in range(n_columns)], [table], fmt)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * chunk) <= 1.25 * peak(2 * chunk)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_surface_memory_flat_in_resolution(self, tmp_path, fmt):
        def peak(resolution: int) -> int:
            args = ["surface", "--resolution", str(resolution), "--format", fmt, "--output", str(tmp_path / "s")]
            tracemalloc.start()
            try:
                assert main(args) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(256) <= 1.25 * peak(128)


def one_error_line(err: str) -> bool:
    return err.startswith("error:") and err.count("\n") == 1


# Integers too large for a float (and, above 2**63, for a C integer or a
# range length).
HUGE_N = str(10**400)
# 10^14 repeats need 2.84 PiB of counts, beyond any 48-bit address space, so
# the allocation is refused without touching memory.
HUGE_REPEATS = str(10**14)


def case_id(args: list[str]) -> str:
    return " ".join(a if len(a) <= 20 else f"<{len(a)} digits>" for a in args)


# Non-finite angles and values outside the ranges the library (or, for
# CLI-only options, the parser) accepts, and integers too large to compute
# with: each must exit 1 with one error line, containing the given text.
REJECTED_VALUES = [
    (["probs", "--theta-deg", "nan", "--phi-deg", "10"], ""),
    (["probs", "--theta-deg", "10", "--phi-deg", "10", "--format", "json"], ""),
    (["qfim", "--theta-deg", "inf", "--phi-deg", "10"], ""),
    (["probs", "--theta-deg", "10", "--phi-deg", "10", "--n", "0"], ""),
    (["qfim", "--family", "single", "--theta-deg", "10", "--phi-deg", "10", "--n", "0"], ""),
    (["surface", "--n", "0"], ""),
    (["simulate", "--phi-deg", "36", "--n", "0"], ""),
    (["heisenberg", "--theta-deg", "8.5", "--phi-deg", "8.5", "--n-max", "0"], "n_max must be in [1, inf)"),
    (["surface", "--resolution", "1"], ""),
    (["simulate", "--phi-deg", "36", "--resamples", "-1"], ""),
    (["simulate", "--phi-deg", "36", "--resamples", "1"], ""),
    (["simulate", "--phi-deg", "36", "--shots", "0"], ""),
    (["simulate", "--phi-deg", "36", "--repeats", "1"], ""),
    (["wcc", "--theta-deg", "10", "--phi-deg", "10", "--tol", "0"], ""),
    (["wcc", "--theta-deg", "10", "--phi-deg", "10", "--tol", "nan"], ""),
    (["wcc", "--theta-deg", "10", "--phi-deg", "10", "--tol", "inf"], "tol must be positive and finite"),
    (["wcc", "--theta-deg", "10", "--phi-deg", "10", "--tol", "1e400"], "tol must be positive and finite"),
    # At N = 1e5 the scale max(1, max_i |d_i psi|^2) is 5e9: a refusal names the --tol given, not its scaled value.
    (["wcc", "--theta-deg", "10", "--phi-deg", "10", "--n", "100000", "--tol=-1"], "got -1.0\n"),
    (
        ["wcc", "--theta-deg", "10", "--phi-deg", "10", "--n", "100000", "--tol", "1e300"],
        "tol = 1e+300 overflows per unit of the scale max(1, max_i |d_i psi|^2) = 5000000000.000001",
    ),
    (["probs", "--theta-deg", "1e300", "--phi-deg", "1", "--n", "1000000000000000"], ""),
    (["surface", "--n", HUGE_N], ""),
    (["simulate", "--phi-deg", "36", "--n", HUGE_N], "n_iter must be in [1, 2**53)"),
    (["heisenberg", "--theta-deg", "8.5", "--phi-deg", "8.5", "--n-max", HUGE_N], "for N = 11"),
    (["simulate", "--phi-deg", "36", "--shots", "100000000000000000000"], "shots must be in"),
    (["simulate", "--theta-deg", "10", "--phi-deg", "36", "--repeats", HUGE_REPEATS, "--resamples", "0"], ""),
    (["heisenberg", "--theta-deg", "8.5", "--phi-deg", "8.5", "--repeats", HUGE_REPEATS], ""),
    (["simulate", "--phi-deg", "36", "--repeats", "100000000000000000000"], "repeats must be in"),
    (["probs", "--theta-deg", "10", "--phi-deg", "10", "--n", HUGE_N], "n_iter must be in [1, 2**53)"),
    (["qfim", "--family", "parallel", "--theta-deg", "50", "--phi-deg", "20", "--n", "3"], "--n must be 1, got 3"),
    (["wcc", "--family", "single", "--theta-deg", "50", "--phi-deg", "20", "--n", "2"], "--n must be 1, got 2"),
    (["qfim", "--theta-deg", "50", "--phi-deg", "20", "--n", "0"], "n_iter must be in [1, 2**53)"),
    (["simulate", "--theta-deg", "5.7e-198", "--phi-deg", "5.7e-198", "--n", str(10**199)], "n_iter must be in [1, 2**53)"),
]


# The REJECTED_VALUES rows whose refused allocation is bounded in a child process.
HUGE_REPEATS_ROWS = [args for args, _ in REJECTED_VALUES if HUGE_REPEATS in args]

# Runs main(argv) and prints, as its last stdout line, main's wall time and
# the growth of the resident high-water mark (ru_maxrss, KiB).  numpy reports
# a refused allocation to tracemalloc as allocated and never releases it, so
# tracemalloc cannot bound these runs; the child's own resident set can.
_CHILD_MAIN = (
    "import resource, sys, time\n"
    "from loem.cli import main\n"
    "rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "before, start = rss(), time.perf_counter()\n"
    "code = main(sys.argv[1:])\n"
    "print(time.perf_counter() - start, rss() - before)\n"
    "sys.exit(code)\n"
)


def run_main_in_child(args: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
    """The finished child, main's wall time in seconds and its ru_maxrss growth in KiB."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(loem.cli.__file__)))
    done = subprocess.run([sys.executable, "-c", _CHILD_MAIN, *args], env=env, capture_output=True, text=True)
    elapsed, grown_kib = map(float, done.stdout.splitlines()[-1].split())  # the last line, after any table
    return done, elapsed, grown_kib


class TestExitCodes:
    @pytest.mark.parametrize("args, says", REJECTED_VALUES, ids=[case_id(args) for args, _ in REJECTED_VALUES])
    def test_rejected_value_exit_one(self, capsys, args, says):
        assert main(args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and one_error_line(captured.err) and says in captured.err

    def test_n_max_rejected_before_allocating_the_sweep(self, capsys):
        tracemalloc.start()
        try:
            code = main(["heisenberg", "--theta-deg", "8.5", "--phi-deg", "8.5", "--n-max", "1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE and "for N = 11" in capsys.readouterr().err
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("n_max", [10**300, 10**400], ids=["1e300", "1e400"])
    def test_huge_n_max_ends_at_once(self, capsys, n_max):
        # theta = phi = 0 is valid for every N below 2**53, so the sweep
        # exits 1 naming N = 2**53 before any campaign runs.
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code = main(["heisenberg", "--theta-deg", "0", "--phi-deg", "0", "--n-max", str(n_max)])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == EXIT_USAGE and one_error_line(err)
        assert f"n_iter must be in [1, 2**53) and an integer, got {2**53}" in err
        assert elapsed < 2.0 and peak < 5 * 2**20

    def test_few_shots_name_the_port_34_count(self, capsys):
        # sin^2(89 deg) is near 1, yet it blamed a sin(N theta) = 0 zero: two shots give ports 3 and 4
        # about one count per trial, so about a quarter of the trials see none
        args = ["simulate", "--theta-deg", "89", "--phi-deg", "45", "--shots", "2", "--repeats", "400"]
        assert main(args + ["--resamples", "0", "--seed", "0"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert one_error_line(err) and err.startswith("error: 98/400 estimates failed")
        assert "ports 3 and 4" in err and "M sin^2(N theta)/2 = 0.9997 per trial for N = 1, M = 2" in err

    def test_out_of_range_row_runs_no_campaign(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(loem.cli, "run_trials", lambda *a, **k: calls.append(a))
        assert main(["simulate", "--theta-deg", "10", "95", "--phi-deg", "36"]) == EXIT_USAGE
        assert calls == []
        assert one_error_line(capsys.readouterr().err)

    def test_overflowing_qcrb_runs_no_campaign(self, monkeypatch, capsys):
        # It printed qcrb_theta = qcrb_phi = 0.0 with exit 0: 2 N^2 overflowed to inf. Now N stops at 2**53.
        calls = []
        monkeypatch.setattr(loem.cli, "run_trials", lambda *a, **k: calls.append(a))
        args = ["simulate", "--theta-deg", "4.01e-153", "--phi-deg", "2.5e-153", "--n", str(10**154)]
        assert main(args + ["--repeats", "10", "--resamples", "0"]) == EXIT_USAGE
        assert calls == []
        err = capsys.readouterr().err
        assert one_error_line(err) and f"n_iter must be in [1, 2**53) and an integer, got {10**154}" in err

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

    @pytest.mark.parametrize(
        "args",
        [["surface", "--n", HUGE_N], ["simulate", "--theta-deg", "40", "95", "--phi-deg", "36"]],
        ids=["surface-huge-n", "simulate-out-of-range"],
    )
    def test_rejected_run_keeps_output_bytes(self, tmp_path, capsys, args):
        out = tmp_path / "kept"
        prior = b"prior\r\ncontents \xff\n"
        out.write_bytes(prior)
        assert main(args + ["--output", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and one_error_line(captured.err)
        assert out.read_bytes() == prior

    def test_huge_resolution_ends_at_once(self, tmp_path):
        # 10^14 angles need 728 TiB, beyond any 48-bit address space, so the
        # first band's allocation is refused without touching memory.
        out = tmp_path / "surface.csv"
        done, elapsed, grown_kib = run_main_in_child(["surface", "--resolution", str(10**14), "--output", str(out)])
        assert done.returncode == EXIT_USAGE and one_error_line(done.stderr)
        assert not out.exists()
        assert elapsed < 2.0 and grown_kib < 5 * 1024

    @pytest.mark.parametrize("args", HUGE_REPEATS_ROWS, ids=[case_id(args) for args in HUGE_REPEATS_ROWS])
    def test_huge_repeats_ends_at_once(self, args):
        done, elapsed, grown_kib = run_main_in_child(args)
        assert done.returncode == EXIT_USAGE and one_error_line(done.stderr)
        assert elapsed < 2.0 and grown_kib < 5 * 1024

    def test_usage_error_exit_one(self, capsys):
        assert main(["simulate", "--theta-deg", "95", "--n", "1"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_malformed_seed_env_exit_one(self, monkeypatch, capsys):
        monkeypatch.setenv("LOEM_SEED", "abc")
        assert main(["simulate", "--theta-deg", "40", "--phi-deg", "36"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "LOEM_SEED" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "heisenberg"])
    def test_seed_env_beyond_philox_key_exit_one(self, monkeypatch, capsys, command):
        # The CLI parses LOEM_SEED as an int; TrialConfig checks its range.
        monkeypatch.setenv("LOEM_SEED", str(2**128))
        assert main([command, "--theta-deg", "40", "--phi-deg", "36"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be in [0, 2**128)") and err.count("\n") == 1

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

    @pytest.mark.parametrize("command", ["qfim", "wcc"])
    def test_n_beyond_float_integers_exit_one(self, capsys, command):
        # N = 10**160 overflowed the squared derivative: exit 2. Below 2**53 the QFIM is at most 2 N^2 < 2**107.
        args = [command, "--theta-deg", "10", "--phi-deg", "10", "--n"]
        assert main(args + [str(2**53 - 1)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out and "nan" not in out and "inf" not in out
        assert main(args + [str(2**53)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and one_error_line(captured.err) and "n_iter must be in [1, 2**53)" in captured.err

    def test_huge_integer_no_traceback(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(loem.cli.__file__)))
        args = ["probs", "--theta-deg", "10", "--phi-deg", "10", "--n", HUGE_N]
        done = subprocess.run([sys.executable, "-m", "loem", *args], env=env, capture_output=True, text=True)
        assert done.returncode == EXIT_USAGE
        assert done.stdout == "" and one_error_line(done.stderr)
        assert "Traceback" not in done.stderr

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
        n=st.one_of(st.integers(-2, 12), st.integers(10**15, 10**400)),
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

    # Each size option mixes valid values, so that runs succeed, with any value up to the same cap.
    ANGLES = st.floats(0.5, 22.0) | st.floats(0.0, 90.0) | st.floats(allow_nan=True, allow_infinity=True)

    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(["surface", "simulate", "heisenberg"]),
        fmt=st.sampled_from(["csv", "json"]),
        theta=ANGLES,
        phi=ANGLES,
        n=st.integers(1, 4) | st.integers(-1, 4) | st.integers(10**15, 10**400),
        resolution=st.integers(2, 6) | st.integers(-1, 6),
        shots=st.integers(10, 50) | st.integers(-1, 50),
        repeats=st.integers(2, 8) | st.integers(-1, 8),
        n_max=st.integers(1, 3) | st.integers(-1, 3),
        resamples=st.sampled_from([2, 3]),
        noise=st.sampled_from(["multinomial", "poisson"]),
        seed=st.integers(0, 2**128 - 1),
    )
    def test_table_commands(self, command, fmt, theta, phi, n, resolution, shots, repeats, n_max, **rest):
        args = [command, f"--format={fmt}"]
        if command == "surface":
            args += [f"--n={n}", f"--resolution={resolution}"]
        else:
            args += [f"--theta-deg={theta!r}", f"--phi-deg={phi!r}", f"--shots={shots}", f"--repeats={repeats}"]
            args.append(f"--seed={rest['seed']}")
        if command == "simulate":
            args += [f"--n={n}", f"--resamples={rest['resamples']}", f"--noise={rest['noise']}"]
        elif command == "heisenberg":
            args.append(f"--n-max={n_max}")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
        stderr = err.getvalue() + "".join(f"{w.message}\n" for w in caught)
        text = out.getvalue()
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL)
        if code != EXIT_OK:
            assert one_error_line(stderr) and text == ""
            return
        assert stderr == "" and "nan" not in text and "inf" not in text
        columns = {"surface": SURFACE_COLUMNS, "simulate": SIMULATE_COLUMNS, "heisenberg": HEISENBERG_COLUMNS}
        if fmt == "json":

            def reject(name):
                raise ValueError(f"non-RFC 8259 constant {name}")

            records = json.loads(text, parse_constant=reject)
            assert all(list(record) == columns[command] for record in records)
            rows = [list(record.values()) for record in records]
        else:
            header, *rows = csv.reader(io.StringIO(text))
            assert header == columns[command]
            rows = [[float(v) for v in row] for row in rows]
        assert rows and all(math.isfinite(v) for row in rows for v in row)
