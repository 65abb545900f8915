"""Command-line front end.

Angles are taken in degrees on the command line and converted to radians
internally.  Table commands (surface, simulate, heisenberg) emit CSV or JSON
with fixed column schemas; probs, qfim and wcc print single results.

Exit codes: 0 success, 1 usage error, 2 numerical degeneracy, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import LoemError
from .estimation import NOISE_MODELS, TrialConfig, error_bars, heisenberg_sweep, run_trials
from .information import qfim_pure, uhlmann_curvature, wcc_holds
from .probes import antiparallel_family, identical_pair_family, outcome_probabilities
from .quantum import derivatives, qubit_family

__all__ = ["UsageError", "parse_args", "execute", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

DEFAULT_THETA_SWEEP_DEG = (10.0, 25.0, 40.0, 55.0, 70.0, 85.0)

SURFACE_COLUMNS = ["theta_deg", "phi_deg", "p1", "p2", "p3", "p4"]
SIMULATE_COLUMNS = [
    "theta_deg",
    "phi_deg",
    "n",
    "shots",
    "repeats",
    "m_mse_theta",
    "m_mse_phi",
    "cov_m",
    "qcrb_theta",
    "qcrb_phi",
    "err_theta",
    "err_phi",
    "n_failed",
]
HEISENBERG_COLUMNS = [
    "n",
    "m_mse_theta",
    "m_mse_phi",
    "qcrb_theta",
    "qcrb_phi",
    "snl_theta",
    "snl_phi",
]

_FAMILIES = {
    "antiparallel": antiparallel_family,
    "single": lambda n_iter: qubit_family(),
    "parallel": lambda n_iter: identical_pair_family(),
}


class UsageError(ValueError):
    """Invalid command line; maps to exit code 1, like every ValueError."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


def _finite(text: str) -> float:
    """A finite float; the library checks the angle's range."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _seed(text: str) -> int:
    """A Philox key: an integer in [0, 2**128)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 2**128:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**128), got {text!r}")
    return value


def _resamples(text: str) -> int:
    """0 skips the error bars; error_bars needs at least 2 resamples."""
    value = _int_at_least(0)(text)
    if value == 1:
        raise argparse.ArgumentTypeError("must be 0 (skip) or >= 2, got 1")
    return value


def _add_angle_options(sub):
    sub.add_argument("--theta-deg", type=_finite, required=True, help="polar angle in degrees")
    sub.add_argument("--phi-deg", type=_finite, required=True, help="azimuthal angle in degrees")


def _add_n_option(sub):
    # qfim and wcc ignore N for the single and parallel families, so no
    # library call would reject --n 0 there.
    sub.add_argument("--n", type=_int_at_least(1), default=1, help="iteration count N")


def _add_output_options(sub, table: bool = False):
    sub.add_argument("--output", type=str, default=None, help="output path (default: stdout)")
    if table:
        sub.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")


def _add_campaign_options(sub):
    sub.add_argument("--shots", type=int, default=10000, help="counts per estimate (M)")
    sub.add_argument("--repeats", type=int, default=400, help="estimates per statistic")
    sub.add_argument("--seed", type=_seed, default=None, help="RNG seed (default: env LOEM_SEED, then 0)")


@functools.cache
def _parser() -> _Parser:
    parser = _Parser(prog="loem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probs", help="four-port outcome probabilities")
    _add_angle_options(p)
    _add_n_option(p)
    _add_output_options(p)

    p = sub.add_parser("qfim", help="numerical quantum Fisher information matrix")
    _add_angle_options(p)
    _add_n_option(p)
    p.add_argument("--family", choices=tuple(_FAMILIES), default="antiparallel")
    _add_output_options(p)

    p = sub.add_parser("wcc", help="mean Uhlmann curvature / weak-commutativity check")
    p.add_argument("--family", choices=tuple(_FAMILIES), default="antiparallel")
    _add_angle_options(p)
    _add_n_option(p)
    p.add_argument("--tol", type=float, default=1e-8, help="curvature tolerance")
    _add_output_options(p)

    p = sub.add_parser("surface", help="four-port probability surfaces on an angle grid")
    _add_n_option(p)
    p.add_argument("--resolution", type=_int_at_least(2), default=100, help="grid points per axis")
    _add_output_options(p, table=True)

    p = sub.add_parser("simulate", help="M x MSE campaign versus the quantum bound")
    p.add_argument(
        "--theta-deg",
        type=_finite,
        nargs="+",
        default=DEFAULT_THETA_SWEEP_DEG,
        help="polar angles in degrees (default: the six-point reference sweep)",
    )
    p.add_argument("--phi-deg", type=_finite, required=True, help="azimuthal angle in degrees")
    _add_n_option(p)
    _add_campaign_options(p)
    p.add_argument("--noise", choices=NOISE_MODELS, default="multinomial")
    p.add_argument(
        "--resamples", type=_resamples, default=100, help="Monte Carlo error-bar samples (0 = skip, else >= 2)"
    )
    _add_output_options(p, table=True)

    p = sub.add_parser("heisenberg", help="M x MSE scaling sweep over iteration counts")
    _add_angle_options(p)
    p.add_argument("--n-max", type=_int_at_least(1), default=10, help="sweep N = 1..n-max")
    _add_campaign_options(p)
    _add_output_options(p, table=True)

    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line; the seed falls back to LOEM_SEED, then 0.

    Raises UsageError on malformed input.  The ranges of angles, shots,
    repeats and tolerances are checked by the library, whose ValueError
    main also maps to exit code 1.
    """
    args = _parser().parse_args(argv)
    if getattr(args, "seed", 0) is None:
        try:
            args.seed = _seed(os.environ.get("LOEM_SEED", "0"))
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"LOEM_SEED {exc}") from None
    return args


def _json_value(value):
    # RFC 8259 JSON has no NaN or Infinity; CSV keeps repr's "nan" and "inf".
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_table(handle, columns: list[str], rows: list[list], fmt: str):
    """Write rows of Python values, in ``columns`` order, as CSV or JSON."""
    if fmt == "json":
        json.dump([{c: _json_value(v) for c, v in zip(columns, row)} for row in rows], handle, indent=2)
        handle.write("\n")
    else:
        writer = csv.writer(handle, lineterminator="\n")  # floats as repr: shortest round trip
        writer.writerow(columns)
        writer.writerows(rows)


def _state_and_jacobian(args) -> tuple[np.ndarray, np.ndarray]:
    family = _FAMILIES[args.family](args.n)
    x = np.array([math.radians(args.theta_deg), math.radians(args.phi_deg)])
    return family.evaluate(x), derivatives(family, x)


def _run_probs(args) -> str:
    probs = outcome_probabilities(math.radians(args.theta_deg), math.radians(args.phi_deg), args.n)
    return " ".join(f"{p:.6g}" for p in probs) + "\n"


def _run_qfim(args) -> str:
    matrix = qfim_pure(*_state_and_jacobian(args))
    return "\n".join(" ".join(f"{v:.12g}" for v in row) for row in matrix) + "\n"


def _run_wcc(args) -> str:
    curvature = uhlmann_curvature(*_state_and_jacobian(args))
    max_abs = float(np.max(np.abs(curvature)))
    holds = wcc_holds(curvature, args.tol)
    return (
        f"max_abs_curvature = {max_abs:.6g}\n"
        f"wcc_holds = {'true' if holds else 'false'} (tol = {args.tol:g})\n"
    )


def _run_surface(args) -> list[list]:
    angles = np.linspace(0.0, 360.0, args.resolution, endpoint=False)
    theta_deg, phi_deg = np.meshgrid(angles, angles, indexing="ij")
    probs = outcome_probabilities(np.radians(theta_deg), np.radians(phi_deg), args.n)
    return np.column_stack([theta_deg.ravel(), phi_deg.ravel(), *probs.reshape(4, -1)]).tolist()


def _run_simulate(args) -> list[list]:
    # Every row's TrialConfig is built, and so validated, before any campaign runs.
    trials = [
        TrialConfig(
            theta_true=math.radians(theta_deg),
            phi_true=math.radians(args.phi_deg),
            n_iter=args.n,
            shots=args.shots,
            repeats=args.repeats,
            seed=args.seed,
            noise_model=args.noise,
        )
        for theta_deg in args.theta_deg
    ]
    rows = []
    for theta_deg, trial in zip(args.theta_deg, trials):
        stats = run_trials(trial)
        err_theta, err_phi = error_bars(trial, args.resamples) if args.resamples else (math.nan, math.nan)
        rows.append(
            [
                theta_deg,
                args.phi_deg,
                args.n,
                args.shots,
                args.repeats,
                stats.m_times_mse_theta,
                stats.m_times_mse_phi,
                stats.m_times_covariance,
                stats.qcrb_theta,
                stats.qcrb_phi,
                err_theta,
                err_phi,
                stats.n_failed,
            ]
        )
    return rows


def _run_heisenberg(args) -> list[list]:
    points = heisenberg_sweep(
        theta=math.radians(args.theta_deg),
        phi=math.radians(args.phi_deg),
        n_list=list(range(1, args.n_max + 1)),
        shots=args.shots,
        repeats=args.repeats,
        seed=args.seed,
    )
    return [
        [
            point.n_iter,
            point.stats.m_times_mse_theta,
            point.stats.m_times_mse_phi,
            point.stats.qcrb_theta,
            point.stats.qcrb_phi,
            point.snl_theta,
            point.snl_phi,
        ]
        for point in points
    ]


# command -> (runner, column schema of its table; None for a text result)
_COMMANDS = {
    "probs": (_run_probs, None),
    "qfim": (_run_qfim, None),
    "wcc": (_run_wcc, None),
    "surface": (_run_surface, SURFACE_COLUMNS),
    "simulate": (_run_simulate, SIMULATE_COLUMNS),
    "heisenberg": (_run_heisenberg, HEISENBERG_COLUMNS),
}


def execute(args: argparse.Namespace) -> int:
    """Run a parsed command line and write its output. Returns 0.

    The output is opened only after the run succeeds, so a failed run leaves
    an existing --output file untouched.
    """
    run, columns = _COMMANDS[args.command]
    result = run(args)
    if args.output is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(args.output, "w", encoding="utf-8", newline="")
    with target as handle:
        if columns is None:
            handle.write(result)
        else:
            _write_table(handle, columns, result, args.format)
    return EXIT_OK


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    ValueError (a malformed command line or a value the library rejects)
    exits 1, LoemError (numerical degeneracy) 2 and OSError 3.
    """
    try:
        return execute(parse_args(sys.argv[1:] if argv is None else list(argv)))
    except ValueError as exc:
        return _fail(exc, EXIT_USAGE)
    except LoemError as exc:
        return _fail(exc, EXIT_NUMERICAL)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
