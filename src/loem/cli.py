"""Command-line front end.

Angles are taken in degrees on the command line and converted to radians
internally.  Table commands (surface, simulate, heisenberg) emit CSV or JSON
with fixed column schemas; probs, qfim and wcc print single results.

Exit codes: 0 success, 1 usage error, 2 numerical degeneracy, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import LoemError
from .estimation import TrialConfig, error_bars, heisenberg_sweep, run_trials
from .information import qfim_pure, uhlmann_curvature, wcc_holds
from .probes import antiparallel_family, identical_pair_family, outcome_probabilities
from .quantum import derivatives, qubit_family

__all__ = ["RunConfig", "UsageError", "parse_args", "execute", "main"]

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

_FAMILIES = ("antiparallel", "single", "parallel")


class UsageError(Exception):
    """Invalid command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """A validated CLI invocation, angles still in degrees."""

    command: str
    theta_deg: tuple[float, ...] = ()
    phi_deg: float = 0.0
    n_iter: int = 1
    n_max: int = 10
    shots: int = 10000
    repeats: int = 400
    seed: int = 0
    noise_model: str = "multinomial"
    resamples: int = 100
    resolution: int = 100
    tol: float = 1e-8
    family: str = "antiparallel"
    output: str | None = None
    format: str = "csv"


def _add_angle_options(sub, phi_required: bool):
    sub.add_argument("--theta-deg", type=float, required=True, help="polar angle in degrees")
    sub.add_argument(
        "--phi-deg", type=float, required=phi_required, default=None, help="azimuthal angle in degrees"
    )


def _add_output_options(sub):
    sub.add_argument("--output", type=str, default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")


def _seed(text: str) -> int:
    """A Philox key: an integer in [0, 2**128)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 2**128:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, 2**128) (default from LOEM_SEED), got {text!r}"
        )
    return value


def _add_campaign_options(sub, default_seed: str):
    sub.add_argument("--shots", type=int, default=10000, help="counts per estimate (M)")
    sub.add_argument("--repeats", type=int, default=400, help="estimates per statistic")
    # argparse applies type to a string default, so LOEM_SEED is checked
    # only by commands that take a seed and only when --seed is absent.
    sub.add_argument("--seed", type=_seed, default=default_seed, help="RNG seed (env LOEM_SEED)")


def _build_parser(default_seed: str) -> _Parser:
    parser = _Parser(prog="loem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probs", help="four-port outcome probabilities")
    _add_angle_options(p, phi_required=True)
    p.add_argument("--n", type=int, default=1, help="iteration count N")
    _add_output_options(p)

    p = sub.add_parser("qfim", help="numerical quantum Fisher information matrix")
    _add_angle_options(p, phi_required=True)
    p.add_argument("--n", type=int, default=1, help="iteration count N")
    p.add_argument("--family", choices=_FAMILIES, default="antiparallel")
    _add_output_options(p)

    p = sub.add_parser("wcc", help="mean Uhlmann curvature / weak-commutativity check")
    p.add_argument("--family", choices=_FAMILIES, default="antiparallel")
    _add_angle_options(p, phi_required=True)
    p.add_argument("--n", type=int, default=1, help="iteration count N")
    p.add_argument("--tol", type=float, default=1e-8, help="curvature tolerance")
    _add_output_options(p)

    p = sub.add_parser("surface", help="four-port probability surfaces on an angle grid")
    p.add_argument("--n", type=int, default=1, help="iteration count N")
    p.add_argument("--resolution", type=int, default=100, help="grid points per axis")
    _add_output_options(p)

    p = sub.add_parser("simulate", help="M x MSE campaign versus the quantum bound")
    p.add_argument(
        "--theta-deg",
        type=float,
        nargs="+",
        default=list(DEFAULT_THETA_SWEEP_DEG),
        help="polar angles in degrees (default: the six-point reference sweep)",
    )
    p.add_argument("--phi-deg", type=float, required=True, help="azimuthal angle in degrees")
    p.add_argument("--n", type=int, default=1, help="iteration count N")
    _add_campaign_options(p, default_seed)
    p.add_argument("--noise", choices=("multinomial", "poisson"), default="multinomial")
    p.add_argument("--resamples", type=int, default=100, help="Monte Carlo error-bar samples (0 = skip)")
    _add_output_options(p)

    p = sub.add_parser("heisenberg", help="M x MSE scaling sweep over iteration counts")
    _add_angle_options(p, phi_required=True)
    p.add_argument("--n-max", type=int, default=10, help="sweep N = 1..n-max")
    _add_campaign_options(p, default_seed)
    _add_output_options(p)

    return parser


def _check_angle_constraint(name: str, value_deg: float, n: int):
    limit_deg = 90.0 / n
    if not 0.0 <= value_deg < limit_deg:
        raise UsageError(
            f"{name} {value_deg!r} violates the constraint 0 <= angle < pi/(2N) "
            f"(= {limit_deg!r} degrees for N = {n})"
        )


def parse_args(argv: list[str]) -> RunConfig:
    """Parse and validate a command line into a RunConfig.

    Raises UsageError on malformed input or constraint violations.
    """
    args = _build_parser(os.environ.get("LOEM_SEED", "0")).parse_args(argv)

    command = args.command
    config = RunConfig(command=command)
    if command in ("probs", "qfim", "wcc"):
        config = dataclasses.replace(
            config,
            theta_deg=(args.theta_deg,),
            phi_deg=args.phi_deg,
            n_iter=args.n,
            family=getattr(args, "family", "antiparallel"),
            tol=getattr(args, "tol", 1e-8),
            output=args.output,
            format=args.format,
        )
        if args.n < 1:
            raise UsageError(f"--n must be >= 1, got {args.n}")
        if command == "wcc" and config.tol <= 0:
            raise UsageError(f"--tol must be positive, got {config.tol}")
    elif command == "surface":
        if args.n < 1:
            raise UsageError(f"--n must be >= 1, got {args.n}")
        if args.resolution < 2:
            raise UsageError(f"--resolution must be >= 2, got {args.resolution}")
        config = dataclasses.replace(
            config, n_iter=args.n, resolution=args.resolution, output=args.output, format=args.format
        )
    elif command == "simulate":
        thetas = tuple(float(t) for t in args.theta_deg)
        if args.n < 1:
            raise UsageError(f"--n must be >= 1, got {args.n}")
        for t in thetas:
            _check_angle_constraint("--theta-deg", t, args.n)
        _check_angle_constraint("--phi-deg", args.phi_deg, args.n)
        if args.shots < 1:
            raise UsageError(f"--shots must be >= 1, got {args.shots}")
        if args.repeats < 2:
            raise UsageError(f"--repeats must be >= 2, got {args.repeats}")
        if args.resamples < 0:
            raise UsageError(f"--resamples must be >= 0, got {args.resamples}")
        config = dataclasses.replace(
            config,
            theta_deg=thetas,
            phi_deg=args.phi_deg,
            n_iter=args.n,
            shots=args.shots,
            repeats=args.repeats,
            seed=args.seed,
            noise_model=args.noise,
            resamples=args.resamples,
            output=args.output,
            format=args.format,
        )
    elif command == "heisenberg":
        if args.n_max < 1:
            raise UsageError(f"--n-max must be >= 1, got {args.n_max}")
        for n in range(1, args.n_max + 1):
            _check_angle_constraint("--theta-deg", args.theta_deg, n)
            _check_angle_constraint("--phi-deg", args.phi_deg, n)
        if args.shots < 1:
            raise UsageError(f"--shots must be >= 1, got {args.shots}")
        if args.repeats < 2:
            raise UsageError(f"--repeats must be >= 2, got {args.repeats}")
        config = dataclasses.replace(
            config,
            theta_deg=(args.theta_deg,),
            phi_deg=args.phi_deg,
            n_max=args.n_max,
            shots=args.shots,
            repeats=args.repeats,
            seed=args.seed,
            output=args.output,
            format=args.format,
        )
    return config


def _family_for(name: str, n_iter: int):
    if name == "antiparallel":
        return antiparallel_family(n_iter)
    if name == "single":
        return qubit_family()
    if name == "parallel":
        return identical_pair_family()
    raise UsageError(f"unknown family {name!r}")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)  # shortest round-trip representation
    return str(value)


def _render_table(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in columns])
    return buffer.getvalue()


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _run_probs(config: RunConfig) -> str:
    probs = outcome_probabilities(
        math.radians(config.theta_deg[0]), math.radians(config.phi_deg), config.n_iter
    )
    return " ".join(f"{p:.6g}" for p in probs) + "\n"


def _run_qfim(config: RunConfig) -> str:
    family = _family_for(config.family, config.n_iter)
    x = np.array([math.radians(config.theta_deg[0]), math.radians(config.phi_deg)])
    matrix = qfim_pure(family.evaluate(x), derivatives(family, x))
    return "\n".join(" ".join(f"{v:.12g}" for v in row) for row in matrix) + "\n"


def _run_wcc(config: RunConfig) -> str:
    family = _family_for(config.family, config.n_iter)
    x = np.array([math.radians(config.theta_deg[0]), math.radians(config.phi_deg)])
    curvature = uhlmann_curvature(family.evaluate(x), derivatives(family, x))
    max_abs = float(np.max(np.abs(curvature)))
    holds = wcc_holds(curvature, config.tol)
    return (
        f"max_abs_curvature = {max_abs:.6g}\n"
        f"wcc_holds = {'true' if holds else 'false'} (tol = {config.tol:g})\n"
    )


def _run_surface(config: RunConfig) -> str:
    angles = np.linspace(0.0, 360.0, config.resolution, endpoint=False)
    rows = []
    for theta_deg in angles:
        theta = math.radians(theta_deg)
        for phi_deg in angles:
            p = outcome_probabilities(theta, math.radians(phi_deg), config.n_iter)
            rows.append(
                {
                    "theta_deg": float(theta_deg),
                    "phi_deg": float(phi_deg),
                    "p1": float(p[0]),
                    "p2": float(p[1]),
                    "p3": float(p[2]),
                    "p4": float(p[3]),
                }
            )
    return _render_table(rows, SURFACE_COLUMNS, config.format)


def _run_simulate(config: RunConfig) -> str:
    rows = []
    for theta_deg in config.theta_deg:
        trial = TrialConfig(
            theta_true=math.radians(theta_deg),
            phi_true=math.radians(config.phi_deg),
            n_iter=config.n_iter,
            shots=config.shots,
            repeats=config.repeats,
            seed=config.seed,
            noise_model=config.noise_model,
        )
        stats = run_trials(trial)
        if config.resamples >= 2:
            err_theta, err_phi = error_bars(trial, config.resamples)
        else:
            err_theta = err_phi = float("nan")
        rows.append(
            {
                "theta_deg": float(theta_deg),
                "phi_deg": float(config.phi_deg),
                "n": config.n_iter,
                "shots": config.shots,
                "repeats": config.repeats,
                "m_mse_theta": stats.m_times_mse_theta,
                "m_mse_phi": stats.m_times_mse_phi,
                "cov_m": stats.m_times_covariance,
                "qcrb_theta": stats.qcrb_theta,
                "qcrb_phi": stats.qcrb_phi,
                "err_theta": err_theta,
                "err_phi": err_phi,
                "n_failed": stats.n_failed,
            }
        )
    return _render_table(rows, SIMULATE_COLUMNS, config.format)


def _run_heisenberg(config: RunConfig) -> str:
    points = heisenberg_sweep(
        theta=math.radians(config.theta_deg[0]),
        phi=math.radians(config.phi_deg),
        n_list=list(range(1, config.n_max + 1)),
        shots=config.shots,
        repeats=config.repeats,
        seed=config.seed,
    )
    rows = [
        {
            "n": point.n_iter,
            "m_mse_theta": point.stats.m_times_mse_theta,
            "m_mse_phi": point.stats.m_times_mse_phi,
            "qcrb_theta": point.stats.qcrb_theta,
            "qcrb_phi": point.stats.qcrb_phi,
            "snl_theta": point.snl_theta,
            "snl_phi": point.snl_phi,
        }
        for point in points
    ]
    return _render_table(rows, HEISENBERG_COLUMNS, config.format)


_RUNNERS = {
    "probs": _run_probs,
    "qfim": _run_qfim,
    "wcc": _run_wcc,
    "surface": _run_surface,
    "simulate": _run_simulate,
    "heisenberg": _run_heisenberg,
}


def execute(config: RunConfig) -> int:
    """Run a validated configuration and write its output. Returns 0."""
    text = _RUNNERS[config.command](config)
    _emit(text, config.output)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        config = parse_args(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return execute(config)
    except LoemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
