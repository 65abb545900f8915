"""Command-line front end.

Angles are taken in degrees on the command line and converted to radians
internally.  Table commands (surface, simulate, heisenberg) emit CSV or JSON
with fixed column schemas; probs, qfim and wcc print single results.

Exit codes: 0 success, 1 usage error, 2 numerical degeneracy, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
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


def _add_angle_options(sub):
    sub.add_argument("--theta-deg", type=_finite, required=True, help="polar angle in degrees")
    sub.add_argument("--phi-deg", type=_finite, required=True, help="azimuthal angle in degrees")


def _add_n_option(sub):
    # qfim and wcc ignore N for the single and parallel families, so no
    # library call would reject --n 0 there.
    sub.add_argument("--n", type=_int_at_least(1), default=1, help="iteration count N")


def _add_output_options(sub):
    sub.add_argument("--output", type=str, default=None, help="output path (default: stdout)")
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
    _add_output_options(p)

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
        "--resamples", type=_int_at_least(0), default=100, help="Monte Carlo error-bar samples (0 = skip)"
    )
    _add_output_options(p)

    p = sub.add_parser("heisenberg", help="M x MSE scaling sweep over iteration counts")
    _add_angle_options(p)
    p.add_argument("--n-max", type=_int_at_least(1), default=10, help="sweep N = 1..n-max")
    _add_campaign_options(p)
    _add_output_options(p)

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


def _run_surface(args) -> str:
    angles = np.linspace(0.0, 360.0, args.resolution, endpoint=False)
    rows = []
    for theta_deg in angles:
        theta = math.radians(theta_deg)
        for phi_deg in angles:
            p = outcome_probabilities(theta, math.radians(phi_deg), args.n)
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
    return _render_table(rows, SURFACE_COLUMNS, args.format)


def _run_simulate(args) -> str:
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
        if args.resamples >= 2:
            err_theta, err_phi = error_bars(trial, args.resamples)
        else:
            err_theta = err_phi = float("nan")
        rows.append(
            {
                "theta_deg": float(theta_deg),
                "phi_deg": float(args.phi_deg),
                "n": args.n,
                "shots": args.shots,
                "repeats": args.repeats,
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
    return _render_table(rows, SIMULATE_COLUMNS, args.format)


def _run_heisenberg(args) -> str:
    points = heisenberg_sweep(
        theta=math.radians(args.theta_deg),
        phi=math.radians(args.phi_deg),
        n_list=list(range(1, args.n_max + 1)),
        shots=args.shots,
        repeats=args.repeats,
        seed=args.seed,
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
    return _render_table(rows, HEISENBERG_COLUMNS, args.format)


_RUNNERS = {
    "probs": _run_probs,
    "qfim": _run_qfim,
    "wcc": _run_wcc,
    "surface": _run_surface,
    "simulate": _run_simulate,
    "heisenberg": _run_heisenberg,
}


def execute(args: argparse.Namespace) -> int:
    """Run a parsed command line and write its output. Returns 0."""
    _emit(_RUNNERS[args.command](args), args.output)
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
