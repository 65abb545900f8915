"""Command-line front end.

Angles are taken in degrees on the command line and converted to radians
internally.  Table commands (surface, simulate, heisenberg) emit CSV or JSON
with fixed column schemas; probs, qfim and wcc print single results.

Exit codes: 0 success, 1 usage error, 2 numerical degeneracy, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Iterator

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

# Only the antiparallel family takes N; the others exist at N = 1 alone.
_FAMILIES = {"antiparallel": antiparallel_family, "single": qubit_family, "parallel": identical_pair_family}


class UsageError(ValueError):
    """Invalid command line; maps to exit code 1, like every ValueError."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


def _finite(text: str) -> float:
    """A finite float; the library checks the range of an angle."""
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
    sub.add_argument("--n", type=int, default=1, help="iteration count N")


def _add_output_options(sub, table: bool = False):
    sub.add_argument("--output", type=str, default=None, help="output path (default: stdout)")
    if table:
        sub.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")


def _add_campaign_options(sub):
    sub.add_argument("--shots", type=int, default=10000, help="counts per estimate (M)")
    sub.add_argument("--repeats", type=int, default=400, help="estimates per statistic")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (default: env LOEM_SEED, then 0)")


@functools.cache
def _parser() -> _Parser:
    parser = _Parser(prog="loem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probs", help="four-port outcome probabilities")
    _add_angle_options(p)
    _add_n_option(p)
    _add_output_options(p)

    p = sub.add_parser("qfim", help="quantum Fisher information matrix from the exact Jacobian")
    _add_angle_options(p)
    _add_n_option(p)
    p.add_argument("--family", choices=tuple(_FAMILIES), default="antiparallel")
    _add_output_options(p)

    p = sub.add_parser("wcc", help="mean Uhlmann curvature / weak-commutativity check")
    p.add_argument("--family", choices=tuple(_FAMILIES), default="antiparallel")
    _add_angle_options(p)
    _add_n_option(p)
    p.add_argument("--tol", type=float, default=1e-8, help="tolerance per unit of max(1, max_i |d_i psi|^2)")
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
    p.add_argument("--n-max", type=int, default=10, help="sweep N = 1..n-max")
    _add_campaign_options(p)
    _add_output_options(p, table=True)

    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line; the seed falls back to LOEM_SEED, then 0.

    Raises UsageError on malformed input.  The ranges of angles, N, n_max,
    shots, repeats, seeds and tolerances are checked by the library, whose
    ValueError main also maps to exit code 1.
    """
    args = _parser().parse_args(argv)
    if getattr(args, "seed", 0) is None:
        try:
            args.seed = int(os.environ.get("LOEM_SEED", "0"))
        except ValueError as exc:
            raise UsageError(f"LOEM_SEED: {exc}") from None
    return args


_CHUNK = 4096  # rows formatted per write, which bounds the writer's memory
_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _float_texts(values: np.ndarray) -> list[str]:
    """repr's text of each value of a C-contiguous float64 array, from one orjson.dumps where the two agree.

    orjson prints the same shortest round-trip digits as repr (Ryu), and the
    same fixed notation for +-0.0 and 1e-4 <= |x| < 1e16.  Outside that range
    the notations differ (orjson 0.00001, 1e-7, 1e16 and null for NaN and
    inf; repr 1e-05, 1e-07, 1e+16, nan and inf), so those cells take repr.
    """
    import orjson  # here: a command with no float ndarray column skips its import

    if not len(values):
        return []
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode().split(",")
    texts[0] = texts[0][1:]  # the brackets go from the ends, not by a copy of the whole text
    texts[-1] = texts[-1][:-1]
    magnitude = np.abs(values)
    other = ~(((magnitude >= 1e-4) & (magnitude < 1e16)) | (magnitude == 0.0))  # NaN is other
    for i, value in zip(np.flatnonzero(other).tolist(), values[other].tolist()):
        texts[i] = repr(value)
    return texts


def _cells(parts: list, fmt: str, previous: tuple[np.ndarray, np.ndarray]) -> tuple[list[list[str]], tuple]:
    """Cell texts of one chunk of a table's columns: repr, the shortest round trip.

    RFC 8259 JSON has no NaN or Infinity, so JSON writes null where CSV keeps
    repr's "nan" and "inf".  The float ndarray columns are formatted together,
    once per distinct bit pattern (which keeps -0.0 apart from 0.0), by one
    _float_texts call per chunk, and a pattern found in ``previous``, the
    sorted bits and texts of the chunk before, takes its text from there
    without being formatted again.  Other columns take repr cell by cell.
    Returns the texts, a list per column, and this chunk's own bits and texts
    for the next chunk.
    """
    arrays = [part for part in parts if isinstance(part, np.ndarray)]
    if arrays:
        bits, inverse = np.unique(np.concatenate(arrays).view(np.int64), return_inverse=True)
        texts = np.empty(len(bits), dtype=object)
        new = np.ones(len(bits), dtype=bool)
        old_bits, old_texts = previous
        if len(old_bits):
            at = np.searchsorted(old_bits, bits).clip(max=len(old_bits) - 1)
            new = old_bits[at] != bits
            texts[~new] = old_texts[at[~new]]
        texts[new] = _float_texts(bits[new].view(np.float64))
        if fmt == "json":
            texts[~np.isfinite(bits.view(np.float64))] = "null"
        floats = iter(texts[inverse.reshape(len(arrays), -1)].tolist())
        previous = bits, texts
    cells = []
    for part in parts:
        if isinstance(part, np.ndarray):
            cells.append(next(floats))
        else:
            text = list(map(repr, part))
            cells.append(["null" if t in _NON_FINITE else t for t in text] if fmt == "json" else text)
    return cells, previous


def _write_table(handle, columns: list[str], blocks, fmt: str):
    """Write blocks of equal-length columns, named ``columns``, as CSV or JSON.

    Each block is a list of columns, one per name; a column is a float64
    ndarray or a sequence of Python ints and floats.  The text is what
    csv.writer, and json.dump with indent 2 and a final newline, write for
    the rows of every block in turn; it is built _CHUNK rows at a time, each
    chunk one join of its cells and the fixed text around them.  Each chunk's
    float texts are kept for the next chunk, across blocks too, and nothing
    older, so memory stays bounded by _CHUNK.
    """
    if fmt == "json":
        # Each row starts with the ",\n" between rows; the table's first row drops it.
        keys = [f"    {json.dumps(c)}: " for c in columns]
        fixed = [",\n  {\n" + keys[0], *[",\n" + k for k in keys[1:]], "\n  }"]
        head, tail, empty = "[\n", "\n]\n", "[]\n"
    else:
        fixed = ["", *[","] * (len(columns) - 1), "\n"]
        head = empty = ",".join(columns) + "\n"
        tail = ""
    stride = 2 * len(columns) + 1
    row = [None] * stride  # fixed text at even places, a row's cells at odd ones
    row[::2] = fixed
    n_rows = 0
    previous = np.empty(0, dtype=np.int64), np.empty(0, dtype=object)
    for table in blocks:
        for start in range(0, len(table[0]), _CHUNK):
            cells, previous = _cells([column[start : start + _CHUNK] for column in table], fmt, previous)
            text = row * len(cells[0])
            for i, column in enumerate(cells):
                text[2 * i + 1 :: stride] = column
            if not n_rows:
                handle.write(head)
                text[0] = text[0].removeprefix(",\n")
            handle.write("".join(text))
            n_rows += len(cells[0])
    handle.write(tail if n_rows else empty)


def _state_and_jacobian(args) -> tuple[np.ndarray, np.ndarray]:
    if args.family != "antiparallel" and args.n != 1:
        raise UsageError(f"--family {args.family} has no iteration count: --n must be 1, got {args.n}")
    family = antiparallel_family(args.n) if args.family == "antiparallel" else _FAMILIES[args.family]()
    x = np.array([math.radians(args.theta_deg), math.radians(args.phi_deg)])
    return family.evaluate(x), derivatives(family, x)


def _run_probs(args) -> str:
    probs = outcome_probabilities(math.radians(args.theta_deg), math.radians(args.phi_deg), args.n)
    return " ".join(f"{p:.6g}" for p in probs) + "\n"


def _run_qfim(args) -> str:
    matrix = qfim_pure(*_state_and_jacobian(args))
    return "\n".join(" ".join(f"{v:.12g}" for v in row) for row in matrix) + "\n"


def _run_wcc(args) -> str:
    state, jac = _state_and_jacobian(args)
    curvature = uhlmann_curvature(state, jac)
    max_abs = float(np.max(np.abs(curvature)))
    # --tol is per unit of max(1, max_i |d_i psi|^2), the scale of uhlmann_curvature's check: roundoff grows with it
    scale = max(1.0, float(np.max(np.sum(np.abs(jac) ** 2, axis=0))))
    holds = wcc_holds(curvature, args.tol, scale)
    return (
        f"max_abs_curvature = {max_abs:.6g}\n"
        f"wcc_holds = {'true' if holds else 'false'} (tol = {args.tol * scale:g})\n"
    )


def _run_surface(args) -> Iterator[list[np.ndarray]]:
    """The grid in bands of theta rows, each at most _CHUNK points (one row at least)."""
    angles = np.linspace(0.0, 360.0, args.resolution, endpoint=False)
    radians = np.radians(angles)
    band = max(1, _CHUNK // args.resolution)
    for start in range(0, args.resolution, band):
        theta_deg, phi_deg = np.meshgrid(angles[start : start + band], angles, indexing="ij")
        # Probabilities from the grid axes: the band's theta as (band, 1), every phi as (R,).
        probs = outcome_probabilities(radians[start : start + band, None], radians, args.n)
        yield [theta_deg.ravel(), phi_deg.ravel(), *probs.reshape(4, -1)]


def _run_simulate(args) -> list[list[tuple]]:
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
            [theta_deg, args.phi_deg, args.n, args.shots, args.repeats, stats.m_times_mse_theta]
            + [stats.m_times_mse_phi, stats.m_times_covariance, stats.qcrb_theta, stats.qcrb_phi]
            + [err_theta, err_phi, stats.n_failed]
        )
    return [list(zip(*rows))]


def _run_heisenberg(args) -> list[list[tuple]]:
    points = heisenberg_sweep(
        theta=math.radians(args.theta_deg),
        phi=math.radians(args.phi_deg),
        n_max=args.n_max,
        shots=args.shots,
        repeats=args.repeats,
        seed=args.seed,
    )
    rows = [
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
    return [list(zip(*rows))]


# command -> (runner, column schema of its table; None for a text result).
# A table's runner returns its rows as blocks of columns.
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

    The output is opened only after a text result, or a table's first block,
    is computed, so a run that fails there leaves an existing --output file
    untouched.  The first surface band holds every phi, the largest angle
    among them, so an N * angle overflow fails before the output opens.
    """
    run, columns = _COMMANDS[args.command]
    result = run(args)
    if columns is not None:
        blocks = iter(result)
        result = itertools.chain([next(blocks)], blocks)
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

    ValueError (a malformed command line or a value the library rejects),
    OverflowError and MemoryError (a number too large to compute with or to
    allocate) exit 1, LoemError (numerical degeneracy) 2 and OSError 3.
    """
    try:
        return execute(parse_args(sys.argv[1:] if argv is None else list(argv)))
    except (ValueError, OverflowError, MemoryError) as exc:
        return _fail(exc, EXIT_USAGE)
    except LoemError as exc:
        return _fail(exc, EXIT_NUMERICAL)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
