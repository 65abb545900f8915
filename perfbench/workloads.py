"""The benchmark's workloads: inputs from a seed, timed passes, correctness gates.

Each workload repeats one *pass* (a fixed mix of *items*) until its time is
up.  Inputs of pass ``i`` depend only on (workload seed, i).

campaign  Reference ``loem simulate`` rows.  Nearly all of the time is in the
          estimation layer: substream RNGs, count sampling, the closed-form
          MLE and the Poisson error-bar resamples.
tables    ``loem surface --resolution 400`` in CSV and in JSON plus reference
          ``loem heisenberg`` sweeps: cli row building and rendering, scalar
          outcome probabilities, and multinomial multi-N campaigns without
          error bars.
geometry  QFIM and mean Uhlmann curvature of random orthogonal-probe families
          for d = 2..6 (straddling the dense/applied SLD switch at d = 4/5)
          and uniform-prior QFIM averages.  No estimation and no cli.

Which per-layer numbers should move which end-to-end metric, and where no
change is predicted:

  estimation.{trial_rng, sample_counts, mle_closed_form, run_trials,
  error_bars, heisenberg_sweep}, estimation.useful_ratio
      move work_per_s and item_ms_* on campaign; no change on geometry,
      little on tables.
  probes.outcome_probabilities, cli.execute.self_ms, cli.bytes_out
      move wall_s and peak_rss_mb on tables; no change on campaign.
  quantum.{derivatives, tensor_product, check_unitary}, probes.loem_state,
  information.{qfim_pure, uhlmann_curvature, average_qfim},
  information.uhlmann_curvature.errors
      move wall_s, item_ms_* and failed_frac on geometry; no change on
      campaign or tables.
  information.crb_bound
      small everywhere.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from loem import cli, errors, information, probes, quantum

SIMULATE_COLUMNS = [
    "theta_deg", "phi_deg", "n", "shots", "repeats", "m_mse_theta", "m_mse_phi",
    "cov_m", "qcrb_theta", "qcrb_phi", "err_theta", "err_phi", "n_failed",
]
HEISENBERG_COLUMNS = [
    "n", "m_mse_theta", "m_mse_phi", "qcrb_theta", "qcrb_phi", "snl_theta", "snl_phi",
]

#: Acceptance tolerance of criterion 4 (M x MSE against the QCRB).
CAMPAIGN_TOLERANCE = 0.15
#: Acceptance tolerance of criterion 8 (uniform-average QFIM doubling).
DOUBLING_TOLERANCE = 0.02

_CHECK_TABLES = Path(__file__).resolve().parent / "check_tables.py"


class Tally:
    """What one benchmark run did: items, failures, timings and outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_failures = 0  # items hit by a known defect; not in ``failed``
        self.problems: list[str] = []  # gate failures and unexpected errors
        self.item_ms: list[float] = []
        self.item_end: list[float] = []  # perf_counter at the end of each item
        self.speed = None  # run.HostSpeed in untraced runs
        self.work = 0
        self.bytes_out = 0
        self.outputs: dict[str, str] = {}  # CLI command line -> sha256 of its output

    def tick(self) -> None:
        """Between items: lets the host-speed reference run when it is due."""
        if self.speed is not None:
            self.speed.tick()

    def timed(self, start: float) -> None:
        """Record an item that started at ``start``."""
        end = time.perf_counter()
        self.item_ms.append((end - start) * 1e3)
        self.item_end.append(end)

    def problem(self, text: str, failed_items: int = 1) -> None:
        self.failed += failed_items
        self.problems.append(text)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _run_cli(argv: list[str], path: str, tally: Tally, record: bool) -> bool:
    """One in-process ``loem`` invocation writing to ``path``; True on exit 0."""
    tally.tick()
    tally.attempted += 1
    start = time.perf_counter()
    try:
        code = cli.main(argv + ["--output", path])
    except Exception as exc:  # a traceback the CLI should have mapped to an exit code
        code = f"{type(exc).__name__}: {exc}"
    tally.timed(start)
    if code != 0:
        tally.problem(f"loem {' '.join(argv)}: exit {code}")
        return False
    tally.bytes_out += os.path.getsize(path)
    if record:
        tally.outputs[" ".join(argv)] = _sha256(path)
    return True


def _read_csv(path: str, columns: list[str]) -> list[dict[str, float]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != columns:
        raise ValueError(f"header {rows[:1]} is not {columns}")
    return [{c: float(v) for c, v in zip(columns, row, strict=True)} for row in rows[1:]]


def _close(value: float, expected: float, rel: float = 1e-9) -> bool:
    return abs(value - expected) <= rel * abs(expected)


class Campaign:
    """Reference ``simulate`` rows at phi = 36 deg, one theta per item."""

    name = "campaign"
    THETAS_DEG = (10.0, 25.0, 40.0, 55.0, 70.0, 85.0)
    PHI_DEG = 36.0
    SHOTS = 10_000
    REPEATS = 400
    # Error-bar resamples per row.  Fewer than the CLI default of 100 so a
    # run holds enough items for a p90 latency; error_bars still does four
    # fifths of the campaigns.
    RESAMPLES = 4
    TAIL_PERCENTILE = 90.0

    def __init__(self, seed: int, outdir: str | None):
        self.seed = seed
        self.path = os.path.join(outdir, "simulate.csv") if outdir else ""
        self.rows: dict[float, list[dict[str, float]]] = {t: [] for t in self.THETAS_DEG}
        self.traced_items = 0

    def inputs(self, index: int) -> list[list[str]]:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        return [
            [
                "simulate", "--theta-deg", repr(theta), "--phi-deg", repr(self.PHI_DEG),
                "--shots", str(self.SHOTS), "--repeats", str(self.REPEATS),
                "--resamples", str(self.RESAMPLES), "--seed", str(rng.randrange(2**63)),
            ]
            for theta in self.THETAS_DEG
        ]

    def run_pass(self, inputs, tally: Tally, first: bool, traced: bool) -> None:
        for argv, theta in zip(inputs, self.THETAS_DEG):
            if traced:
                self.traced_items += 1
            if not _run_cli(argv, self.path, tally, first):
                continue
            tally.work += self.REPEATS * (1 + self.RESAMPLES)
            try:
                (row,) = _read_csv(self.path, SIMULATE_COLUMNS)
            except ValueError as exc:
                tally.problem(f"simulate theta {theta}: unreadable output: {exc}")
                continue
            bad = self._row_problem(row, theta)
            if bad:
                tally.problem(f"simulate theta {theta}: {bad}")
            else:
                self.rows[theta].append(row)

    def _row_problem(self, row: dict[str, float], theta_deg: float) -> str | None:
        if not all(math.isfinite(v) for v in row.values()):
            return f"non-finite value in {row}"
        echo = (row["theta_deg"], row["phi_deg"], row["n"], row["shots"], row["repeats"])
        if echo != (theta_deg, self.PHI_DEG, 1.0, self.SHOTS, self.REPEATS):
            return f"inputs echoed as {echo}"
        sin_sq = math.sin(math.radians(theta_deg)) ** 2
        if not (_close(row["qcrb_theta"], 0.5) and _close(row["qcrb_phi"], 0.5 / sin_sq)):
            return f"QCRB ({row['qcrb_theta']}, {row['qcrb_phi']}) is not (1/2, 1/(2 sin^2 theta))"
        if min(row["m_mse_theta"], row["m_mse_phi"], row["err_theta"], row["err_phi"]) <= 0:
            return "M x MSE or error bar is not positive"
        if row["n_failed"] < 0 or row["n_failed"] != int(row["n_failed"]):
            return f"n_failed = {row['n_failed']}"
        return None

    def check_pass(self, inputs, tally: Tally, first: bool) -> None:
        pass

    def finish(self, tally: Tally) -> None:
        """M x MSE within 15% of the QCRB per theta; covariance within 3 SE.

        A single 400-repeat row estimates M x MSE with a relative standard
        error of about sqrt(2/400) = 7%, so 15% is only two standard errors
        and a correct program fails it on some rows; a 3 SE test on every row
        would also fire on some row of most runs.  The gates therefore pool
        the run: M x MSE over each theta's rows, and the covariance over all
        rows (the summed M x cov over its standard error sqrt(sum M x
        MSE_theta * M x MSE_phi / repeats), which holds for uncorrelated
        estimates), so a correct program fails the covariance gate in about
        0.3% of runs and the M x MSE gates practically never.  A failed gate
        fails every row it pooled.
        """
        all_rows = [r for rows in self.rows.values() for r in rows]
        for theta, rows in self.rows.items():
            if not rows:
                continue
            ratio_theta = sum(r["m_mse_theta"] for r in rows) / len(rows) / rows[0]["qcrb_theta"]
            ratio_phi = sum(r["m_mse_phi"] for r in rows) / len(rows) / rows[0]["qcrb_phi"]
            if abs(ratio_theta - 1.0) >= CAMPAIGN_TOLERANCE or abs(ratio_phi - 1.0) >= CAMPAIGN_TOLERANCE:
                tally.problem(
                    f"simulate theta {theta} over {len(rows)} rows: M x MSE / QCRB = "
                    f"({ratio_theta:.3f}, {ratio_phi:.3f})",
                    failed_items=len(rows),
                )
        if all_rows:
            se = math.sqrt(sum(r["m_mse_theta"] * r["m_mse_phi"] for r in all_rows) / self.REPEATS)
            z_cov = sum(r["cov_m"] for r in all_rows) / se
            if abs(z_cov) >= 3.0:
                tally.problem(
                    f"simulate over {len(all_rows)} rows: covariance {z_cov:+.2f} SE",
                    failed_items=len(all_rows),
                )

    def self_check(self, tracer) -> list[str]:
        """trial_rng is called once per trial of every campaign.

        A row runs 1 + RESAMPLES campaigns of REPEATS trials.  One call per
        campaign (the per-campaign substreams planned in ROADMAP item 2) is
        accepted as well.
        """
        if "estimation.trial_rng" not in tracer.found:
            return []
        calls = tracer.stats["estimation.trial_rng"][0]
        campaigns = self.traced_items * (1 + self.RESAMPLES)
        if calls in (campaigns * self.REPEATS, campaigns):
            return []
        return [
            f"estimation.trial_rng: {calls} calls, expected {campaigns * self.REPEATS} "
            f"({self.traced_items} items x {self.REPEATS} repeats x {1 + self.RESAMPLES})"
        ]


class Tables:
    """Probability surfaces in CSV and JSON plus reference Heisenberg sweeps."""

    name = "tables"
    RESOLUTION = 400
    # Sweeps per pass: enough that they are over a quarter of the pass and
    # hold the median item.
    SWEEPS = 12
    HEISENBERG = [
        "heisenberg", "--theta-deg", "8.5", "--phi-deg", "8.5", "--n-max", "10",
        "--shots", "10000", "--repeats", "400",
    ]
    # A pass has 14 items, so a run holds too few for a tail beyond p50.
    TAIL_PERCENTILE = 50.0

    def __init__(self, seed: int, outdir: str | None):
        self.seed = seed
        self.outdir = outdir or ""
        self.surface_ok: dict[str, bool] = {}
        self.traced_surfaces = 0

    def inputs(self, index: int) -> dict:
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        return {
            "sweeps": [self.HEISENBERG + ["--seed", str(rng.randrange(2**63))] for _ in range(self.SWEEPS)],
            "check_seed": rng.randrange(2**63),
        }

    def _surface_path(self, fmt: str) -> str:
        return os.path.join(self.outdir, f"surface.{fmt}")

    def run_pass(self, inputs, tally: Tally, first: bool, traced: bool) -> None:
        for fmt in ("csv", "json"):
            argv = ["surface", "--resolution", str(self.RESOLUTION), "--format", fmt]
            if traced:
                self.traced_surfaces += 1
            self.surface_ok[fmt] = _run_cli(argv, self._surface_path(fmt), tally, False)
            if self.surface_ok[fmt]:
                tally.work += self.RESOLUTION**2
        path = os.path.join(self.outdir, "heisenberg.csv")
        for argv in inputs["sweeps"]:
            if not _run_cli(argv, path, tally, first):
                continue
            try:
                rows = _read_csv(path, HEISENBERG_COLUMNS)
            except ValueError as exc:
                tally.problem(f"heisenberg: unreadable output: {exc}")
                continue
            tally.work += len(rows)
            bad = self._sweep_problem(rows)
            if bad:
                tally.problem(f"loem {' '.join(argv)}: {bad}")

    @staticmethod
    def _sweep_problem(rows: list[dict[str, float]]) -> str | None:
        if [r["n"] for r in rows] != [float(n) for n in range(1, 11)]:
            return f"rows for N = {[r['n'] for r in rows]}"
        theta = math.radians(8.5)
        for r in rows:
            n = r["n"]
            sin_sq = math.sin(n * theta) ** 2
            expected = (1 / (2 * n * n), 1 / (2 * n * n * sin_sq), 1 / (2 * n), 1 / (2 * n * sin_sq))
            got = (r["qcrb_theta"], r["qcrb_phi"], r["snl_theta"], r["snl_phi"])
            if not all(_close(g, e) for g, e in zip(got, expected)):
                return f"N = {n}: bounds {got} are not the closed forms {expected}"
            if not (0 < r["m_mse_theta"] < math.inf and 0 < r["m_mse_phi"] < math.inf):
                return f"N = {n}: M x MSE ({r['m_mse_theta']}, {r['m_mse_phi']})"
        return None

    def check_pass(self, inputs, tally: Tally, first: bool) -> None:
        """Validate the surface pair in a child process.

        Parsing the JSON table takes more memory than some implementations
        need to write it, so doing it here would set this process's peak RSS.
        """
        if not all(self.surface_ok.values()):
            return
        csv_path, json_path = self._surface_path("csv"), self._surface_path("json")
        if first:
            for fmt, path in (("csv", csv_path), ("json", json_path)):
                argv = ["surface", "--resolution", str(self.RESOLUTION), "--format", fmt]
                tally.outputs[" ".join(argv)] = _sha256(path)
        done = subprocess.run(
            [sys.executable, str(_CHECK_TABLES), csv_path, json_path,
             str(self.RESOLUTION), str(inputs["check_seed"])],
            capture_output=True, text=True, timeout=150,
        )
        try:
            report = json.loads(done.stdout.strip().splitlines()[-1])
            problems = report["problems"]
        except (IndexError, ValueError, KeyError):
            problems = [f"surface check exited {done.returncode}: {done.stderr.strip()[-300:]}"]
        if problems:
            tally.problem(f"surface: {'; '.join(problems)}", failed_items=2)

    def finish(self, tally: Tally) -> None:
        pass

    def self_check(self, tracer) -> list[str]:
        """Every surface invocation evaluates all resolution^2 grid points."""
        if "probes.outcome_probabilities" not in tracer.found:
            return []
        needed = self.traced_surfaces * self.RESOLUTION**2
        if tracer.points >= needed:
            return []
        return [
            f"probes.outcome_probabilities covered {tracer.points} points, expected at least "
            f"{needed} ({self.traced_surfaces} surfaces x {self.RESOLUTION}^2)"
        ]


class Geometry:
    """QFIM and curvature of random probe families, plus uniform QFIM averages.

    An item is ``loem_family(generator_unitary(G), 2, orthogonal_probes(d))``
    at a random point, with G a pair g + g^dagger of standard complex normal
    matrices (the construction of ROADMAP item 3's false-curvature
    reproduction) and the central-difference Jacobian.  The per-pass mix of
    d is fixed so the median item falls inside the d = 5 group and p99
    inside the d = 6 group; only the order, generators and points vary.
    CurvatureConsistencyError at these points is a known defect (ROADMAP
    item 3).  The items stay in the pass and are timed; they are counted in
    ``known_failures`` (reported as ``failed_frac`` and
    ``information.uhlmann_curvature.errors`` by the traced run), not in the
    run's ``failed`` operations, which the benchmark keeps for unexpected
    errors and failed gates.
    """

    name = "geometry"
    ITEMS_PER_DIM = {2: 8, 3: 8, 4: 10, 5: 12, 6: 2}
    AVERAGE_SAMPLES = 400
    AVERAGE_BOX = ((0.0, math.pi), (0.0, 2.0 * math.pi))
    TAIL_PERCENTILE = 99.0

    def __init__(self, seed: int, outdir: str | None):
        self.seed = seed
        self.traced_items = 0
        self.curvature_ms = {d: 0.0 for d in self.ITEMS_PER_DIM}
        self.curvature_calls = {d: 0 for d in self.ITEMS_PER_DIM}
        self.single_sum = np.zeros((2, 2))
        self.pair_sum = np.zeros((2, 2))
        self.averages = 0

    def inputs(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        dims = [d for d, count in self.ITEMS_PER_DIM.items() for _ in range(count)]
        rng.shuffle(dims)
        items = []
        for d in dims:
            gens = []
            for _ in range(2):
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                gens.append(g + g.conj().T)
            items.append((int(d), gens, rng.uniform(0.2, 0.9, size=2)))
        average_seeds = [int(s) for s in rng.integers(0, 2**63, size=2)]
        return items, average_seeds

    def run_pass(self, inputs, tally: Tally, first: bool, traced: bool) -> None:
        items, average_seeds = inputs
        for d, gens, x in items:
            tally.tick()
            tally.attempted += 1
            if traced:
                self.traced_items += 1
            curv_start = None
            failure = None
            start = time.perf_counter()
            try:
                family = probes.loem_family(probes.generator_unitary(gens), 2, probes.orthogonal_probes(d))
                state = family.evaluate(x)
                jac = quantum.derivatives(family, x)
                qfim = information.qfim_pure(state, jac)
                curv_start = time.perf_counter()
                curv = information.uhlmann_curvature(state, jac)
            except errors.CurvatureConsistencyError:
                failure = "known"
            except Exception as exc:
                failure = f"d = {d}, x = {x.tolist()}: {type(exc).__name__}: {exc}"
            tally.timed(start)
            if traced and curv_start is not None:
                self.curvature_ms[d] += (tally.item_end[-1] - curv_start) * 1e3
                self.curvature_calls[d] += 1
            if failure == "known":
                tally.known_failures += 1
                continue
            if failure is not None:
                tally.problem(failure)
                continue
            tally.work += 1
            bad = self._item_problem(qfim, curv)
            if bad:
                tally.problem(f"d = {d}, x = {x.tolist()}: {bad}")

        tally.tick()
        tally.attempted += 1
        try:
            single = information.average_qfim(quantum.qubit_family(), self.AVERAGE_BOX, self.AVERAGE_SAMPLES, average_seeds[0])
            pair = information.average_qfim(probes.antiparallel_family(1), self.AVERAGE_BOX, self.AVERAGE_SAMPLES, average_seeds[1])
        except Exception as exc:
            tally.problem(f"average_qfim: {type(exc).__name__}: {exc}")
            return
        self.single_sum += single
        self.pair_sum += pair
        self.averages += 1

    @staticmethod
    def _item_problem(qfim: np.ndarray, curv: np.ndarray) -> str | None:
        """QFIM symmetric PSD; curvature zero up to finite-difference noise."""
        if not (np.all(np.isfinite(qfim)) and np.all(np.isfinite(curv))):
            return "non-finite QFIM or curvature"
        scale = max(1.0, float(np.max(np.abs(qfim))))
        if np.max(np.abs(qfim - qfim.T)) > 1e-12 * scale:
            return f"QFIM is not symmetric: {qfim.tolist()}"
        if np.min(np.linalg.eigvalsh(qfim)) < -1e-9 * scale:
            return f"QFIM is not positive semidefinite: {qfim.tolist()}"
        if np.max(np.abs(curv)) > 1e-7 * scale:
            return f"curvature {np.max(np.abs(curv)):.3e} is not zero at QFIM scale {scale:.3e}"
        return None

    def check_pass(self, inputs, tally: Tally, first: bool) -> None:
        pass

    def finish(self, tally: Tally) -> None:
        """The pair's average QFIM is twice the single qubit's, within 2%.

        Pooled over the run's passes (each pass draws fresh points), so the
        Monte Carlo error of the gate is about 0.5 / sqrt(samples in the run).
        """
        if not self.averages:
            return
        single = self.single_sum / self.averages
        pair = self.pair_sum / self.averages
        scale = float(np.max(np.abs(2.0 * single)))
        gap = float(np.max(np.abs(pair - 2.0 * single))) / scale
        if gap >= DOUBLING_TOLERANCE:
            tally.problem(
                f"average QFIM doubling off by {gap:.2%} over {self.averages * self.AVERAGE_SAMPLES} samples",
                failed_items=self.averages,
            )

    def self_check(self, tracer) -> list[str]:
        """Every item calls uhlmann_curvature once."""
        if "information.uhlmann_curvature" not in tracer.found:
            return []
        calls = tracer.stats["information.uhlmann_curvature"][0]
        if calls == self.traced_items:
            return []
        return [f"information.uhlmann_curvature: {calls} calls for {self.traced_items} items"]


WORKLOADS = {w.name: w for w in (Campaign, Tables, Geometry)}


def build(name: str, seed: int) -> None:
    """Input construction, as timed by setup_s in a fresh interpreter."""
    WORKLOADS[name](seed, None).inputs(0)
