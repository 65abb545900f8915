"""Measurement sampling, maximum-likelihood estimation, and Monte Carlo campaigns.

Counts are drawn per four-port trial, (theta, phi) is recovered by the exact
closed-form multinomial MLE (with an independent grid maximizer as oracle),
and repeated campaigns produce M x MSE statistics, error bars, and
Heisenberg-scaling sweeps with their Cramér-Rao and shot-noise references.
A campaign works on arrays: an (R, 4) count array, a row-wise MLE and
masked statistics, with no Python object per trial.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateConfigurationError
from .probes import antiparallel_qfim_closed, outcome_probabilities
from .quantum import check_probabilities

__all__ = [
    "NOISE_MODELS",
    "STATUS_OK",
    "STATUS_BOUNDARY",
    "STATUS_FAILED",
    "TrialConfig",
    "Estimate",
    "TrialStatistics",
    "SweepPoint",
    "trial_rng",
    "sample_counts",
    "campaign_counts",
    "mle_closed_form_batch",
    "mle_closed_form",
    "mle_grid",
    "run_trials",
    "error_bars",
    "heisenberg_sweep",
]

NOISE_MODELS = ("multinomial", "poisson")

# Per-row status codes of mle_closed_form_batch, and the Estimate.status
# string of each.
STATUS_OK, STATUS_BOUNDARY, STATUS_FAILED = 0, 1, 2
_STATUS_NAMES = ("ok", "boundary", "phi-unidentifiable")

# Fraction of failed estimates beyond which a campaign is rejected as
# degenerate.  Not applied at shots = 1, where every estimate is non-ok by
# quantization alone.  Every campaign needs two usable estimates for its
# statistics.
_MAX_FAILURE_FRACTION = 0.10

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TrialConfig:
    """One simulated campaign: true angles, iteration count, and sampling plan.

    Angles are radians and must satisfy 0 <= theta, phi < pi/(2N), the
    identifiable range of the four-port outcome model.
    """

    theta_true: float
    phi_true: float
    n_iter: int
    shots: int
    repeats: int
    seed: int
    noise_model: str = "multinomial"

    def __post_init__(self):
        if self.n_iter < 1:
            raise ValueError(f"n_iter must be >= 1, got {self.n_iter!r}")
        limit = np.pi / (2 * self.n_iter)
        for name, value in (("theta_true", self.theta_true), ("phi_true", self.phi_true)):
            if not 0.0 <= value < limit:
                raise ValueError(
                    f"{name} = {float(value)!r} rad ({np.degrees(value):g} deg) violates "
                    f"0 <= angle < pi/(2N) = {limit!r} rad ({np.degrees(limit):g} deg) for N = {self.n_iter}"
                )
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots!r}")
        if self.repeats < 2:
            raise ValueError(f"repeats must be >= 2, got {self.repeats!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"noise_model must be one of {NOISE_MODELS}, got {self.noise_model!r}")


@dataclass(frozen=True)
class Estimate:
    """A joint (theta, phi) estimate with its identifiability status."""

    theta_hat: float
    phi_hat: float
    status: str  # "ok", "phi-unidentifiable", or "boundary"


@dataclass(frozen=True)
class TrialStatistics:
    """Squared-error statistics of one campaign of repeated estimates.

    The m_times_* fields are the MSE of each angle and the sample covariance
    of the estimates (radians^2), multiplied by the shot count M.  On that
    dimensionless scale the quantum Cramér-Rao bounds qcrb_theta / qcrb_phi
    are the closed forms 1/(2N^2) and 1/(2N^2 sin^2(N theta)).  se_* fields
    are standard errors of the corresponding m_times_* sample statistics.
    Statistics cover ok and boundary estimates (n_ok + n_boundary >= 2 of
    them); n_failed counts the excluded phi-unidentifiable trials.  Every
    field is finite.
    """

    m_times_mse_theta: float
    m_times_mse_phi: float
    m_times_covariance: float
    se_m_mse_theta: float
    se_m_mse_phi: float
    se_m_covariance: float
    qcrb_theta: float
    qcrb_phi: float
    n_ok: int
    n_boundary: int
    n_failed: int


@dataclass(frozen=True)
class SweepPoint:
    """One row of a Heisenberg sweep: campaign statistics plus references."""

    n_iter: int
    stats: TrialStatistics
    snl_theta: float
    snl_phi: float


def trial_rng(seed: int, trial_index: int, resample_index: int = 0) -> np.random.Generator:
    """Counter-based substream keyed by (seed, trial index, resample index).

    Each key selects a disjoint 2^128-block slice of one Philox stream, so
    draws are identical no matter in which order trials are executed.
    """
    if seed < 0 or trial_index < 0 or resample_index < 0:
        raise ValueError("seed, trial_index and resample_index must be non-negative")
    counter = (int(resample_index) << 192) | (int(trial_index) << 128)
    return np.random.Generator(np.random.Philox(key=int(seed), counter=counter))


def _sampling_distribution(probs: np.ndarray, shots: int) -> np.ndarray:
    """Validated outcome distribution, clipped at zero and renormalised."""
    probs = check_probabilities(probs)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return probs / probs.sum()


def sample_counts(
    probs: np.ndarray, shots: int, noise_model: str, rng: np.random.Generator
) -> np.ndarray:
    """Draw per-port counts for one trial.

    multinomial: counts sum to exactly ``shots``.  poisson: each port is an
    independent Poisson with mean shots * p_k, so the total fluctuates.
    """
    probs = _sampling_distribution(probs, shots)
    if noise_model == "multinomial":
        return rng.multinomial(shots, probs)
    if noise_model == "poisson":
        return rng.poisson(shots * probs)
    raise ValueError(f"noise_model must be one of {NOISE_MODELS}")


def campaign_counts(config: TrialConfig, resample_index: int = 0) -> np.ndarray:
    """Per-port counts of every trial of a campaign, as a (repeats, 4) array.

    Row t is exactly ``sample_counts(probs, shots, noise_model,
    trial_rng(seed, t, resample_index))``.  Rather than build a generator
    per trial, the campaign builds one and, before trial t, restores its
    fresh state with the counter words set to (0, 0, t, resample_index),
    the block trial_rng(seed, t, resample_index) starts at.
    """
    probs = _sampling_distribution(
        outcome_probabilities(config.theta_true, config.phi_true, config.n_iter), config.shots
    )
    rng = trial_rng(config.seed, 0, resample_index)
    bit_generator = rng.bit_generator
    fresh = bit_generator.state
    counter = fresh["state"]["counter"]
    if config.noise_model == "multinomial":
        draw = lambda: rng.multinomial(config.shots, probs)
    else:
        # Four scalar draws consume the stream exactly as rng.poisson(means)
        # does, at a third of its call overhead.
        means = [float(m) for m in config.shots * probs]
        draw = lambda: [rng.poisson(m) for m in means]
    counts = np.empty((config.repeats, 4), dtype=np.int64)
    for trial in range(config.repeats):
        counter[2] = trial
        bit_generator.state = fresh
        counts[trial] = draw()
    return counts


def _check_counts(counts: np.ndarray, ndim: int = 1) -> np.ndarray:
    """Non-negative finite counts: four with a positive total, or (R, 4) rows."""
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != ndim or counts.shape[-1] != 4:
        raise ValueError("expected four per-port counts" + (" per row" if ndim == 2 else ""))
    if np.any(counts < 0) or not np.all(np.isfinite(counts)):
        raise ValueError("counts must be non-negative and finite")
    if ndim == 1 and counts.sum() <= 0:
        raise ValueError("total count must be >= 1 for estimation")
    return counts


def mle_closed_form_batch(
    counts: np.ndarray, n_iter: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form MLE of every row of an (R, 4) count array.

    Returns theta_hat, phi_hat and a status code per row: STATUS_OK,
    STATUS_BOUNDARY (the constrained maximizer sits on an edge of the box,
    as described in mle_closed_form) or STATUS_FAILED (n34 = 0, which
    includes the zero-total rows Poisson noise can give).  Failed rows have
    phi_hat = NaN, and theta_hat = NaN too when their total is zero.
    """
    counts = _check_counts(counts, ndim=2)
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    n2, n3, n4 = counts[:, 1], counts[:, 2], counts[:, 3]
    total = counts.sum(axis=1)
    n34 = n3 + n4
    limit = np.pi / (2 * n_iter)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_hat = (2.0 * n2 + n34) / (2.0 * total)
        theta_hat = 2.0 * np.arcsin(np.sqrt(s_hat)) / n_iter
        phi_hat = np.arctan(np.sqrt(n3 / n4)) / n_iter
    # theta_hat up to 1e-12 above the limit is round-trip dust from arcsin at
    # s_hat = 1/2: clipped, but not a boundary estimate.
    pinned = (theta_hat > limit + 1e-12) | (n3 == 0) | (n4 == 0)
    theta_hat = np.minimum(theta_hat, limit)
    phi_hat = np.where(n3 == 0, 0.0, np.where(n4 == 0, limit, phi_hat))
    failed = n34 == 0
    phi_hat[failed] = np.nan
    status = np.where(failed, STATUS_FAILED, np.where(pinned, STATUS_BOUNDARY, STATUS_OK))
    return theta_hat, phi_hat, status


def mle_closed_form(counts: np.ndarray, n_iter: int = 1) -> Estimate:
    """Exact maximizer of the four-port multinomial log-likelihood.

    With n34 = n3 + n4 and M the total, the likelihood factorizes over the
    two angles, giving s_hat = (2 n2 + n34) / (2M), theta_hat =
    (2/N) arcsin(sqrt(s_hat)) and phi_hat = (1/N) arctan(sqrt(n3/n4)).

    Status is "phi-unidentifiable" when n34 = 0 (no counts carry phase
    information) and "boundary" when the constrained maximizer sits on an
    edge of [0, pi/(2N)]^2: phi_hat pinned to 0 (n3 = 0) or pi/(2N)
    (n4 = 0), or theta_hat pinned to pi/(2N) (s_hat > 1/2).  Boundary
    estimates carry the constrained-MLE values and remain usable.
    """
    theta_hat, phi_hat, status = mle_closed_form_batch(_check_counts(counts)[None, :], n_iter)
    return Estimate(float(theta_hat[0]), float(phi_hat[0]), _STATUS_NAMES[status[0]])


def _loglik_terms(count: float, prob: np.ndarray) -> np.ndarray:
    """count * log(prob) with the 0 * log 0 := 0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = count * np.log(prob)
    if count == 0:
        return np.zeros_like(np.asarray(prob, dtype=float))
    return vals


def _golden_max(f: Callable[[float], float], lo: float, hi: float, iterations: int) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def mle_grid(counts: np.ndarray, n_iter: int = 1, resolution: int = 512) -> Estimate:
    """Independent likelihood maximizer over a grid on [0, pi/(2N)]^2.

    Takes the arg-max of the log-likelihood on a resolution x resolution
    grid (ties broken toward smaller (theta, phi) lexicographically) and
    refines each coordinate with 40 golden-section iterations within one
    grid cell.  Serves as the oracle for mle_closed_form.
    """
    counts = _check_counts(counts)
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    n1, n2, n3, n4 = counts
    n34 = n3 + n4
    limit = np.pi / (2 * n_iter)
    thetas = np.linspace(0.0, limit, resolution)
    phis = np.linspace(0.0, limit, resolution)

    def theta_part(theta: np.ndarray) -> np.ndarray:
        a = n_iter * np.asarray(theta, dtype=float)
        return (
            _loglik_terms(n1, np.cos(0.5 * a) ** 4)
            + _loglik_terms(n2, np.sin(0.5 * a) ** 4)
            + _loglik_terms(n34, 0.5 * np.sin(a) ** 2)
        )

    def phi_part(phi: np.ndarray) -> np.ndarray:
        b = n_iter * np.asarray(phi, dtype=float)
        return _loglik_terms(n3, np.sin(b) ** 2) + _loglik_terms(n4, np.cos(b) ** 2)

    grid = theta_part(thetas)[:, None] + phi_part(phis)[None, :]
    flat_index = int(np.argmax(grid))  # first maximum in row-major order
    i, j = divmod(flat_index, resolution)
    cell = limit / (resolution - 1)

    theta_hat = _golden_max(
        lambda t: float(theta_part(t)), max(0.0, thetas[i] - cell), min(limit, thetas[i] + cell), 40
    )
    phi_hat = _golden_max(
        lambda p: float(phi_part(p)), max(0.0, phis[j] - cell), min(limit, phis[j] + cell), 40
    )

    # Status conventions mirror the closed form: they are properties of the
    # count pattern, not of the maximizer used.
    s_hat = (2.0 * n2 + n34) / (2.0 * counts.sum())
    if n34 == 0:
        return Estimate(float(theta_hat), float("nan"), "phi-unidentifiable")
    status = "boundary" if (n3 == 0 or n4 == 0 or s_hat > 0.5 + 1e-12) else "ok"
    return Estimate(float(theta_hat), float(phi_hat), status)


def run_trials(config: TrialConfig, resample_index: int = 0) -> TrialStatistics:
    """Run one campaign of repeated sampled estimates at the true parameters.

    Each of ``config.repeats`` trials draws counts from its own
    (seed, trial, resample) substream (campaign_counts) and is estimated by
    the closed-form MLE (mle_closed_form_batch).
    phi-unidentifiable estimates carry no phase value and are excluded from
    the statistics and counted in n_failed; boundary estimates carry the
    constrained-MLE values and are kept (dropping them biases the MSE below
    the Cramér-Rao bound wherever a port's expected count is small).  More
    than 10% failures (for shots > 1, where failures signal degeneracy
    rather than quantization), or fewer than two usable estimates at any
    shot count, raise DegenerateConfigurationError.
    """
    counts = campaign_counts(config, resample_index)
    thetas, phis, status = mle_closed_form_batch(counts, config.n_iter)
    n_failed = int(np.count_nonzero(status == STATUS_FAILED))
    if config.shots > 1 and n_failed > _MAX_FAILURE_FRACTION * config.repeats:
        raise DegenerateConfigurationError(
            f"{n_failed}/{config.repeats} estimates failed; true theta = "
            f"{config.theta_true!r} is too close to a sin(N theta) = 0 zero for N = {config.n_iter}"
        )
    usable = config.repeats - n_failed
    if usable < 2:
        raise DegenerateConfigurationError(
            f"only {usable} of {config.repeats} estimates usable with shots = {config.shots}; "
            "campaign statistics need at least 2"
        )
    return _statistics(thetas, phis, status, config)


def _statistics(
    thetas: np.ndarray, phis: np.ndarray, status: np.ndarray, config: TrialConfig
) -> TrialStatistics:
    """Campaign statistics over the (at least two) rows not STATUS_FAILED."""
    kept = status != STATUS_FAILED
    thetas, phis = thetas[kept], phis[kept]
    shots = float(config.shots)
    root_n = np.sqrt(thetas.size)
    sq_t = (thetas - config.theta_true) ** 2
    sq_p = (phis - config.phi_true) ** 2
    cross = (thetas - thetas.mean()) * (phis - phis.mean())
    qcrb = 1.0 / np.diag(antiparallel_qfim_closed(config.theta_true, config.n_iter))
    return TrialStatistics(
        m_times_mse_theta=shots * float(np.mean(sq_t)),
        m_times_mse_phi=shots * float(np.mean(sq_p)),
        m_times_covariance=shots * float(cross.sum() / (thetas.size - 1)),
        se_m_mse_theta=float(shots * np.std(sq_t, ddof=1) / root_n),
        se_m_mse_phi=float(shots * np.std(sq_p, ddof=1) / root_n),
        se_m_covariance=float(shots * np.std(cross, ddof=1) / root_n),
        qcrb_theta=float(qcrb[0]),
        qcrb_phi=float(qcrb[1]),
        n_ok=int(np.count_nonzero(status == STATUS_OK)),
        n_boundary=int(np.count_nonzero(status == STATUS_BOUNDARY)),
        n_failed=int(np.count_nonzero(~kept)),
    )


def error_bars(config: TrialConfig, resamples: int = 100) -> tuple[float, float]:
    """Monte Carlo error bars for the M x MSE values of a campaign.

    Runs ``resamples`` independent Poisson-noise repetitions of the campaign
    and returns the standard deviation of M x MSE for theta and phi.
    Repetition r draws trial t from substream (config.seed, t, r + 1);
    resample index 0 is the main campaign.
    """
    if resamples < 2:
        raise ValueError("resamples must be >= 2")
    base = dataclasses.replace(config, noise_model="poisson")
    m_mse_theta = np.empty(resamples)
    m_mse_phi = np.empty(resamples)
    for r in range(resamples):
        stats = run_trials(base, resample_index=1 + r)
        m_mse_theta[r] = stats.m_times_mse_theta
        m_mse_phi[r] = stats.m_times_mse_phi
    return float(np.std(m_mse_theta, ddof=1)), float(np.std(m_mse_phi, ddof=1))


def heisenberg_sweep(
    theta: float,
    phi: float,
    n_list: Sequence[int],
    shots: int,
    repeats: int,
    seed: int,
) -> list[SweepPoint]:
    """One campaign per iteration count N, with QCRB and shot-noise references.

    The shot-noise reference treats N iterations as N independent single-pass
    uses: M x MSE_SNL(theta) = 1/(2N), M x MSE_SNL(phi) = 1/(2N sin^2(N theta)).
    """
    # Every TrialConfig is built, and so validated, before any campaign runs.
    configs = [TrialConfig(theta, phi, int(n), shots, repeats, seed) for n in n_list]
    points = []
    for config in configs:
        n = config.n_iter
        stats = run_trials(config)
        sin_sq = float(np.sin(n * theta) ** 2)
        snl_phi = 1.0 / (2.0 * n * sin_sq)
        points.append(SweepPoint(n_iter=n, stats=stats, snl_theta=1.0 / (2.0 * n), snl_phi=snl_phi))
    return points
