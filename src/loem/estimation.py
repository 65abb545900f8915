"""Measurement sampling, maximum-likelihood estimation, and Monte Carlo campaigns.

Counts are drawn per four-port trial, (theta, phi) is recovered by the exact
closed-form multinomial MLE, and repeated campaigns produce M x MSE
statistics, error bars, and Heisenberg-scaling sweeps with their Cramér-Rao
and shot-noise references.
A campaign draws its trials with scalar generator calls, one loop for both
noise models, into an (R, 4) count array, then works on arrays: a row-wise
MLE, and statistics over the rows that did not fail.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError
from .probes import _angle_limit, antiparallel_qfim_closed, outcome_probabilities
from .quantum import _check_integer, check_probabilities

__all__ = [
    "NOISE_MODELS",
    "STATUS_OK",
    "STATUS_BOUNDARY",
    "STATUS_FAILED",
    "TrialConfig",
    "TrialStatistics",
    "SweepPoint",
    "trial_rng",
    "campaign_counts",
    "mle_closed_form_batch",
    "run_trials",
    "error_bars",
    "heisenberg_sweep",
]

NOISE_MODELS = ("multinomial", "poisson")

# Per-row status codes of mle_closed_form_batch.
STATUS_OK, STATUS_BOUNDARY, STATUS_FAILED = 0, 1, 2

# Fraction of failed estimates beyond which a campaign is rejected as
# degenerate.  Not applied at shots = 1, where every estimate is non-ok by
# quantization alone.  Every campaign needs two usable estimates for its
# statistics.
_MAX_FAILURE_FRACTION = 0.10

# Count rows collected in a list before one slice assignment stores them,
# which bounds the list's memory.
_ROWS = 4096


@dataclass(frozen=True)
class TrialConfig:
    """One simulated campaign: true angles, iteration count, and sampling plan.

    Angles are radians and must satisfy 0 <= theta, phi < pi/(2N), the
    identifiable range of the four-port outcome model; N is an integer in
    [1, 2**53), the integers a float64 holds exactly.
    """

    theta_true: float
    phi_true: float
    n_iter: int
    shots: int
    repeats: int
    seed: int
    noise_model: str = "multinomial"

    def __post_init__(self):
        _check_integer("n_iter", self.n_iter, 1, 53)
        _check_integer("shots", self.shots, 1, 63)
        _check_integer("repeats", self.repeats, 2, 63)
        _check_integer("seed", self.seed, 0, 128)  # a Philox key
        limit = _angle_limit(self.n_iter)
        for name, value in (("theta_true", self.theta_true), ("phi_true", self.phi_true)):
            if not 0.0 <= value < limit:
                raise ValueError(
                    f"{name} = {float(value)!r} rad ({np.degrees(value):g} deg) violates "
                    f"0 <= angle < pi/(2N) = {limit!r} rad ({np.degrees(limit):g} deg) for N = {self.n_iter}"
                )
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"noise_model must be one of {NOISE_MODELS}, got {self.noise_model!r}")


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

    The seed is the Philox key, in [0, 2**128); the two indices, each in
    [0, 2**64), are the counter's top two 64-bit words.  So each key selects
    a disjoint 2^128-block slice of one Philox stream, and draws are
    identical no matter in which order trials are executed.
    """
    _check_integer("seed", seed, 0, 128)
    _check_integer("trial_index", trial_index, 0, 64)
    _check_integer("resample_index", resample_index, 0, 64)
    counter = (int(resample_index) << 192) | (int(trial_index) << 128)  # a numpy integer overflows a shift
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def campaign_counts(config: TrialConfig, resample_index: int = 0) -> np.ndarray:
    """Per-port counts of every trial of a campaign, as a (repeats, 4) array.

    Row t is exactly the one draw ``multinomial(shots, p)`` or
    ``poisson(shots * p)`` of a fresh trial_rng(seed, t, resample_index),
    with p the outcome probabilities clipped at zero and renormalised.
    Rather than build a generator per trial, the campaign builds one and,
    before trial t, restores its fresh state with the counter words set to
    (0, 0, t, resample_index), the block trial_rng(seed, t, resample_index)
    starts at.  The fresh state is trial_rng's own, with its words as Python
    ints, which the Philox state setter reads at under half the cost of
    uint64 arrays.  A trial's four counts, one multinomial draw or four
    scalar Poisson draws, go into a flat list of up to _ROWS rows that one
    slice assignment stores.
    """
    probs = check_probabilities(outcome_probabilities(config.theta_true, config.phi_true, config.n_iter))
    probs = probs / probs.sum()
    # Allocated before the first draw, so a campaign too large for memory
    # fails at once.
    counts = np.empty((config.repeats, 4), dtype=np.int64)
    rng = trial_rng(config.seed, 0, resample_index)
    bit_generator = rng.bit_generator
    fresh = bit_generator.state
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    counter = fresh["state"]["counter"]
    shots = config.shots
    is_multinomial = config.noise_model == "multinomial"
    multinomial, poisson = rng.multinomial, rng.poisson
    # Four scalar Poisson draws consume the stream exactly as rng.poisson(means)
    # does, at about a quarter of its cost (1.9 against 8.2 us per trial).
    m1, m2, m3, m4 = (float(m) for m in shots * probs)
    flat = counts.reshape(-1)
    for start in range(0, config.repeats, _ROWS):
        rows = []
        for trial in range(start, min(start + _ROWS, config.repeats)):
            counter[2] = trial
            bit_generator.state = fresh
            rows += (
                multinomial(shots, probs).tolist()
                if is_multinomial
                else (poisson(m1), poisson(m2), poisson(m3), poisson(m4))
            )
        flat[4 * start : 4 * start + len(rows)] = rows
    return counts


def mle_closed_form_batch(
    counts: np.ndarray, n_iter: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact maximizer of the four-port multinomial log-likelihood, per row.

    For each row of an (R, 4) count array, with n34 = n3 + n4 and M the row
    total, the likelihood factorizes over the two angles, giving s_hat =
    (2 n2 + n34) / (2M), theta_hat = (2/N) arcsin(sqrt(s_hat)) and phi_hat =
    (1/N) arctan(sqrt(n3/n4)).

    Returns theta_hat, phi_hat and a status code per row.  STATUS_FAILED:
    n34 = 0, so no counts carry phase information (this includes the
    zero-total rows Poisson noise can give); phi_hat is NaN, and theta_hat
    too when the total is zero.  STATUS_BOUNDARY: the constrained maximizer
    sits on an edge of [0, pi/(2N)]^2, with phi_hat pinned to 0 (n3 = 0) or
    pi/(2N) (n4 = 0), or theta_hat pinned to pi/(2N) (s_hat > 1/2, a test
    that is exact for integer counts whose total is below 2**52).
    Boundary estimates carry the constrained-MLE values and remain usable.
    STATUS_OK otherwise.
    """
    counts = np.asarray(counts, dtype=float) + 0.0  # -0.0 becomes 0.0: n3/-0.0 is -inf, whose sqrt is NaN
    if counts.ndim != 2 or counts.shape[-1] != 4:
        raise ValueError("expected four per-port counts per row")
    # NaN fails both comparisons; initial keeps an empty array valid.
    if not (0.0 <= counts.min(initial=0.0) and counts.max(initial=0.0) < np.inf):
        raise ValueError("counts must be non-negative and finite")
    limit = _angle_limit(n_iter)
    n2, n3, n4 = counts[:, 1], counts[:, 2], counts[:, 3]
    total = counts.sum(axis=1)
    n34 = n3 + n4
    with np.errstate(divide="ignore", invalid="ignore"):
        s_hat = (2.0 * n2 + n34) / (2.0 * total)
        theta_hat = 2.0 * np.arcsin(np.sqrt(s_hat)) / n_iter
        phi_hat = np.arctan(np.sqrt(n3 / n4)) / n_iter  # exactly 0 at n3 = 0 and pi/(2N) at n4 = 0
    pinned = (s_hat > 0.5) | (n3 == 0) | (n4 == 0)
    theta_hat = np.minimum(theta_hat, limit)
    failed = n34 == 0
    phi_hat[failed] = np.nan
    status = np.where(failed, STATUS_FAILED, np.where(pinned, STATUS_BOUNDARY, STATUS_OK))
    return theta_hat, phi_hat, status


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
    n_ok, n_boundary, n_failed = np.bincount(status, minlength=3).tolist()  # STATUS_* are 0, 1, 2
    if config.shots > 1 and n_failed > _MAX_FAILURE_FRACTION * config.repeats:
        p34 = outcome_probabilities(config.theta_true, config.phi_true, config.n_iter)[2:].sum()
        raise DegenerateConfigurationError(
            f"{n_failed}/{config.repeats} estimates failed, above 10%: a trial fails when ports 3 and 4 get no "
            f"counts, and they expect M sin^2(N theta)/2 = {config.shots * p34:.4g} per trial "
            f"for N = {config.n_iter}, M = {config.shots}"
        )
    usable = config.repeats - n_failed
    if usable < 2:
        raise DegenerateConfigurationError(
            f"only {usable} of {config.repeats} estimates usable with shots = {config.shots}; "
            "campaign statistics need at least 2"
        )
    kept = status != STATUS_FAILED
    thetas, phis = thetas[kept], phis[kept]
    shots = float(config.shots)
    sq_t = (thetas - config.theta_true) ** 2
    sq_p = (phis - config.phi_true) ** 2
    cross = (thetas - thetas.mean()) * (phis - phis.mean())
    mse_t, mse_p, cross_sum = np.mean(sq_t), np.mean(sq_p), cross.sum()
    # Standard errors: shots x the terms' sample SD / sqrt(n), from their deviations.
    deviations = np.array([sq_t - mse_t, sq_p - mse_p, cross - cross_sum / usable])
    se = shots * np.sqrt(np.vecdot(deviations, deviations) / (usable * (usable - 1)))
    qcrb = 1.0 / np.diag(antiparallel_qfim_closed(config.theta_true, config.n_iter))
    return TrialStatistics(
        m_times_mse_theta=shots * float(mse_t),
        m_times_mse_phi=shots * float(mse_p),
        m_times_covariance=shots * float(cross_sum / (usable - 1)),
        se_m_mse_theta=float(se[0]),
        se_m_mse_phi=float(se[1]),
        se_m_covariance=float(se[2]),
        qcrb_theta=float(qcrb[0]),
        qcrb_phi=float(qcrb[1]),
        n_ok=n_ok,
        n_boundary=n_boundary,
        n_failed=n_failed,
    )


def error_bars(config: TrialConfig, resamples: int = 100) -> tuple[float, float]:
    """Monte Carlo error bars for the M x MSE values of a campaign.

    Runs ``resamples`` independent Poisson-noise repetitions of the campaign
    and returns the standard deviation of M x MSE for theta and phi.
    Repetition r draws trial t from substream (config.seed, t, r + 1);
    resample index 0 is the main campaign.
    """
    _check_integer("resamples", resamples, 2)
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
    n_max: int,
    shots: int,
    repeats: int,
    seed: int,
) -> list[SweepPoint]:
    """One campaign per iteration count N = 1..n_max, with QCRB and shot-noise references.

    Before any campaign runs, the first N whose TrialConfig is invalid raises
    that config's ValueError; validity is monotone in N >= 1 (the box pi/(2N)
    falls with N, and N stops at 2**53), so a check of N = 1 and n_max, and a
    bisection only when n_max fails, find it at once.

    The shot-noise reference treats N iterations as N independent single-pass
    uses: M x MSE_SNL(theta) = 1/(2N), M x MSE_SNL(phi) = 1/(2N sin^2(N theta)).
    """
    _check_integer("n_max", n_max, 1)
    n_max = int(n_max)

    def config(n: int) -> TrialConfig:
        return TrialConfig(theta, phi, n, shots, repeats, seed)

    def valid(n: int) -> bool:
        try:
            config(n)
        except ValueError:
            return False
        return True

    config(1)
    if not valid(n_max):
        lo, hi = 1, n_max
        while hi - lo > 1:  # config(lo) is valid, config(hi) is not
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if valid(mid) else (lo, mid)
        config(hi)
    points = []
    for n in range(1, n_max + 1):
        stats = run_trials(config(n))
        sin_sq = float(np.sin(n * theta) ** 2)
        snl_phi = 1.0 / (2.0 * n * sin_sq)
        points.append(SweepPoint(n_iter=n, stats=stats, snl_theta=1.0 / (2.0 * n), snl_phi=snl_phi))
    return points
