"""Tests for count sampling, the MLE pair, and Monte Carlo campaigns."""

import dataclasses
import re
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loem.estimation
from loem import (
    NOISE_MODELS,
    STATUS_BOUNDARY,
    STATUS_FAILED,
    STATUS_OK,
    DegenerateConfigurationError,
    TrialConfig,
    antiparallel_family,
    antiparallel_qfim_closed,
    average_qfim,
    campaign_counts,
    error_bars,
    heisenberg_sweep,
    mle_closed_form_batch,
    outcome_probabilities,
    qubit_family,
    run_trials,
    trial_rng,
)
from oracles import mle_grid, sample_counts

def loglik(counts, theta, phi, n_iter):
    probs = outcome_probabilities(theta, phi, n_iter)
    total = 0.0
    for n, p in zip(counts, probs):
        if n > 0:
            total += n * np.log(p)
    return total


def sampled_counts_all_ports_positive(rng, n_iter=1, shots=10**4):
    """Counts drawn from the outcome model at an interior point, all ports hit."""
    limit = np.pi / (2 * n_iter)
    while True:
        theta = rng.uniform(0.15 * limit, 0.85 * limit)
        phi = rng.uniform(0.15 * limit, 0.85 * limit)
        counts = rng.multinomial(shots, outcome_probabilities(theta, phi, n_iter))
        if np.all(counts >= 1):
            return counts


class TestSampleCounts:
    def test_point_mass_multinomial(self):
        counts = sample_counts(np.array([1.0, 0, 0, 0]), 100, "multinomial", trial_rng(1, 0))
        assert np.array_equal(counts, [100, 0, 0, 0])

    def test_point_mass_poisson(self):
        rng = trial_rng(1, 1)
        counts = sample_counts(np.array([1.0, 0, 0, 0]), 100, "poisson", rng)
        assert np.all(counts[1:] == 0)
        assert 50 < counts[0] < 150  # Poisson(100), 5 sigma

    def test_multinomial_moments(self):
        probs = np.full(4, 0.25)
        counts = sample_counts(probs, 10**6, "multinomial", trial_rng(2, 0))
        assert counts.sum() == 10**6
        gate = 5 * np.sqrt(10**6 * 0.25 * 0.75)
        assert np.all(np.abs(counts - 0.25 * 10**6) < gate)

    def test_deterministic_per_substream(self):
        probs = outcome_probabilities(0.5, 0.3, 1)
        a = sample_counts(probs, 1000, "multinomial", trial_rng(5, 17))
        b = sample_counts(probs, 1000, "multinomial", trial_rng(5, 17))
        assert np.array_equal(a, b)

    def test_substreams_independent_of_order(self):
        probs = outcome_probabilities(0.5, 0.3, 1)
        forward = [sample_counts(probs, 500, "multinomial", trial_rng(9, t)) for t in range(8)]
        backward = [
            sample_counts(probs, 500, "multinomial", trial_rng(9, t)) for t in reversed(range(8))
        ]
        assert all(np.array_equal(f, b) for f, b in zip(forward, reversed(backward)))

    @pytest.mark.parametrize("name, key", [("trial_index", (5, 2**64, 0)), ("resample_index", (5, 0, 2**64))])
    def test_stream_index_beyond_a_counter_word_rejected(self, name, key):
        # Trial 2**64 of resample 0 drew exactly trial 0 of resample 1.
        with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 2\*\*64\) and an integer, got {2**64}$"):
            trial_rng(*key)
        assert trial_rng(5, 2**64 - 1, 2**64 - 1).random(3).tolist() != trial_rng(5, 0, 0).random(3).tolist()

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            sample_counts(np.array([0.5, 0.4, 0.0, 0.0]), 10, "multinomial", trial_rng(0, 0))

    def test_unknown_noise_model_rejected(self):
        with pytest.raises(ValueError):
            sample_counts(np.full(4, 0.25), 10, "gaussian", trial_rng(0, 0))


# (theta_deg, phi_deg, n_iter, shots, repeats, seed, noise_model, resample_index)
CAMPAIGNS = [
    (40.0, 36.0, 1, 10**4, 60, 5, "multinomial", 0),
    (40.0, 36.0, 1, 10**4, 60, 5, "poisson", 0),
    (45.0, 30.0, 1, 1, 60, 3, "multinomial", 0),
    (45.0, 30.0, 1, 1, 60, 3, "poisson", 0),  # about a third of the totals are zero
    (12.0, 25.0, 3, 500, 40, 11, "multinomial", 0),
    (70.0, 10.0, 1, 2000, 40, 7, "multinomial", 3),
    (35.0, 10.0, 2, 200, 40, 7, "poisson", 5),
    # the largest Philox key and the largest resample counter word
    (40.0, 36.0, 1, 10**4, 40, 2**128 - 1, "multinomial", 2**64 - 1),
    (35.0, 10.0, 2, 200, 40, 2**128 - 1, "poisson", 2**64 - 1),
]


def campaign_config(case):
    theta_deg, phi_deg, n_iter, shots, repeats, seed, noise_model, _ = case
    theta, phi = np.radians(theta_deg), np.radians(phi_deg)
    return TrialConfig(theta, phi, n_iter, shots, repeats, seed, noise_model)


class TestCampaignCounts:
    @pytest.mark.parametrize("case", CAMPAIGNS)
    def test_rows_match_per_trial_substreams(self, case):
        config, resample = campaign_config(case), case[-1]
        counts = campaign_counts(config, resample)
        assert counts.shape == (config.repeats, 4)
        probs = outcome_probabilities(config.theta_true, config.phi_true, config.n_iter)
        for trial, row in enumerate(counts):
            rng = trial_rng(config.seed, trial, resample)
            expected = sample_counts(probs, config.shots, config.noise_model, rng)
            assert np.array_equal(row, expected), trial

    @pytest.mark.parametrize("noise_model", NOISE_MODELS)
    def test_rows_match_per_trial_substreams_across_store_chunks(self, monkeypatch, noise_model):
        # 10 trials are four chunks of 3 rows, the last one short.
        monkeypatch.setattr(loem.estimation, "_ROWS", 3)
        config = dataclasses.replace(campaign_config(CAMPAIGNS[6]), repeats=10, noise_model=noise_model)
        counts = campaign_counts(config, 5)
        probs = outcome_probabilities(config.theta_true, config.phi_true, config.n_iter)
        expected = [sample_counts(probs, config.shots, noise_model, trial_rng(config.seed, t, 5)) for t in range(10)]
        assert np.array_equal(counts, expected)

    def test_poisson_zero_totals_drawn(self):
        counts = campaign_counts(campaign_config(CAMPAIGNS[3]))
        assert np.any(counts.sum(axis=1) == 0)

    def test_one_generator_per_campaign(self, monkeypatch):
        calls = []

        def counting_rng(*key):
            calls.append(key)
            return trial_rng(*key)

        monkeypatch.setattr(loem.estimation, "trial_rng", counting_rng)
        campaign_counts(campaign_config(CAMPAIGNS[5]), 3)
        assert calls == [(7, 0, 3)]

    @pytest.mark.parametrize("noise_model", NOISE_MODELS)
    def test_huge_campaign_refused_before_drawing(self, noise_model):
        # 10^14 rows of counts need 3.2 PB: the up-front allocation fails at
        # once, where drawing first would run for days.  The timer turns such
        # a run into a failure after 2 s instead of a hang.
        config = dataclasses.replace(campaign_config(CAMPAIGNS[0]), repeats=10**14, noise_model=noise_model)

        def out_of_time(signum, frame):
            raise TimeoutError("campaign_counts drew before allocating")

        previous = signal.signal(signal.SIGALRM, out_of_time)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            with pytest.raises(MemoryError):
                campaign_counts(config)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


class TestMleClosedFormBatch:
    EDGE_ROWS = [
        [800, 100, 0, 100],  # n3 = 0: phi pinned to 0
        [800, 100, 100, 0],  # n4 = 0: phi pinned to pi/(2N)
        [500, 20, 0, 0],  # n34 = 0: phi unidentifiable
        [0, 900, 50, 50],  # s_hat > 1/2: theta pinned to pi/(2N)
        [499999999998, 499999999999, 2, 1],  # s_hat = 1/2 + 1/(2M) at M = 1e12 and 1e13: pinned too,
        [4999999999998, 4999999999999, 2, 1],  # though theta_hat passes pi/(2N) by only about 1/(N M)
        [0, 0, 3, 0],
        [1, 0, 0, 0],
    ]

    @pytest.mark.parametrize("n_iter", [1, 3])
    def test_matches_grid_oracle(self, n_iter):
        rng = np.random.default_rng(23)
        rows = [sampled_counts_all_ports_positive(rng, n_iter) for _ in range(8)]
        rows += [rng.integers(0, 6, size=4) for _ in range(12)] + self.EDGE_ROWS
        counts = np.array([r for r in rows if np.sum(r) > 0])
        thetas, phis, status = mle_closed_form_batch(counts, n_iter)
        tol = 2 * (np.pi / (2 * n_iter)) / 128
        for row, theta, phi, code in zip(counts, thetas, phis, status):
            grid_theta, grid_phi, grid_code = mle_grid(row, n_iter, resolution=128)
            assert code == grid_code, row
            assert abs(theta - grid_theta) < tol, row
            if code == STATUS_FAILED:
                assert np.isnan(phi) and np.isnan(grid_phi)
            else:
                assert abs(phi - grid_phi) < tol, row

    def test_zero_total_row_fails(self):
        thetas, phis, status = mle_closed_form_batch(np.array([[0, 0, 0, 0], [10, 10, 10, 10]]))
        assert list(status) == [STATUS_FAILED, STATUS_OK]
        assert np.isnan(thetas[0]) and np.isnan(phis[0])

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            mle_closed_form_batch(np.array([1, 2, 3, 4]))
        with pytest.raises(ValueError):
            mle_closed_form_batch(np.array([[1, 2, 3, -4]]))
        with pytest.raises(ValueError):
            mle_closed_form_batch(np.array([[1, 2, 3, 4]]), n_iter=0)


# One row per fixed point: counts, N, the expected theta_hat, phi_hat and
# status, and the tolerance on both angles (0 asks for the same float64 bytes,
# so -0.0 fails against 0.0).  None leaves that angle unchecked.
MLE_FIXED_POINTS = {
    "all_counts_in_port_one": ([1000, 0, 0, 0], 1, 0.0, None, STATUS_FAILED, 0.0),
    # stationary point of the multinomial log-likelihood; grid cross-check below
    "uniform_counts": ([2500, 2500, 2500, 2500], 1, np.pi / 2, np.pi / 4, STATUS_OK, 1e-12),
    # s = 0.1 -> theta = 2 arcsin(sqrt(0.1)), n3 = n4 -> phi = pi/4
    "frozen_reference_counts": ([8100, 100, 900, 900], 1, 0.6435011087932844, np.pi / 4, STATUS_OK, 1e-12),
    "phi_pinned_low": ([800, 100, 0, 100], 1, None, 0.0, STATUS_BOUNDARY, 0.0),
    "phi_pinned_high": ([800, 100, 100, 0], 2, None, np.pi / 4, STATUS_BOUNDARY, 0.0),
    "phi_pinned_low_n7": ([800, 100, 0, 100], 7, None, 0.0, STATUS_BOUNDARY, 0.0),
    "phi_pinned_high_n7": ([800, 100, 100, 0], 7, None, np.pi / 14, STATUS_BOUNDARY, 0.0),
    "phi_pinned_low_uint8": ([800, 100, 0, 100], np.uint8(200), None, 0.0, STATUS_BOUNDARY, 0.0),
    "phi_pinned_high_uint8": ([800, 100, 100, 0], np.uint8(200), None, np.pi / 400, STATUS_BOUNDARY, 0.0),
    # A -0.0 count is a zero count: n3/n4 would be -0.0, or -inf with a NaN square root.
    "phi_pinned_low_negative_zero": ([800, 100, -0.0, 100], 7, None, 0.0, STATUS_BOUNDARY, 0.0),
    "phi_pinned_high_negative_zero": ([800, 100, 100, -0.0], 7, None, np.pi / 14, STATUS_BOUNDARY, 0.0),
    # s_hat = (2 n2 + n34) / (2M) > 1/2 pins theta to pi/(2N)
    "theta_pinned_at_box_edge": ([0, 900, 50, 50], 1, np.pi / 2, None, STATUS_BOUNDARY, 0.0),
    # s_hat = 1/2 + 1/(2M) with M = 1e12 and 1e13, n2 = (M - 2) // 2: theta_hat is about 1/M past the edge
    "theta_pinned_m_1e12": ([499999999998, 499999999999, 2, 1], 1, np.pi / 2, None, STATUS_BOUNDARY, 0.0),
    "theta_pinned_m_1e13": ([4999999999998, 4999999999999, 2, 1], 1, np.pi / 2, None, STATUS_BOUNDARY, 0.0),
}


class TestMleClosedForm:
    @pytest.mark.parametrize(
        "counts, n_iter, theta, phi, code, tol", MLE_FIXED_POINTS.values(), ids=MLE_FIXED_POINTS
    )
    def test_fixed_point(self, counts, n_iter, theta, phi, code, tol):
        thetas, phis, status = mle_closed_form_batch(np.array([counts]), n_iter)
        assert status[0] == code
        for estimate, expected in ((thetas[0], theta), (phis[0], phi)):
            if expected is None:
                continue
            if tol == 0.0:
                assert np.float64(estimate).tobytes() == np.float64(expected).tobytes()
            else:
                assert abs(estimate - expected) <= tol

    def test_is_stationary_point_of_loglik(self):
        rng = np.random.default_rng(21)
        h = 1e-5
        for _ in range(25):
            counts = sampled_counts_all_ports_positive(rng)
            (theta,), (phi,), (code,) = mle_closed_form_batch(counts[None, :], 1)
            assert code == STATUS_OK
            total = counts.sum()
            grad_t = (
                loglik(counts, theta + h, phi, 1) - loglik(counts, theta - h, phi, 1)
            ) / (2 * h)
            grad_p = (
                loglik(counts, theta, phi + h, 1) - loglik(counts, theta, phi - h, 1)
            ) / (2 * h)
            assert np.hypot(grad_t, grad_p) < 1e-6 * total


class TestMleGrid:
    def test_matches_closed_form_on_sampled_counts(self):
        rng = np.random.default_rng(22)
        for n_iter in (1, 2):
            tol = 2 * (np.pi / (2 * n_iter)) / 128
            for _ in range(20):
                counts = sampled_counts_all_ports_positive(rng, n_iter)
                (theta,), (phi,), _ = mle_closed_form_batch(counts[None, :], n_iter)
                grid_theta, grid_phi, _ = mle_grid(counts, n_iter, resolution=128)
                assert abs(grid_theta - theta) < tol
                assert abs(grid_phi - phi) < tol

    def test_all_counts_in_port_one(self):
        # the log-likelihood is numerically flat within ~1e-7 of theta = 0
        theta, _, code = mle_grid(np.array([500, 0, 0, 0]), 1, resolution=64)
        assert theta < 1e-6
        assert code == STATUS_FAILED

    def test_recovers_truth_from_expected_counts(self):
        # exact frequencies maximize the likelihood at the truth
        for theta, phi, n_iter in ((0.6, 0.9, 1), (0.2, 0.11, 3)):
            expected = 10**4 * outcome_probabilities(theta, phi, n_iter)
            theta_hat, phi_hat, _ = mle_grid(expected, n_iter, resolution=256)
            assert abs(theta_hat - theta) < 1e-6
            assert abs(phi_hat - phi) < 1e-6

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            mle_grid(np.array([1, 1, 1, 1]), 1, resolution=8)


class TestTrialConfig:
    def test_angle_constraint_enforced(self):
        with pytest.raises(ValueError):
            TrialConfig(theta_true=np.pi / 2, phi_true=0.1, n_iter=1, shots=10, repeats=2, seed=0)
        with pytest.raises(ValueError):  # pi/(2N) = 0.314 at N = 5
            TrialConfig(theta_true=0.2, phi_true=0.32, n_iter=5, shots=10, repeats=2, seed=0)
        # pi/300 lies inside pi/144, the box a wrapped 2 * np.uint8(200) gave, but outside pi/400.
        with pytest.raises(ValueError, match=r"violates 0 <= angle < pi/\(2N\) = 0\.00785"):
            TrialConfig(np.pi / 300, 0.001, np.uint8(200), 100, 10, 0)

    def test_sampling_plan_validated(self):
        with pytest.raises(ValueError):
            TrialConfig(0.1, 0.1, 1, shots=0, repeats=10, seed=0)
        with pytest.raises(ValueError):
            TrialConfig(0.1, 0.1, 1, shots=10, repeats=1, seed=0)
        with pytest.raises(ValueError):
            TrialConfig(0.1, 0.1, 1, shots=10, repeats=10, seed=-3)
        with pytest.raises(ValueError):
            TrialConfig(0.1, 0.1, 1, shots=10, repeats=10, seed=0, noise_model="gaussian")

    @pytest.mark.parametrize(
        "field, value",
        [("n_iter", 1.5), ("shots", 1000.5), ("repeats", 50.5), ("seed", 1.5), ("seed", 2.0), ("shots", "3")],
    )
    def test_non_integral_counts_rejected(self, field, value):
        # seed=1.5 ran seed 1's stream, shots=1000.5 drew 1000 counts but scaled by 1000.5
        fields = dict(theta_true=0.1, phi_true=0.1, n_iter=1, shots=1000, repeats=50, seed=1)
        with pytest.raises(ValueError, match=rf"^{field} must be .* an integer, got {value!r}"):
            TrialConfig(**{**fields, field: value})

    def test_numpy_integers_accepted(self):
        theta, phi = np.radians(40.0), np.radians(36.0)
        plain = TrialConfig(theta, phi, 1, shots=100, repeats=10, seed=3)
        wide = TrialConfig(theta, phi, np.int64(1), shots=np.int32(100), repeats=np.uint16(10), seed=np.uint64(3))
        assert run_trials(wide) == run_trials(plain)
        assert error_bars(wide, np.int64(3)) == error_bars(plain, 3)
        sweep = heisenberg_sweep(theta / 2, phi / 2, 2, 100, 10, 3)
        assert heisenberg_sweep(theta / 2, phi / 2, np.uint8(2), 100, 10, np.uint64(3)) == sweep
        # Rows with n3 = 0 and n4 = 0 pin phi_hat to the box edge pi/(2N).
        x, counts = np.array([theta, phi]), np.vstack([campaign_counts(plain), [[0, 100, 0, 0], [0, 0, 100, 0]]])
        by_n = (
            lambda k: outcome_probabilities(theta, phi, k),
            lambda k: antiparallel_qfim_closed(theta, k),
            lambda k: np.array(mle_closed_form_batch(counts, k)),
            lambda k: antiparallel_family(k).evaluate(x),
        )
        for result in by_n + (
            lambda k: trial_rng(k, k, k).random(3),
            lambda k: average_qfim(qubit_family(), BOX, k, rng_seed=k),
        ):
            assert result(np.uint64(3)).tobytes() == result(3).tobytes()
        # 2N in a numpy N's own dtype wrapped: to 144 for np.uint8(200). 2**53 - 1 is the largest N.
        for wide, n in ((np.uint8(200), 200), (np.int64(2**53 - 1), 2**53 - 1)):
            for result in by_n:
                assert result(wide).tobytes() == result(n).tobytes()

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**200], ids=["-1", "2**128", "2**200"])
    def test_seed_outside_philox_keys_rejected(self, seed):
        with pytest.raises(ValueError, match=rf"seed .*2\*\*128.*{seed}"):
            TrialConfig(0.1, 0.1, 1, shots=10, repeats=10, seed=seed)

    def test_largest_seed_accepted(self):
        assert TrialConfig(0.1, 0.1, 1, shots=10, repeats=10, seed=2**128 - 1).seed == 2**128 - 1

    def test_huge_n_named(self):
        # mle_closed_form_batch raised a bare OverflowError from pi/(2N)
        for call in (lambda n: TrialConfig(0.0, 0.0, n, 10, 10, 0), lambda n: mle_closed_form_batch(np.ones((2, 4)), n)):
            with pytest.raises(ValueError, match=rf"^n_iter must be in \[1, 2\*\*53\) and an integer, got {10**400}$"):
                call(10**400)


BOX = ((0.0, np.pi), (0.0, 2 * np.pi))
# (argument name, a call that passes value as that argument) for every integer
# argument of the public API beyond TrialConfig's fields.
INTEGER_ARGUMENTS = [
    pytest.param("n_iter", lambda v: outcome_probabilities(0.1, 0.1, v), id="outcome_probabilities"),
    pytest.param("n_iter", lambda v: antiparallel_family(v), id="antiparallel_family"),
    pytest.param("n_iter", lambda v: antiparallel_qfim_closed(0.3, v), id="antiparallel_qfim_closed"),
    pytest.param("n_iter", lambda v: mle_closed_form_batch(np.ones((2, 4)), v), id="mle_closed_form_batch"),
    pytest.param("n_max", lambda v: heisenberg_sweep(0.5, 0.5, v, 1000, 10, 7), id="heisenberg_sweep"),
    pytest.param("seed", lambda v: trial_rng(v, 0), id="trial_rng-seed"),
    pytest.param("trial_index", lambda v: trial_rng(1, v), id="trial_rng-trial_index"),
    pytest.param("resample_index", lambda v: trial_rng(1, 0, v), id="trial_rng-resample_index"),
    pytest.param("resamples", lambda v: error_bars(TrialConfig(0.1, 0.1, 1, 100, 10, 1), v), id="error_bars"),
    pytest.param("samples", lambda v: average_qfim(qubit_family(), BOX, v, 1), id="average_qfim-samples"),
    pytest.param("rng_seed", lambda v: average_qfim(qubit_family(), BOX, 10, v), id="average_qfim-rng_seed"),
]


# Every call that takes N, which is float64 arithmetic wherever it is used.
N_ITER_CALLS = [param for param in INTEGER_ARGUMENTS if param.values[0] == "n_iter"] + [
    pytest.param("n_iter", lambda v: TrialConfig(0.0, 0.0, v, 10, 10, 0), id="TrialConfig"),
]


class TestIntegerArguments:
    @pytest.mark.parametrize("value", [1.5, "3"])
    @pytest.mark.parametrize("name, call", INTEGER_ARGUMENTS)
    def test_non_integer_rejected(self, name, call, value):
        # 1.5 was truncated to 1 (or compared as 1.5) and "3" raised numpy's or Python's TypeError.
        with pytest.raises(ValueError, match=rf"^{name} must be in \[\d+, .*\) and an integer, got {re.escape(repr(value))}$"):
            call(value)

    @pytest.mark.parametrize("name, call", N_ITER_CALLS)
    def test_n_iter_is_a_float64_integer(self, name, call):
        # N = 2**53 + 1 was computed as its float neighbour 2**53, and so gave 2**53's results.
        call(2**53 - 1)
        for value in (2**53, np.uint64(2**53)):
            with pytest.raises(ValueError, match=rf"^{name} must be in \[1, 2\*\*53\) and an integer, got {re.escape(repr(value))}$"):
                call(value)


class TestRunTrials:
    def test_reference_campaign(self):
        # M x MSE targets from inverting the closed-form information matrix
        config = TrialConfig(np.radians(85.0), np.radians(36.0), 1, 10**4, 400, seed=2)
        stats = run_trials(config)
        assert abs(stats.m_times_mse_theta / 0.5 - 1.0) < 0.15
        target_phi = 1.0 / (2.0 * np.sin(np.radians(85.0)) ** 2)
        assert abs(stats.m_times_mse_phi / target_phi - 1.0) < 0.15
        assert abs(stats.m_times_covariance) < 3.0 * stats.se_m_covariance
        assert stats.n_failed == 0
        thetas, _, status = mle_closed_form_batch(campaign_counts(config))
        sq_err = (thetas[status != STATUS_FAILED] - config.theta_true) ** 2
        assert stats.m_times_mse_theta == config.shots * np.mean(sq_err)

    def test_small_theta_target(self):
        # 1/(2 sin^2 10 deg) = 16.58
        config = TrialConfig(np.radians(10.0), np.radians(36.0), 1, 10**4, 400, seed=2)
        stats = run_trials(config)
        assert abs(stats.m_times_mse_phi / 16.581718 - 1.0) < 0.15

    def test_single_shot_smoke(self):
        # every trial is quantization-limited; the campaign still completes
        config = TrialConfig(np.radians(45.0), np.radians(30.0), 1, shots=1, repeats=50, seed=3)
        stats = run_trials(config)
        assert stats.n_ok + stats.n_boundary + stats.n_failed == 50
        assert stats.n_failed > 0

    def test_degenerate_configuration_raises(self):
        config = TrialConfig(1e-4, np.radians(30.0), 1, shots=100, repeats=50, seed=4)
        with pytest.raises(DegenerateConfigurationError):
            run_trials(config)

    def test_too_many_failures_name_the_port_34_count(self):
        # M sin^2(N theta)/2 = 2 sin^2(2 x 44 deg)/2 = 0.9988 counts per trial
        config = TrialConfig(np.radians(44.0), np.radians(20.0), 2, shots=2, repeats=400, seed=0)
        message = r"above 10%: .* ports 3 and 4 .* M sin\^2\(N theta\)/2 = 0\.9988 per trial for N = 2, M = 2$"
        with pytest.raises(DegenerateConfigurationError, match=message):
            run_trials(config)

    def test_single_shot_needs_two_usable_estimates(self):
        # theta = 0 gives n3 = n4 = 0 in every trial; at one shot the failures
        # are not blamed on a sin(N theta) zero, only counted
        config = TrialConfig(0.0, np.radians(10.0), 1, shots=1, repeats=2, seed=0)
        message = "only 0 of 2 estimates usable with shots = 1; campaign statistics need at least 2"
        with pytest.raises(DegenerateConfigurationError, match=message):
            run_trials(config)

    @pytest.mark.parametrize("shots", [500, 10**4])
    def test_qcrb_is_closed_form(self, shots):
        theta = np.radians(10.0)
        stats = run_trials(TrialConfig(theta, np.radians(36.0), 1, shots, 50, seed=2))
        assert stats.qcrb_theta == 0.5
        assert stats.qcrb_phi == 1.0 / (2.0 * np.sin(theta) ** 2)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n_iter=st.integers(1, 4),
        shots=st.sampled_from([1, 2, 5, 100]),
        repeats=st.integers(2, 12),
        seed=st.integers(0, 2**64 - 1),
        noise_model=st.sampled_from(NOISE_MODELS),
    )
    def test_statistics_finite_or_degenerate(self, data, n_iter, shots, repeats, seed, noise_model):
        angle = st.floats(0.0, np.pi / (2 * n_iter), exclude_max=True)
        theta, phi = data.draw(angle, label="theta"), data.draw(angle, label="phi")
        config = TrialConfig(theta, phi, n_iter, shots, repeats, seed, noise_model)
        try:
            stats = run_trials(config)
        except DegenerateConfigurationError:
            return
        assert all(np.isfinite(v) for v in dataclasses.astuple(stats))
        assert stats.n_ok + stats.n_boundary >= 2
        assert stats.n_ok + stats.n_boundary + stats.n_failed == repeats

    @pytest.mark.parametrize("case", CAMPAIGNS)
    def test_matches_per_trial_loop(self, case):
        # reference: one generator, one sample_counts and one one-row MLE per trial
        config, resample = campaign_config(case), case[-1]
        probs = outcome_probabilities(config.theta_true, config.phi_true, config.n_iter)
        thetas, phis, statuses = [], [], []
        for trial in range(config.repeats):
            rng = trial_rng(config.seed, trial, resample)
            counts = sample_counts(probs, config.shots, config.noise_model, rng)
            (theta,), (phi,), (code,) = mle_closed_form_batch(counts[None, :], config.n_iter)
            statuses.append(code)
            if code != STATUS_FAILED:
                thetas.append(theta)
                phis.append(phi)
        stats = run_trials(config, resample)
        assert (stats.n_ok, stats.n_boundary, stats.n_failed) == tuple(
            statuses.count(code) for code in (STATUS_OK, STATUS_BOUNDARY, STATUS_FAILED)
        )
        thetas, phis = np.array(thetas), np.array(phis)
        assert stats.m_times_mse_theta == config.shots * np.mean((thetas - config.theta_true) ** 2)
        assert stats.m_times_mse_phi == config.shots * np.mean((phis - config.phi_true) ** 2)
        dt, dp = thetas - thetas.mean(), phis - phis.mean()
        assert stats.m_times_covariance == config.shots * ((dt * dp).sum() / (thetas.size - 1))

    @pytest.mark.parametrize("case", CAMPAIGNS)
    def test_standard_errors_match_sample_deviations(self, case):
        config, resample = campaign_config(case), case[-1]
        thetas, phis, status = mle_closed_form_batch(campaign_counts(config, resample), config.n_iter)
        kept = status != STATUS_FAILED
        thetas, phis = thetas[kept], phis[kept]
        stats = run_trials(config, resample)
        assert stats.n_failed == np.count_nonzero(~kept)
        assert (stats.n_failed > 0) == (config.shots == 1)  # the one-shot cases drop rows
        terms = {
            "se_m_mse_theta": (thetas - config.theta_true) ** 2,
            "se_m_mse_phi": (phis - config.phi_true) ** 2,
            "se_m_covariance": (thetas - thetas.mean()) * (phis - phis.mean()),
        }
        for name, x in terms.items():
            expected = config.shots * np.std(x, ddof=1) / np.sqrt(x.size)
            assert getattr(stats, name) == pytest.approx(expected, rel=1e-12, abs=0.0), name

    def test_bit_identical_statistics(self):
        config = TrialConfig(np.radians(40.0), np.radians(36.0), 1, 2000, 100, seed=5)
        assert run_trials(config) == run_trials(config)

    def test_estimator_consistency_in_shots(self):
        # median over 5 seeds: MSE decreases with M and M x MSE approaches
        # the information-bound targets
        theta, phi = np.radians(40.0), np.radians(36.0)
        targets = np.array([0.5, 1.0 / (2.0 * np.sin(theta) ** 2)])
        medians = []
        for shots in (10**3, 10**4, 10**5):
            per_seed = []
            for seed in range(5):
                stats = run_trials(TrialConfig(theta, phi, 1, shots, 400, seed))
                m_mse = (stats.m_times_mse_theta, stats.m_times_mse_phi)
                per_seed.append((m_mse[0] / shots, m_mse[1] / shots) + m_mse)
            medians.append(np.median(np.asarray(per_seed), axis=0))
        medians = np.asarray(medians)
        # raw MSE shrinks monotonically with M
        assert np.all(np.diff(medians[:, 0]) < 0)
        assert np.all(np.diff(medians[:, 1]) < 0)
        # normalized M x MSE stays at its limit throughout
        for row in medians:
            assert np.all(np.abs(row[2:] / targets - 1.0) < 0.15)

    def test_covariance_decoupled_across_reference_angles(self):
        for theta_deg in (10.0, 40.0, 85.0):
            config = TrialConfig(np.radians(theta_deg), np.radians(36.0), 1, 10**4, 400, seed=2)
            stats = run_trials(config)
            assert abs(stats.m_times_covariance) < 3.0 * stats.se_m_covariance

    def test_crb_sandwich_never_violated_beyond_noise(self):
        for theta_deg in (10.0, 40.0, 85.0):
            config = TrialConfig(np.radians(theta_deg), np.radians(36.0), 1, 10**4, 400, seed=2)
            stats = run_trials(config)
            assert stats.m_times_mse_theta >= stats.qcrb_theta - 3.0 * stats.se_m_mse_theta
            assert stats.m_times_mse_phi >= stats.qcrb_phi - 3.0 * stats.se_m_mse_phi


class TestErrorBars:
    def test_magnitude_matches_chi_square_heuristic(self):
        # std of an MSE over n near-normal estimates is ~ MSE sqrt(2/n)
        config = TrialConfig(np.radians(40.0), np.radians(36.0), 1, 10**4, 400, seed=6)
        stats = run_trials(config)
        err_theta, err_phi = error_bars(config, resamples=100)
        for err, m_mse in ((err_theta, stats.m_times_mse_theta), (err_phi, stats.m_times_mse_phi)):
            heuristic = m_mse * np.sqrt(2.0 / config.repeats)
            assert heuristic / 2.0 < err < heuristic * 2.0

    def test_deterministic(self):
        config = TrialConfig(np.radians(40.0), np.radians(36.0), 1, 1000, 50, seed=7)
        assert error_bars(config, resamples=5) == error_bars(config, resamples=5)

    def test_adjacent_seeds_share_no_resample_campaign(self, monkeypatch):
        keys = []

        def recording_rng(seed, trial_index, resample_index=0):
            keys.append((seed, resample_index))
            return trial_rng(seed, trial_index, resample_index)

        monkeypatch.setattr(loem.estimation, "trial_rng", recording_rng)
        campaigns = {}
        for seed in (7, 8):
            keys.clear()
            config = TrialConfig(np.radians(40.0), np.radians(36.0), 1, 500, 20, seed)
            error_bars(config, resamples=5)
            campaigns[seed] = set(keys)
            assert len(campaigns[seed]) == 5
            assert (seed, 0) not in campaigns[seed]  # the main campaign's substreams
        assert not campaigns[7] & campaigns[8]

    def test_two_resample_smoke(self):
        config = TrialConfig(np.radians(40.0), np.radians(36.0), 1, 500, 20, seed=8)
        err_theta, err_phi = error_bars(config, resamples=2)
        assert np.isfinite(err_theta) and np.isfinite(err_phi)

    def test_resample_floor(self):
        config = TrialConfig(0.3, 0.3, 1, 100, 10, seed=9)
        with pytest.raises(ValueError):
            error_bars(config, resamples=1)


class TestHeisenbergSweep:
    def test_scaling_slope(self):
        points = heisenberg_sweep(np.radians(8.5), np.radians(8.5), 10, 10**4, 400, seed=2)
        m_mse = np.array([p.stats.m_times_mse_theta for p in points])
        slope = np.polyfit(np.log(np.arange(1, 11)), np.log(m_mse), 1)[0]
        assert abs(slope + 2.0) < 0.1

    def test_reference_rows(self):
        points = heisenberg_sweep(np.radians(8.5), np.radians(8.5), 10, 10**4, 100, seed=2)
        assert points[9].stats.qcrb_theta == pytest.approx(0.005, rel=1e-12)
        assert points[0].snl_theta == 0.5
        assert points[9].snl_theta == 0.05

    def test_n_one_row_matches_plain_campaign(self):
        config = TrialConfig(np.radians(8.5), np.radians(8.5), 1, 2000, 100, seed=11)
        direct = run_trials(config)
        point = heisenberg_sweep(np.radians(8.5), np.radians(8.5), 1, 2000, 100, seed=11)[0]
        assert point.stats == direct

    def test_constraint_violation_names_n(self):
        with pytest.raises(ValueError, match="N = 11"):
            heisenberg_sweep(np.radians(8.5), np.radians(8.5), 11, 100, 10, seed=0)
        with pytest.raises(ValueError, match="N = 11$"):  # the first failing N, found by bisection
            heisenberg_sweep(np.radians(8.5), np.radians(8.5), 400, 100, 10, seed=0)

    def test_seed_outside_philox_keys_runs_no_campaign(self, monkeypatch):
        calls = []
        monkeypatch.setattr(loem.estimation, "run_trials", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match=r"2\*\*128"):
            heisenberg_sweep(np.radians(8.5), np.radians(8.5), 3, 100, 10, seed=2**128)
        assert calls == []

    def test_numpy_n_max_sweeps_python_ints(self, monkeypatch):
        configs = []
        monkeypatch.setattr(loem.estimation, "run_trials", lambda config: configs.append(config))
        # n_max + 1 in uint8 would wrap to 0 and leave the sweep empty.
        points = heisenberg_sweep(0.001, 0.001, np.uint8(255), 100, 10, seed=0)
        assert [config.n_iter for config in configs] == [point.n_iter for point in points] == list(range(1, 256))
        assert all(type(point.n_iter) is int and type(config.n_iter) is int for point, config in zip(points, configs))

    def test_out_of_range_last_n_runs_no_campaign(self, monkeypatch):
        calls = []
        monkeypatch.setattr(loem.estimation, "run_trials", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="N = 11"):
            heisenberg_sweep(np.radians(8.5), np.radians(8.5), 11, 100, 10, seed=0)
        assert calls == []

    def test_overflowing_qcrb_runs_no_campaign(self, monkeypatch):
        # theta = phi = 0 is in range up to N = 9e307, but 2 N^2 overflowed beyond N = 9.5e153:
        # every N ran its campaign, with a QCRB of 0 or an OverflowError from N^2. N now stops at 2**53.
        calls = []
        monkeypatch.setattr(loem.estimation, "run_trials", lambda *a, **k: calls.append(a))
        for n_max in (10**154, 10**200):
            with pytest.raises(ValueError, match=r"^n_iter must be in \[1, 2\*\*53\) and an integer, got \d+$") as raised:
                heisenberg_sweep(0.0, 0.0, n_max, 100, 10, seed=0)
            first = int(str(raised.value).rsplit(" ", 1)[1])  # the bisection's first failing N
            assert first == 2**53
            assert np.isfinite(antiparallel_qfim_closed(0.0, first - 1)).all()
            with pytest.raises(ValueError):
                antiparallel_qfim_closed(0.0, first)
        assert calls == []
