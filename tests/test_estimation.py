"""Tests for count sampling, the MLE pair, and Monte Carlo campaigns."""

import dataclasses

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
    campaign_counts,
    error_bars,
    heisenberg_sweep,
    mle_closed_form,
    mle_closed_form_batch,
    mle_grid,
    outcome_probabilities,
    run_trials,
    sample_counts,
    trial_rng,
)

STATUS_CODES = {"ok": STATUS_OK, "boundary": STATUS_BOUNDARY, "phi-unidentifiable": STATUS_FAILED}


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


class TestMleClosedFormBatch:
    EDGE_ROWS = [
        [800, 100, 0, 100],  # n3 = 0: phi pinned to 0
        [800, 100, 100, 0],  # n4 = 0: phi pinned to pi/(2N)
        [500, 20, 0, 0],  # n34 = 0: phi unidentifiable
        [0, 900, 50, 50],  # s_hat > 1/2: theta pinned to pi/(2N)
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
            grid = mle_grid(row, n_iter, resolution=128)
            assert code == STATUS_CODES[grid.status], row
            assert abs(theta - grid.theta_hat) < tol, row
            if code == STATUS_FAILED:
                assert np.isnan(phi) and np.isnan(grid.phi_hat)
            else:
                assert abs(phi - grid.phi_hat) < tol, row

    def test_zero_total_row_fails(self):
        thetas, phis, status = mle_closed_form_batch(np.array([[0, 0, 0, 0], [10, 10, 10, 10]]))
        assert list(status) == [STATUS_FAILED, STATUS_OK]
        assert np.isnan(thetas[0]) and np.isnan(phis[0])

    def test_scalar_wrapper_agrees_row_by_row(self):
        counts = np.random.default_rng(24).integers(0, 40, size=(30, 4))
        counts = counts[counts[:, 2:].sum(axis=1) > 0]
        thetas, phis, status = mle_closed_form_batch(counts, 2)
        for row, theta, phi, code in zip(counts, thetas, phis, status):
            est = mle_closed_form(row, 2)
            assert (est.theta_hat, est.phi_hat, STATUS_CODES[est.status]) == (theta, phi, code)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            mle_closed_form_batch(np.array([1, 2, 3, 4]))
        with pytest.raises(ValueError):
            mle_closed_form_batch(np.array([[1, 2, 3, -4]]))
        with pytest.raises(ValueError):
            mle_closed_form_batch(np.array([[1, 2, 3, 4]]), n_iter=0)


class TestMleClosedForm:
    def test_all_counts_in_port_one(self):
        est = mle_closed_form(np.array([1000, 0, 0, 0]), 1)
        assert est.theta_hat == 0.0
        assert est.status == "phi-unidentifiable"

    def test_uniform_counts(self):
        # stationary point of the multinomial log-likelihood; grid cross-check below
        est = mle_closed_form(np.array([2500, 2500, 2500, 2500]), 1)
        assert abs(est.theta_hat - np.pi / 2) < 1e-12
        assert abs(est.phi_hat - np.pi / 4) < 1e-12

    def test_frozen_reference_counts(self):
        # s = 0.1 -> theta = 2 arcsin(sqrt(0.1)), n3 = n4 -> phi = pi/4
        est = mle_closed_form(np.array([8100, 100, 900, 900]), 1)
        assert abs(est.theta_hat - 0.6435011087932844) < 1e-12
        assert abs(est.phi_hat - np.pi / 4) < 1e-12
        assert est.status == "ok"

    def test_phi_pinned_low(self):
        est = mle_closed_form(np.array([800, 100, 0, 100]), 1)
        assert est.phi_hat == 0.0
        assert est.status == "boundary"

    def test_phi_pinned_high(self):
        est = mle_closed_form(np.array([800, 100, 100, 0]), 2)
        assert est.phi_hat == np.pi / 4
        assert est.status == "boundary"

    def test_theta_pinned_at_box_edge(self):
        # s_hat = (2 n2 + n34) / (2M) > 1/2 pins theta to pi/(2N)
        est = mle_closed_form(np.array([0, 900, 50, 50]), 1)
        assert est.theta_hat == np.pi / 2
        assert est.status == "boundary"

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            mle_closed_form(np.array([0, 0, 0, 0]), 1)

    def test_is_stationary_point_of_loglik(self):
        rng = np.random.default_rng(21)
        h = 1e-5
        for _ in range(25):
            counts = sampled_counts_all_ports_positive(rng)
            est = mle_closed_form(counts, 1)
            assert est.status == "ok"
            total = counts.sum()
            grad_t = (
                loglik(counts, est.theta_hat + h, est.phi_hat, 1)
                - loglik(counts, est.theta_hat - h, est.phi_hat, 1)
            ) / (2 * h)
            grad_p = (
                loglik(counts, est.theta_hat, est.phi_hat + h, 1)
                - loglik(counts, est.theta_hat, est.phi_hat - h, 1)
            ) / (2 * h)
            assert np.hypot(grad_t, grad_p) < 1e-6 * total


class TestMleGrid:
    def test_matches_closed_form_on_sampled_counts(self):
        rng = np.random.default_rng(22)
        for n_iter in (1, 2):
            tol = 2 * (np.pi / (2 * n_iter)) / 128
            for _ in range(20):
                counts = sampled_counts_all_ports_positive(rng, n_iter)
                closed = mle_closed_form(counts, n_iter)
                grid = mle_grid(counts, n_iter, resolution=128)
                assert abs(grid.theta_hat - closed.theta_hat) < tol
                assert abs(grid.phi_hat - closed.phi_hat) < tol

    def test_all_counts_in_port_one(self):
        # the log-likelihood is numerically flat within ~1e-7 of theta = 0
        est = mle_grid(np.array([500, 0, 0, 0]), 1, resolution=64)
        assert est.theta_hat < 1e-6
        assert est.status == "phi-unidentifiable"

    def test_recovers_truth_from_expected_counts(self):
        # exact frequencies maximize the likelihood at the truth
        for theta, phi, n_iter in ((0.6, 0.9, 1), (0.2, 0.11, 3)):
            expected = 10**4 * outcome_probabilities(theta, phi, n_iter)
            est = mle_grid(expected, n_iter, resolution=256)
            assert abs(est.theta_hat - theta) < 1e-6
            assert abs(est.phi_hat - phi) < 1e-6

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            mle_grid(np.array([1, 1, 1, 1]), 1, resolution=8)


class TestTrialConfig:
    def test_angle_constraint_enforced(self):
        with pytest.raises(ValueError):
            TrialConfig(theta_true=np.pi / 2, phi_true=0.1, n_iter=1, shots=10, repeats=2, seed=0)
        with pytest.raises(ValueError):  # pi/(2N) = 0.314 at N = 5
            TrialConfig(theta_true=0.2, phi_true=0.32, n_iter=5, shots=10, repeats=2, seed=0)

    def test_sampling_plan_validated(self):
        with pytest.raises(ValueError):
            TrialConfig(0.1, 0.1, 1, shots=0, repeats=10, seed=0)
        with pytest.raises(ValueError):
            TrialConfig(0.1, 0.1, 1, shots=10, repeats=1, seed=0)
        with pytest.raises(ValueError):
            TrialConfig(0.1, 0.1, 1, shots=10, repeats=10, seed=-3)
        with pytest.raises(ValueError):
            TrialConfig(0.1, 0.1, 1, shots=10, repeats=10, seed=0, noise_model="gaussian")


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
        # reference: one generator, one sample_counts and one scalar MLE per trial
        config, resample = campaign_config(case), case[-1]
        probs = outcome_probabilities(config.theta_true, config.phi_true, config.n_iter)
        thetas, phis, statuses = [], [], []
        for trial in range(config.repeats):
            rng = trial_rng(config.seed, trial, resample)
            counts = sample_counts(probs, config.shots, config.noise_model, rng)
            if counts.sum() == 0:
                statuses.append("phi-unidentifiable")
                continue
            est = mle_closed_form(counts, config.n_iter)
            statuses.append(est.status)
            if est.status != "phi-unidentifiable":
                thetas.append(est.theta_hat)
                phis.append(est.phi_hat)
        stats = run_trials(config, resample)
        assert (stats.n_ok, stats.n_boundary, stats.n_failed) == tuple(
            statuses.count(s) for s in ("ok", "boundary", "phi-unidentifiable")
        )
        thetas, phis = np.array(thetas), np.array(phis)
        assert stats.m_times_mse_theta == config.shots * np.mean((thetas - config.theta_true) ** 2)
        assert stats.m_times_mse_phi == config.shots * np.mean((phis - config.phi_true) ** 2)
        dt, dp = thetas - thetas.mean(), phis - phis.mean()
        assert stats.m_times_covariance == config.shots * ((dt * dp).sum() / (thetas.size - 1))

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
        points = heisenberg_sweep(
            np.radians(8.5), np.radians(8.5), list(range(1, 11)), 10**4, 400, seed=2
        )
        m_mse = np.array([p.stats.m_times_mse_theta for p in points])
        slope = np.polyfit(np.log(np.arange(1, 11)), np.log(m_mse), 1)[0]
        assert abs(slope + 2.0) < 0.1

    def test_reference_rows(self):
        points = heisenberg_sweep(np.radians(8.5), np.radians(8.5), [1, 10], 10**4, 100, seed=2)
        assert points[1].stats.qcrb_theta == pytest.approx(0.005, rel=1e-12)
        assert points[0].snl_theta == 0.5
        assert points[1].snl_theta == 0.05

    def test_n_one_row_matches_plain_campaign(self):
        config = TrialConfig(np.radians(8.5), np.radians(8.5), 1, 2000, 100, seed=11)
        direct = run_trials(config)
        point = heisenberg_sweep(np.radians(8.5), np.radians(8.5), [1], 2000, 100, seed=11)[0]
        assert point.stats == direct

    def test_constraint_violation_names_n(self):
        with pytest.raises(ValueError, match="N = 11"):
            heisenberg_sweep(np.radians(8.5), np.radians(8.5), list(range(1, 12)), 100, 10, seed=0)

    def test_out_of_range_last_n_runs_no_campaign(self, monkeypatch):
        calls = []
        monkeypatch.setattr(loem.estimation, "run_trials", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="N = 11"):
            heisenberg_sweep(np.radians(8.5), np.radians(8.5), list(range(1, 12)), 100, 10, seed=0)
        assert calls == []
