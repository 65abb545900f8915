"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all).
Statistical criteria use a fixed seed; the estimator itself is checked for
unbiasedness in the module test suites.
"""

import time

import numpy as np

from loem import (
    antiparallel_family,
    antiparallel_qfim_closed,
    average_qfim,
    bell_like_basis,
    born_jacobian,
    born_probabilities,
    derivatives,
    fim,
    generator_unitary,
    heisenberg_sweep,
    identical_pair_family,
    loem_family,
    mle_closed_form_batch,
    orthogonal_probes,
    outcome_probabilities,
    qfim_pure,
    qubit_family,
    run_trials,
    TrialConfig,
    uhlmann_curvature,
)
from oracles import mle_grid, numeric_family

SEED = 2


def report(name, ok, detail, elapsed, limit):
    status = "PASS" if (ok and elapsed < limit) else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.2f}s / limit {limit:.0f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name}: runtime {elapsed:.2f}s exceeded {limit:.0f}s"


def test_criterion_1_closed_form_qfim_reproduction():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    checked = 0
    while checked < 50:
        n = int(rng.integers(1, 11))
        theta = rng.uniform(0.0, np.pi / (2 * n))
        phi = rng.uniform(0.0, np.pi / (2 * n))
        if abs(np.sin(n * theta)) <= 0.05:
            continue
        family = numeric_family(antiparallel_family(n))
        x = np.array([theta, phi])
        numeric = qfim_pure(family.evaluate(x), derivatives(family, x))
        closed = antiparallel_qfim_closed(theta, n)
        # strict relative error on the diagonal; the structural zeros are
        # compared at the matrix scale
        scale = np.where(np.abs(closed) > 0, np.abs(closed), np.max(np.abs(closed)))
        worst = max(worst, float(np.max(np.abs(numeric - closed) / scale)))
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (closed-form QFIM reproduction)",
        worst < 1e-6,
        f"max relative deviation {worst:.2e} over 50 random (theta, phi, N)",
        elapsed,
        1.0,
    )


def test_criterion_2_fim_equals_qfim():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 3):
        family = antiparallel_family(n)
        limit = np.pi / (2 * n)
        grid = np.linspace(0.05, limit - 0.05, 20)
        for theta in grid:
            for phi in grid:
                x = np.array([theta, phi])
                f = fim(*born_jacobian(family.evaluate(x), derivatives(family, x), bell_like_basis()))
                q = antiparallel_qfim_closed(theta, n)
                worst = max(worst, float(np.max(np.abs(f - q))))
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (FIM = QFIM at the four-port basis)",
        worst < 1e-6,
        f"max |F - Q| = {worst:.2e} over 20x20 grids at N in (1, 3)",
        elapsed,
        5.0,
    )


def test_criterion_3_wcc_contrast_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)

    worst_zero = 0.0
    for n in (1, 2, 5, 10):
        family = numeric_family(antiparallel_family(n))
        for _ in range(5):
            x = rng.uniform(0.05, np.pi / (2 * n) - 0.05, size=2)
            curv = uhlmann_curvature(family.evaluate(x), derivatives(family, x))
            worst_zero = max(worst_zero, float(np.max(np.abs(curv))))
    for d in (3, 4):
        gens = []
        for _ in range(2):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            gens.append(0.5 * (a + a.conj().T))
        family = loem_family(generator_unitary(gens), 2, orthogonal_probes(d))
        for _ in range(3):
            x = rng.uniform(0.2, 0.9, size=2)
            curv = uhlmann_curvature(family.evaluate(x), derivatives(family, x))
            worst_zero = max(worst_zero, float(np.max(np.abs(curv))))

    single = numeric_family(qubit_family())
    pair = numeric_family(identical_pair_family())
    worst_single = worst_pair = 0.0
    for _ in range(20):
        x = np.array([rng.uniform(0.1, np.pi - 0.1), rng.uniform(0.0, 2 * np.pi)])
        curv_s = uhlmann_curvature(single.evaluate(x), derivatives(single, x))
        curv_p = uhlmann_curvature(pair.evaluate(x), derivatives(pair, x))
        worst_single = max(worst_single, abs(abs(curv_s[0, 1]) - np.sin(x[0]) / 2))
        worst_pair = max(worst_pair, abs(abs(curv_p[0, 1]) - np.sin(x[0])))

    elapsed = time.perf_counter() - start
    report(
        "criterion 3 (weak-commutativity contrast suite)",
        worst_zero < 1e-8 and worst_single < 1e-6 and worst_pair < 1e-6,
        f"probe-set curvature {worst_zero:.2e}; single-copy dev {worst_single:.2e}; "
        f"identical-pair dev {worst_pair:.2e}",
        elapsed,
        10.0,
    )


def test_criterion_4_fixed_phi_campaigns():
    start = time.perf_counter()
    worst_theta = worst_phi = 0.0
    cov_ok = True
    for theta_deg in (10.0, 25.0, 40.0, 55.0, 70.0, 85.0):
        theta = np.radians(theta_deg)
        config = TrialConfig(theta, np.radians(36.0), 1, 10**4, 400, seed=SEED)
        stats = run_trials(config)
        target_phi = 1.0 / (2.0 * np.sin(theta) ** 2)
        worst_theta = max(worst_theta, abs(stats.m_times_mse_theta / 0.5 - 1.0))
        worst_phi = max(worst_phi, abs(stats.m_times_mse_phi / target_phi - 1.0))
        if abs(stats.m_times_covariance) >= 3.0 * stats.se_m_covariance:
            cov_ok = False
    # spot-check the tabulated targets of the reference sweep
    assert abs(1.0 / (2.0 * np.sin(np.radians(10.0)) ** 2) - 16.58) < 0.005
    assert abs(1.0 / (2.0 * np.sin(np.radians(85.0)) ** 2) - 0.504) < 0.0005
    elapsed = time.perf_counter() - start
    report(
        "criterion 4 (fixed-phi campaign, M x MSE vs bound)",
        worst_theta < 0.15 and worst_phi < 0.15 and cov_ok,
        f"max dev theta {worst_theta:.1%}, phi {worst_phi:.1%}, covariance within 3 SE: {cov_ok}",
        elapsed,
        60.0,
    )


def test_criterion_5_heisenberg_scaling():
    start = time.perf_counter()
    points = heisenberg_sweep(np.radians(8.5), np.radians(8.5), 10, 10**4, 400, seed=SEED)
    m_mse_theta = np.array([p.stats.m_times_mse_theta for p in points])
    slope = float(np.polyfit(np.log(np.arange(1, 11)), np.log(m_mse_theta), 1)[0])
    ordering_ok = all(
        p.stats.m_times_mse_theta >= p.stats.qcrb_theta - 3.0 * p.stats.se_m_mse_theta
        and p.stats.m_times_mse_phi >= p.stats.qcrb_phi - 3.0 * p.stats.se_m_mse_phi
        for p in points
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 5 (Heisenberg scaling sweep)",
        abs(slope + 2.0) < 0.1 and ordering_ok,
        f"log-log slope {slope:+.3f}; every point above its bound minus 3 SE: {ordering_ok}",
        elapsed,
        600.0,
    )


def test_criterion_6_mle_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    tol = 2.0 * (np.pi / 2.0) / 512
    worst_gap = 0.0
    worst_grad = 0.0
    h = 1e-5

    def loglik(counts, theta, phi):
        probs = outcome_probabilities(theta, phi, 1)
        return sum(n * np.log(p) for n, p in zip(counts, probs) if n > 0)

    checked = 0
    while checked < 100:
        theta = rng.uniform(0.15, 0.85) * (np.pi / 2)
        phi = rng.uniform(0.15, 0.85) * (np.pi / 2)
        counts = rng.multinomial(10**4, outcome_probabilities(theta, phi, 1))
        if not np.all(counts >= 1):
            continue
        (theta_hat,), (phi_hat,), _ = mle_closed_form_batch(counts[None, :], 1)
        grid_theta, grid_phi, _ = mle_grid(counts, 1, resolution=512)
        worst_gap = max(worst_gap, abs(theta_hat - grid_theta), abs(phi_hat - grid_phi))
        total = counts.sum()
        grad_t = (loglik(counts, theta_hat + h, phi_hat) - loglik(counts, theta_hat - h, phi_hat)) / (2 * h)
        grad_p = (loglik(counts, theta_hat, phi_hat + h) - loglik(counts, theta_hat, phi_hat - h)) / (2 * h)
        worst_grad = max(worst_grad, float(np.hypot(grad_t, grad_p) / total))
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 6 (MLE oracle equivalence and stationarity)",
        worst_gap < tol and worst_grad < 1e-6,
        f"max closed-vs-grid gap {worst_gap:.2e} (tol {tol:.2e}); "
        f"max gradient norm / M = {worst_grad:.2e}",
        elapsed,
        30.0,
    )


def test_criterion_7_probability_surfaces():
    start = time.perf_counter()
    basis = bell_like_basis()
    angles = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
    grid = np.stack(np.meshgrid(angles, angles, indexing="ij"), axis=-1).reshape(-1, 2)
    closed = outcome_probabilities(grid[:, 0], grid[:, 1], 1)
    born = born_probabilities(antiparallel_family(1).evaluate(grid), basis).T
    worst_gap = float(np.max(np.abs(born - closed)))
    worst_norm = float(np.max(np.abs(closed.sum(axis=0) - 1.0)))
    elapsed = time.perf_counter() - start
    report(
        "criterion 7 (probability surfaces on a 100x100 grid)",
        worst_gap < 1e-12 and worst_norm < 1e-12,
        f"max |born - closed| = {worst_gap:.2e}; max |sum - 1| = {worst_norm:.2e}",
        elapsed,
        1.0,
    )


def test_criterion_8_average_qfim_doubling():
    start = time.perf_counter()
    box = ((0.0, np.pi), (0.0, 2 * np.pi))
    avg_single = average_qfim(qubit_family(), box, samples=10**5, rng_seed=SEED)
    avg_anti = average_qfim(antiparallel_family(1), box, samples=10**5, rng_seed=SEED + 1)
    scale = np.max(np.abs(2.0 * avg_single))
    gap = float(np.max(np.abs(avg_anti - 2.0 * avg_single)) / scale)
    elapsed = time.perf_counter() - start
    report(
        "criterion 8 (uniform-average QFIM doubling)",
        gap < 0.02,
        f"max |avg_pair - 2 avg_single| / scale = {gap:.2%} with 1e5 samples each",
        elapsed,
        30.0,
    )
