"""Tests for probe-state construction, the four-port basis, and probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loem import (
    antiparallel_family,
    antiparallel_qfim_closed,
    bell_like_basis,
    born_jacobian,
    born_probabilities,
    derivatives,
    generator_unitary,
    identical_pair_family,
    loem_family,
    orthogonal_probes,
    outcome_probabilities,
    qfim_pure,
    qubit_family,
    qubit_rotation,
    uhlmann_curvature,
    wcc_holds,
)
from oracles import central_difference, numeric_family


def random_generators(rng, d, m=2):
    gens = []
    for _ in range(m):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gens.append(0.5 * (a + a.conj().T))
    return gens


class TestOrthogonalProbes:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, np.int64(3)])
    def test_computational_basis(self, d):
        probes = orthogonal_probes(d)
        assert probes.shape == (d, d)
        gram = probes.conj() @ probes.T
        assert np.max(np.abs(gram - np.eye(d))) < 1e-12

    @pytest.mark.parametrize("d", [0, 1, 2.5, 3.0, "3"])
    def test_out_of_range_rejected(self, d):
        with pytest.raises(ValueError, match=r"^d must be in \[2, inf\) and an integer"):
            orthogonal_probes(d)

    def test_d7_builds_but_its_dense_family_is_refused(self):
        # the 6**6 cap guards the dense d**d state, inside loem_family, not the probe set
        probes = orthogonal_probes(7)
        assert np.array_equal(probes, np.eye(7))
        gens = random_generators(np.random.default_rng(7), 7)
        with pytest.raises(ValueError, match=r"d\*\*K = 7\*\*7"):
            loem_family(generator_unitary(gens), 2, probes)


class TestLoemState:
    def test_identity_point(self):
        out = loem_family(qubit_rotation, 2, orthogonal_probes(2)).evaluate(np.array([0.0, 1.7]))
        assert np.allclose(out, [0, 1, 0, 0], atol=1e-15)

    def test_hand_multiplied_oracle(self):
        # U(pi/2, 0)|0> = (c, s), U(pi/2, 0)|1> = (-s, c) with c = s = 1/sqrt(2);
        # multiply the product out entry by entry
        u = qubit_rotation(np.array([np.pi / 2, 0.0]))[0]
        first, second = u[:, 0], u[:, 1]
        expected = np.array(
            [first[0] * second[0], first[0] * second[1], first[1] * second[0], first[1] * second[1]]
        )
        out = loem_family(qubit_rotation, 2, orthogonal_probes(2)).evaluate(np.array([np.pi / 2, 0.0]))
        assert np.allclose(out, expected, atol=1e-15)
        assert np.allclose(out, [-0.5, 0.5, -0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("d", [3, 4])
    def test_random_generator_family_normalized_and_compatible(self, d):
        rng = np.random.default_rng(40 + d)
        unitary = generator_unitary(random_generators(rng, d))
        family = loem_family(unitary, 2, orthogonal_probes(d))
        x = rng.uniform(0.2, 0.9, size=2)
        psi = family.evaluate(x)
        assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-12
        jac = derivatives(family, x)
        # derivative overlaps of the full probe product are purely real
        assert abs(np.imag(np.vdot(jac[:, 0], jac[:, 1]))) < 1e-8

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loem_family(qubit_rotation, 2, orthogonal_probes(3)).evaluate(np.array([0.1, 0.2]))

    def test_non_finite_point_rejected(self):
        # cos(inf) is NaN, so U(inf, 0) is a NaN matrix
        family = loem_family(qubit_rotation, 2, orthogonal_probes(2))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not unitary"):
            family.evaluate(np.array([np.inf, 0.0]))


def hermitian_pair(seed, d, degenerate):
    """Two random Hermitian generators; a degenerate G_1 has a repeated eigenvalue."""
    rng = np.random.default_rng(seed)
    gens = random_generators(rng, d)
    if degenerate:
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        spectrum = rng.normal(size=d)
        spectrum[1] = spectrum[0]
        gens[0] = (q * spectrum) @ q.conj().T
    return gens


class TestExactJacobian:
    """The product rule over dU of a generator family, against central differences.

    x = 0 makes every eigenvalue of H equal, and x_2 = 0 with a degenerate G_1
    makes two equal, with generic V† G_2 V entries between them.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 5),
        degenerate=st.booleans(),
        x=st.one_of(
            st.just((0.0, 0.0)),
            st.tuples(st.floats(-1.0, 1.0), st.just(0.0)),
            st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        ),
    )
    def test_matches_central_differences_with_exact_geometry(self, seed, d, degenerate, x):
        family = loem_family(generator_unitary(hermitian_pair(seed, d, degenerate)), 2, orthogonal_probes(d))
        x = np.array(x)
        state, jac = family.evaluate(x), derivatives(family, x)
        numeric = derivatives(numeric_family(family), x)
        assert np.max(np.abs(jac - numeric)) <= 1e-7 * np.max(np.abs(jac))
        # normalization: Re<psi|d_i psi> = 0
        assert np.max(np.abs(np.real(jac.conj().T @ state))) <= 1e-13
        # orthogonal probes: the curvature vanishes up to roundoff
        scale = max(1.0, np.max(np.sum(np.abs(jac) ** 2, axis=0)))
        assert np.max(np.abs(uhlmann_curvature(state, jac))) < 1e-12 * scale


def pair_state(theta, phi, n_iter=1):
    """The antiparallel pair's state at one point, from its family."""
    return antiparallel_family(n_iter).evaluate(np.array([theta, phi]))


class TestAntiparallelState:
    def test_zero_theta(self):
        assert np.allclose(pair_state(0.0, 0.73, 1), [0, 1, 0, 0], atol=1e-15)

    def test_hand_multiplied(self):
        assert np.allclose(pair_state(np.pi / 2, 0.0, 1), [-0.5, 0.5, -0.5, 0.5], atol=1e-12)

    def test_closed_form_amplitudes(self):
        # (-e^{-iNp} sin(Nt)/2, cos^2(Nt/2), -sin^2(Nt/2), e^{iNp} sin(Nt)/2)
        rng = np.random.default_rng(12)
        for _ in range(50):
            theta, phi = rng.uniform(0.0, 1.5, size=2)
            n = int(rng.integers(1, 6))
            a, b = n * theta, n * phi
            expected = np.array(
                [
                    -np.exp(-1j * b) * np.sin(a) / 2,
                    np.cos(a / 2) ** 2,
                    -np.sin(a / 2) ** 2,
                    np.exp(1j * b) * np.sin(a) / 2,
                ]
            )
            assert np.allclose(pair_state(theta, phi, n), expected, atol=1e-13)

    def test_iteration_amplifies_angles(self):
        assert np.allclose(
            pair_state(np.pi / 4, np.pi / 6, 2),
            pair_state(np.pi / 2, np.pi / 3, 1),
            atol=1e-14,
        )

    def test_invalid_iteration_count(self):
        with pytest.raises(ValueError):
            pair_state(0.1, 0.1, 0)


class TestBellLikeBasis:
    def test_fixed_port_order(self):
        basis = bell_like_basis()
        r = 1 / np.sqrt(2)
        assert np.allclose(basis[0], [0, 1, 0, 0])
        assert np.allclose(basis[1], [0, 0, 1, 0])
        assert np.allclose(basis[2], [r, 0, 0, r])
        assert np.allclose(basis[3], [r, 0, 0, -r])

    def test_completeness(self):
        basis = bell_like_basis()
        resolution = sum(np.outer(k, k.conj()) for k in basis)
        assert np.max(np.abs(resolution - np.eye(4))) < 1e-14

    def test_plus_minus_orthogonal(self):
        basis = bell_like_basis()
        assert abs(np.vdot(basis[2], basis[3])) < 1e-15


class TestBornProbabilities:
    def test_theta_zero_point_mass(self):
        probs = born_probabilities(pair_state(0.0, 0.3, 1), bell_like_basis())
        assert np.allclose(probs, [1, 0, 0, 0], atol=1e-15)

    def test_uniform_point(self):
        probs = born_probabilities(pair_state(np.pi / 2, np.pi / 4, 1), bell_like_basis())
        assert np.allclose(probs, [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_matches_closed_form_on_grid(self):
        basis = bell_like_basis()
        angles = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
        worst = 0.0
        for theta in angles:
            for phi in angles:
                pb = born_probabilities(pair_state(theta, phi, 1), basis)
                pc = outcome_probabilities(theta, phi, 1)
                worst = max(worst, np.max(np.abs(pb - pc)))
        assert worst < 1e-12

    def test_matches_closed_form_random_triples(self):
        basis = bell_like_basis()
        rng = np.random.default_rng(13)
        for _ in range(1000):
            theta, phi = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
            n = int(rng.integers(1, 11))
            pb = born_probabilities(pair_state(theta, phi, n), basis)
            pc = outcome_probabilities(theta, phi, n)
            assert np.max(np.abs(pb - pc)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            born_probabilities(np.array([1.0, 0.0]), bell_like_basis())
        with pytest.raises(ValueError, match=r"does not match state shape \(4, 3\)"):
            born_probabilities(np.ones((4, 3)), bell_like_basis())

    @pytest.mark.parametrize("batch", [(4,), (3,), (2, 3)])
    def test_batch_of_states_gives_a_batch_of_distributions(self, batch):
        # states (..., dim) give probabilities (..., K), each row a call on its own state up to
        # the roundoff of a batched product
        x = np.random.default_rng(16).uniform(0.1, 1.4, size=batch + (2,))
        states = antiparallel_family(1).evaluate(x)
        probs = born_probabilities(states, bell_like_basis())
        assert probs.shape == batch + (4,)
        for index in np.ndindex(batch):
            assert np.max(np.abs(probs[index] - born_probabilities(states[index], bell_like_basis()))) < 1e-15
        assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) < 1e-14
        assert np.max(np.abs(probs - np.moveaxis(outcome_probabilities(x[..., 0], x[..., 1], 1), 0, -1))) < 1e-12


class TestBornJacobian:
    @pytest.mark.parametrize("n_iter", [1, 3])
    def test_matches_central_differences_and_closed_form(self, n_iter):
        family = antiparallel_family(n_iter)
        basis = bell_like_basis()
        x = np.random.default_rng(17).uniform(0.05, np.pi / (2 * n_iter) - 0.05, size=(5, 2))
        p, dp = born_jacobian(family.evaluate(x), derivatives(family, x), basis)
        assert p.shape == (5, 4) and dp.shape == (5, 4, 2)
        assert np.array_equal(p, born_probabilities(family.evaluate(x), basis))

        def closed(y):
            return np.moveaxis(outcome_probabilities(y[..., 0], y[..., 1], n_iter), 0, -1)

        numeric = np.stack([central_difference(closed, x, i) for i in range(2)], axis=-1)
        assert np.max(np.abs(dp - numeric)) <= 1e-8 * np.max(np.abs(dp))

    def test_jacobian_shape_must_match_the_state(self):
        family = antiparallel_family(1)
        x = np.array([[0.3, 0.4]])
        with pytest.raises(ValueError, match="does not match state shape"):
            born_jacobian(family.evaluate(x[0]), derivatives(family, x), bell_like_basis())


class TestOutcomeProbabilities:
    def test_theta_zero(self):
        assert np.allclose(outcome_probabilities(0.0, 0.9, 1), [1, 0, 0, 0], atol=1e-15)

    def test_reference_points(self):
        # substitution: (cos^4(pi/4), sin^4(pi/4), 0, sin^2(pi/2)/2)
        assert np.allclose(outcome_probabilities(np.pi / 2, 0.0, 1), [0.25, 0.25, 0.0, 0.5], atol=1e-12)
        assert np.allclose(
            outcome_probabilities(np.pi / 2, np.pi / 4, 1), [0.25, 0.25, 0.25, 0.25], atol=1e-12
        )

    @pytest.mark.parametrize("n", [1, 3])
    def test_grid_axes_match_the_full_grid_bit_for_bit(self, n):
        # The surface command's degree grid and random angles of either sign.
        rng = np.random.default_rng(15)
        theta = np.concatenate([np.radians(np.linspace(0.0, 360.0, 37, endpoint=False)), rng.uniform(-7, 7, 9)])
        phi = np.concatenate([np.radians(np.linspace(0.0, 360.0, 41, endpoint=False)), rng.uniform(-7, 7, 11)])
        axes = outcome_probabilities(theta[:, None], phi, n)
        assert axes.shape == (4, 46, 52)
        full = outcome_probabilities(*np.meshgrid(theta, phi, indexing="ij"), n)
        assert np.array_equal(axes.view(np.int64), full.view(np.int64))

    def test_scalar_shape_and_non_finite_angle(self):
        assert outcome_probabilities(0.3, 0.9, 2).shape == (4,)
        for theta, phi in [([[0.1], [1e308]], [0.2, 0.3]), ([[0.1], [0.2]], [0.3, 1e308])]:
            with pytest.raises(ValueError, match="not finite"):
                outcome_probabilities(np.array(theta), np.array(phi), 10)

    def test_normalization_on_dense_grid(self):
        angles = np.linspace(0.0, 2 * np.pi, 101)
        worst = 0.0
        for n in (1, 4, 10):
            for theta in angles:
                for phi in angles:
                    worst = max(worst, abs(outcome_probabilities(theta, phi, n).sum() - 1.0))
        assert worst < 1e-14


class TestAntiparallelQfimClosed:
    def test_reference_values(self):
        assert np.allclose(antiparallel_qfim_closed(np.pi / 2, 1), np.diag([2.0, 2.0]), atol=1e-14)
        # substitution at (8.5 deg, N = 10): diag(200, 200 sin^2 85 deg)
        q = antiparallel_qfim_closed(np.radians(8.5), 10)
        assert np.allclose(q, np.diag([200.0, 198.48077530122083]), atol=1e-10)

    def test_degenerate_at_zero_theta(self):
        q = antiparallel_qfim_closed(0.0, 3)
        assert q[0, 0] == 18.0
        assert q[1, 1] == 0.0

    @pytest.mark.parametrize("n_iter", [10**154, 10**200, 10**400], ids=["1e154", "1e200", "1e400"])
    def test_overflowing_n_named(self, n_iter):
        # 2 N^2 was inf (so the bound 1/(2 N^2) read 0), an OverflowError from N^2, or from float(N)
        with pytest.raises(ValueError, match=rf"^n_iter must be in \[1, 2\*\*53\) and an integer, got {n_iter}$"):
            antiparallel_qfim_closed(1e-300, n_iter)

    def test_matches_numerical_qfim(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(1, 11))
            theta = rng.uniform(0.05, np.pi / (2 * n) - 0.05)
            phi = rng.uniform(0.0, np.pi / (2 * n))
            if abs(np.sin(n * theta)) <= 0.05:
                continue
            family = numeric_family(antiparallel_family(n))
            x = np.array([theta, phi])
            q_num = qfim_pure(family.evaluate(x), derivatives(family, x))
            q_closed = antiparallel_qfim_closed(theta, n)
            assert np.allclose(q_num, q_closed, rtol=1e-6, atol=1e-6)


class TestWccContrast:
    def test_antiparallel_satisfies_wcc(self):
        rng = np.random.default_rng(15)
        for n in (1, 3, 7):
            family = antiparallel_family(n)
            numeric = numeric_family(family)
            x = rng.uniform(0.05, np.pi / (2 * n) - 0.05, size=2)
            curv = uhlmann_curvature(family.evaluate(x), derivatives(numeric, x))
            assert wcc_holds(curv, 1e-8)

    def test_identical_pair_violates_wcc(self):
        family = identical_pair_family()
        x = np.array([np.pi / 2, 0.2])
        curv = uhlmann_curvature(family.evaluate(x), derivatives(family, x))
        assert not wcc_holds(curv, 1e-8)
        assert abs(abs(curv[0, 1]) - np.sin(x[0])) < 1e-8

    def test_qfim_doubling(self):
        single = qubit_family()
        pair = antiparallel_family(1)
        rng = np.random.default_rng(16)
        for _ in range(20):
            x = rng.uniform(0.1, 1.4, size=2)
            q1 = qfim_pure(single.evaluate(x), derivatives(single, x))
            q2 = qfim_pure(pair.evaluate(x), derivatives(pair, x))
            assert np.max(np.abs(q2 - 2.0 * q1)) < 1e-8


class TestGeneratorUnitary:
    def test_unitary_for_random_generators(self):
        rng = np.random.default_rng(17)
        for d in (2, 3, 4):
            unitary = generator_unitary(random_generators(rng, d))
            x = rng.uniform(-1.0, 1.0, size=2)
            u, _ = unitary(x)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12

    def test_reduces_to_matrix_exponential_for_commuting_case(self):
        g = np.diag([1.0, -1.0]).astype(complex)
        unitary = generator_unitary([g])
        u, _ = unitary(np.array([0.7]))
        assert np.allclose(u, np.diag(np.exp(-1j * 0.7 * np.diag(g))), atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            generator_unitary([np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_large_hermitian_accepted(self):
        # V diag(1e5 l) V† is Hermitian up to roundoff far above an absolute 1e-12
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        g = (q * (1e5 * rng.normal(size=4))) @ q.conj().T
        assert np.max(np.abs(g - g.conj().T)) > 1e-12
        u, _ = generator_unitary([g, np.zeros((4, 4))])(np.array([1e-5, 0.3]))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # a NaN or inf diagonal entry makes g - g† NaN there, which no tolerance accepts
        g = np.diag([bad, -1.0]).astype(complex)
        with pytest.raises(ValueError, match="generator 0 is not Hermitian"):
            generator_unitary([g, np.eye(2)])

    def test_tiny_non_hermitian_rejected(self):
        rng = np.random.default_rng(0)
        g = 1e-13 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        with pytest.raises(ValueError, match="generator 0 is not Hermitian"):
            generator_unitary([g])
