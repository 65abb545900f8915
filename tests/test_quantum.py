"""Tests for states, unitaries, tensor products, and family derivatives."""

import dataclasses

import numpy as np
import pytest

from loem import (
    DerivativeError,
    StateFamily,
    check_unitary,
    derivatives,
    loem_family,
    orthogonal_probes,
    qubit_family,
    qubit_rotation,
    qubit_unitary,
    tensor_product,
)


def brute_force_kron(a, b):
    """Independent oracle: explicit double loop over the composite index."""
    out = np.zeros(len(a) * len(b), dtype=complex)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i * len(b) + j] = ai * bj
    return out


class TestQubitUnitary:
    def test_identity_at_zero_theta(self):
        u = qubit_unitary(0.0, 1.234)
        assert np.allclose(u, np.eye(2), atol=1e-15)

    def test_theta_pi(self):
        # substitution: cos(pi/2) = 0, sin(pi/2) = 1, phi = 0
        u = qubit_unitary(np.pi, 0.0)
        assert np.allclose(u, [[0, -1], [1, 0]], atol=1e-12)

    def test_maps_zero_ket(self):
        # substitution: (cos(pi/4), e^{i pi/2} sin(pi/4)) = (1, i)/sqrt(2)
        psi = qubit_unitary(np.pi / 2, np.pi / 2) @ np.array([1, 0])
        assert np.allclose(psi, [1 / np.sqrt(2), 1j / np.sqrt(2)], atol=1e-12)
        assert abs(np.sum(np.abs(psi) ** 2) - 1) < 1e-12

    def test_unitarity_random_angles(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            phi = rng.uniform(-2 * np.pi, 2 * np.pi)
            u = qubit_unitary(theta, phi)
            worst = max(worst, np.max(np.abs(u.conj().T @ u - np.eye(2))))
        assert worst < 1e-12

    def test_angles_outside_principal_range_accepted(self):
        # no clamping; the matrix is 4*pi-periodic in theta (half-angle form)
        assert np.allclose(qubit_unitary(0.3 + 4 * np.pi, 0.1), qubit_unitary(0.3, 0.1))
        assert np.allclose(qubit_unitary(-0.3, 2 * np.pi + 0.1), qubit_unitary(-0.3, 0.1))


class TestTensorProduct:
    def test_basis_states(self):
        out = tensor_product([np.array([1, 0]), np.array([0, 1])])
        assert np.array_equal(out, np.array([0, 1, 0, 0], dtype=complex))

    def test_superposition_with_basis_state(self):
        r = 1 / np.sqrt(2)
        out = tensor_product([np.array([r, r]), np.array([1, 0])])
        assert np.allclose(out, [r, 0, r, 0])

    def test_matches_brute_force_outer_product(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        a, b = psi
        expected = brute_force_kron(psi, psi)
        out = tensor_product([psi, psi])
        assert np.allclose(out, expected, atol=1e-15)
        assert np.allclose(out, [a * a, a * b, b * a, b * b], atol=1e-15)

    def test_associativity(self):
        rng = np.random.default_rng(6)
        vecs = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in (2, 3, 2)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        a, b, c = vecs
        nested = tensor_product([a, tensor_product([b, c])])
        flat = tensor_product([a, b, c])
        assert np.max(np.abs(nested - flat)) < 1e-14

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            tensor_product([])


class TestDerivatives:
    def test_analytic_qubit_values(self):
        # differentiate (cos(t/2), e^{i p} sin(t/2)) by hand at (pi/2, 0):
        # d_theta = (-sin(pi/4)/2, cos(pi/4)/2), d_phi = (0, i sin(pi/4))
        jac = derivatives(qubit_family(), np.array([np.pi / 2, 0.0]))
        assert np.allclose(jac[:, 0], [-0.3535533905932738, 0.3535533905932738], atol=1e-12)
        assert np.allclose(jac[:, 1], [0.0, 0.7071067811865476j], atol=1e-12)

    def test_central_difference_matches_analytic(self):
        family = qubit_family()
        numeric = dataclasses.replace(family, jacobian=None)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(0.1, 3.0, size=2)
            diff = derivatives(numeric, x) - derivatives(family, x)
            assert np.max(np.abs(diff)) < 1e-8

    def test_constant_family_zero(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        family = StateFamily(dim=2, n_params=2, evaluate=lambda x: psi)
        jac = derivatives(family, np.array([0.4, 0.9]))
        assert np.max(np.abs(jac)) < 1e-10

    def test_overlap_purely_imaginary(self):
        family = qubit_family()
        numeric = dataclasses.replace(family, jacobian=None)
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.uniform(0.1, 3.0, size=2)
            psi = family.evaluate(x)
            assert np.max(np.abs(np.real(psi.conj() @ derivatives(family, x)))) < 1e-12
            assert np.max(np.abs(np.real(psi.conj() @ derivatives(numeric, x)))) < 1e-6

    def test_nonfinite_raises(self):
        family = StateFamily(
            dim=2, n_params=1, evaluate=lambda x: np.array([np.nan, 0.0], dtype=complex)
        )
        with pytest.raises(DerivativeError):
            derivatives(family, np.array([0.0]))

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(ValueError):
            derivatives(qubit_family(), np.array([0.1]))


class TestValidators:
    def test_check_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            check_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_check_unitary_rejects_nan(self):
        with pytest.raises(ValueError):
            check_unitary(np.full((2, 2), np.nan))
        with pytest.raises(ValueError):
            check_unitary(np.stack([np.eye(2), np.full((2, 2), np.nan), np.eye(2)]))


class TestLoemFamily:
    @pytest.mark.parametrize("probes", [np.array([1.0, 0.0]), np.zeros((1, 2, 2)), np.zeros((0, 2))])
    def test_probes_not_a_nonempty_matrix_rejected(self, probes):
        with pytest.raises(ValueError, match="non-empty"):
            loem_family(qubit_rotation, 2, probes)

    def test_qubit_family_is_column_zero_of_the_rotation(self):
        angles = [0.0, np.pi, -np.pi, -0.7, 2.3, 1e6]
        x = np.stack(np.meshgrid(angles, angles, indexing="ij"), axis=-1).reshape(4, 9, 2)
        family = qubit_family()
        assert np.array_equal(family.evaluate(x), qubit_unitary(x[..., 0], x[..., 1])[..., :, 0])
        assert np.array_equal(derivatives(family, x), qubit_rotation(x)[1]()[..., :, 0].swapaxes(-1, -2))

    def test_evaluate_does_not_ask_for_du(self):
        def du():
            raise RuntimeError("dU asked for")

        family = loem_family(lambda x: (qubit_rotation(x)[0], du), 2, orthogonal_probes(2))
        x = np.array([0.4, 1.1])
        u = qubit_unitary(0.4, 1.1)
        assert np.array_equal(family.evaluate(x), tensor_product([u[:, 0], u[:, 1]]))
        with pytest.raises(RuntimeError, match="dU asked for"):
            derivatives(family, x)
