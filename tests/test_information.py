"""Tests for Fisher information matrices, SLDs, curvature, and bounds."""

import dataclasses

import numpy as np
import pytest

from loem import (
    CurvatureConsistencyError,
    DivergentInformationError,
    SingularBoundError,
    StateFamily,
    antiparallel_family,
    antiparallel_qfim_closed,
    average_qfim,
    crb_bound,
    derivatives,
    fim,
    generator_unitary,
    identical_pair_family,
    loem_family,
    orthogonal_probes,
    outcome_probabilities,
    phase_shifted_family,
    qfim_pure,
    qubit_family,
    sld_pure,
    uhlmann_curvature,
    wcc_holds,
)


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def tangent_jacobian(rng, psi, m):
    """Random Jacobian consistent with a normalized family: Re<psi|d_i psi> = 0."""
    dim = psi.shape[0]
    cols = []
    for _ in range(m):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        cols.append(v - np.real(np.vdot(psi, v)) * psi)
    return np.column_stack(cols)


class TestQfimPure:
    def test_single_qubit_closed_form(self):
        # diag(1, sin^2 theta) for the qubit family, any (theta, phi)
        family = qubit_family()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(0.1, 3.0, size=2)
            q = qfim_pure(family.evaluate(x), derivatives(family, x))
            assert np.allclose(q, np.diag([1.0, np.sin(x[0]) ** 2]), atol=1e-12)

    def test_antiparallel_doubles_single_copy(self):
        family = antiparallel_family(1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.uniform(0.1, 1.4, size=2)
            q = qfim_pure(family.evaluate(x), derivatives(family, x))
            assert np.allclose(q, np.diag([2.0, 2.0 * np.sin(x[0]) ** 2]), atol=1e-12)

    def test_constant_family_zero(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        family = StateFamily(dim=2, n_params=2, evaluate=lambda x: psi)
        q = qfim_pure(psi, derivatives(family, np.array([0.5, 0.5])))
        assert np.max(np.abs(q)) < 1e-12

    def test_gauge_invariance(self):
        family = qubit_family()
        numeric = dataclasses.replace(family, jacobian=None)
        shifted = phase_shifted_family(family, lambda x: x[0] + 2.0 * x[1])
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(0.2, 2.8, size=2)
            q_plain = qfim_pure(numeric.evaluate(x), derivatives(numeric, x))
            q_shift = qfim_pure(shifted.evaluate(x), derivatives(shifted, x))
            assert np.max(np.abs(q_plain - q_shift)) < 1e-8

    def test_additive_on_products(self):
        from loem import generator_unitary, loem_family

        rng = np.random.default_rng(6)
        for d in (2, 3):
            gens = []
            for _ in range(2):
                a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                gens.append(0.5 * (a + a.conj().T))
            unitary = generator_unitary(gens)
            probes = orthogonal_probes(d)
            x = rng.uniform(0.2, 0.8, size=2)

            product = loem_family(unitary, 2, probes)
            q_product = qfim_pure(product.evaluate(x), derivatives(product, x))

            q_sum = np.zeros((2, 2))
            for k in range(d):
                single = StateFamily(
                    dim=d, n_params=2, evaluate=lambda y, k=k: unitary(y) @ probes[k]
                )
                q_sum += qfim_pure(single.evaluate(x), derivatives(single, x))
            assert np.max(np.abs(q_product - q_sum)) < 1e-7

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qfim_pure(np.array([1.0, 0.0]), np.zeros((3, 2)))


class TestSld:
    def test_zero_derivative_gives_zero_operator(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        assert np.max(np.abs(sld_pure(psi, np.zeros(2)))) == 0.0

    def test_qubit_off_diagonal_form(self):
        # 2(|1><0|/2 + |0><1|/2) = [[0, 1], [1, 0]]
        psi = np.array([1.0, 0.0], dtype=complex)
        sld = sld_pure(psi, np.array([0.0, 0.5]))
        assert np.allclose(sld, [[0, 1], [1, 0]], atol=1e-15)

    def test_hermitian_and_traceless_expectation(self):
        # Tr(rho L) = 2 Re<psi|d psi> = 0 for normalization-preserving families
        rng = np.random.default_rng(7)
        for _ in range(50):
            psi = random_state(rng, 4)
            jac = tangent_jacobian(rng, psi, 1)
            sld = sld_pure(psi, jac[:, 0])
            assert np.max(np.abs(sld - sld.conj().T)) < 1e-12
            assert abs(np.vdot(psi, sld @ psi)) < 1e-12


class TestUhlmannCurvature:
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_matches_dense_sld_commutator(self, dim):
        # Oracle: (i/4)<psi|[L_i, L_j]|psi> with the d x d SLD matrices.
        rng = np.random.default_rng(100 + dim)
        for _ in range(5):
            psi = random_state(rng, dim)
            jac = tangent_jacobian(rng, psi, 3)
            slds = [sld_pure(psi, jac[:, i]) for i in range(3)]
            dense = np.array(
                [[np.real(0.25j * np.vdot(psi, (a @ b - b @ a) @ psi)) for b in slds] for a in slds]
            )
            assert np.max(np.abs(uhlmann_curvature(psi, jac) - dense)) < 1e-12

    def test_antisymmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(8)
        psi = random_state(rng, 4)
        jac = tangent_jacobian(rng, psi, 3)
        curv = uhlmann_curvature(psi, jac)
        assert np.array_equal(curv, -curv.T)
        assert np.all(np.diag(curv) == 0.0)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_two_routes_agree_on_random_states(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(1000):
            psi = random_state(rng, dim)
            jac = tangent_jacobian(rng, psi, 2)
            curv = uhlmann_curvature(psi, jac)
            reduction = -2.0 * np.imag(np.vdot(jac[:, 0], jac[:, 1]))
            assert abs(curv[0, 1] - reduction) < 1e-8

    def test_single_copy_half_sine(self):
        # analytic oracle: Im<d_theta psi|d_phi psi> = sin(theta)/4
        family = qubit_family()
        numeric = dataclasses.replace(family, jacobian=None)
        x = np.array([np.pi / 2, 0.7])
        curv = uhlmann_curvature(family.evaluate(x), derivatives(numeric, x))
        assert abs(abs(curv[0, 1]) - 0.5) < 1e-6

    def test_identical_pair_full_sine(self):
        # finite-difference Jacobian of the 4-dim product state as oracle
        family = dataclasses.replace(identical_pair_family(), jacobian=None)
        x = np.array([np.pi / 2, 0.3])
        curv = uhlmann_curvature(family.evaluate(x), derivatives(family, x))
        assert abs(abs(curv[0, 1]) - 1.0) < 1e-6

    def test_antiparallel_curvature_vanishes(self):
        rng = np.random.default_rng(9)
        for n_iter in (1, 2, 5):
            family = antiparallel_family(n_iter)
            x = rng.uniform(0.05, np.pi / (2 * n_iter) - 0.05, size=2)
            curv = uhlmann_curvature(family.evaluate(x), derivatives(family, x))
            assert np.max(np.abs(curv)) < 1e-8

    def test_inconsistent_jacobian_raises(self):
        # overlaps <psi|d_0> = 1 (real) and <psi|d_1> = i make the SLD route
        # differ from the overlap route by 2, which a consistent family forbids
        psi = np.array([1.0, 0.0], dtype=complex)
        jac = np.column_stack([psi, np.array([1.0j, 1.0])])
        with pytest.raises(CurvatureConsistencyError):
            uhlmann_curvature(psi, jac)

    def test_inconsistency_message_prints_plain_floats(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        jac = np.column_stack([psi, np.array([1.0j, 1.0])])
        with pytest.raises(CurvatureConsistencyError, match=r"SLD route -?\d.* vs overlap route -?\d"):
            uhlmann_curvature(psi, jac)

    def test_tolerance_scales_with_jacobian(self):
        # Central differences on a d = 4 family with |d_i psi|^2 ~ 126 and 42:
        # the routes give -1.62e-8 and -3.37e-8, beyond an absolute 1e-8.
        rng = np.random.default_rng(14)
        gens = []
        for _ in range(2):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            gens.append(g + g.conj().T)
        x = rng.uniform(0.2, 0.9, 2)
        family = loem_family(generator_unitary(gens), 2, orthogonal_probes(4))
        curv = uhlmann_curvature(family.evaluate(x), derivatives(family, x))
        assert np.max(np.abs(curv)) < 1e-6


class TestWccHolds:
    def test_zero_matrix(self):
        assert wcc_holds(np.zeros((2, 2)), 1e-8)

    def test_identical_pair_fails(self):
        family = identical_pair_family()
        x = np.array([np.pi / 2, 0.4])
        curv = uhlmann_curvature(family.evaluate(x), derivatives(family, x))
        assert not wcc_holds(curv, 1e-8)

    def test_antiparallel_passes(self):
        family = antiparallel_family(1)
        x = np.array([0.9, 0.4])
        curv = uhlmann_curvature(family.evaluate(x), derivatives(family, x))
        assert wcc_holds(curv, 1e-8)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError):
            wcc_holds(np.zeros((2, 2)), 0.0)


class TestFim:
    def test_four_port_matches_qfim_at_reference_point(self):
        # substitution: diag(2, 2 sin^2 70 deg) = diag(2, 1.7660444431189782)
        x = np.array([np.radians(70.0), np.radians(36.0)])
        f = fim(lambda y: outcome_probabilities(y[0], y[1], 1), x)
        assert np.allclose(f, np.diag([2.0, 1.7660444431189782]), atol=1e-6)

    def test_four_port_matches_qfim_n3(self):
        x = np.array([0.3, 0.25])
        f = fim(lambda y: outcome_probabilities(y[0], y[1], 3), x)
        assert np.allclose(f, np.diag([18.0, 18.0 * np.sin(3 * 0.3) ** 2]), atol=1e-6)

    def test_constant_model_zero(self):
        f = fim(lambda x: np.array([0.25, 0.25, 0.5]), np.array([0.3, 0.4]))
        assert np.max(np.abs(f)) < 1e-12

    def test_divergent_outcome_raises(self):
        def model(x):
            p = max(float(x[0]) - 0.3, 0.0)
            return np.array([p, 1.0 - p])

        with pytest.raises(DivergentInformationError):
            fim(model, np.array([0.3]))

    def test_true_zero_over_zero_outcome_skipped(self):
        # a port that is identically zero near x contributes nothing
        def model(x):
            return np.array([np.sin(x[0]) ** 2, np.cos(x[0]) ** 2, 0.0])

        f = fim(model, np.array([0.8]))
        assert np.isfinite(f[0, 0])

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            fim(lambda x: np.array([0.5, 0.4]), np.array([0.1]))


class TestCrbBound:
    def test_diagonal_inverse(self):
        bound = crb_bound(np.diag([2.0, 2.0]), 1)
        assert np.allclose(bound, np.diag([0.5, 0.5]), atol=1e-14)

    def test_scaling_with_shots(self):
        # 1/(2e4) = 5.0e-5 and 1/(2e4 sin^2 10 deg) = 1.658e-3
        theta = np.radians(10.0)
        bound = crb_bound(np.diag([2.0, 2.0 * np.sin(theta) ** 2]), 10**4)
        assert np.allclose(bound[0, 0], 5.0e-5, rtol=1e-12)
        assert np.allclose(bound[1, 1], 1.658e-3, rtol=1e-3)
        assert np.allclose(bound[1, 1], 1.0 / (2e4 * np.sin(theta) ** 2), rtol=1e-12)

    def test_singular_names_phi(self):
        with pytest.raises(SingularBoundError) as excinfo:
            crb_bound(np.diag([2.0, 0.0]), 1, names=("theta", "phi"))
        assert excinfo.value.parameter_index == 1
        assert "phi" in str(excinfo.value)

    def test_classical_bound_never_below_quantum(self):
        # equality case: eigenvalues of F^-1 - Q^-1 stay above -1e-8
        rng = np.random.default_rng(10)
        for _ in range(10):
            theta = rng.uniform(0.2, 1.3)
            phi = rng.uniform(0.2, 1.3)
            f = fim(lambda y: outcome_probabilities(y[0], y[1], 1), np.array([theta, phi]))
            q = antiparallel_qfim_closed(theta, 1)
            gap = np.linalg.inv(f) - np.linalg.inv(q)
            assert np.min(np.linalg.eigvalsh(gap)) > -1e-8


class TestAverageQfim:
    BOX = ((0.0, np.pi), (0.0, 2 * np.pi))

    def test_single_qubit_uniform_average(self):
        # mean of sin^2 over a uniform theta in [0, pi) is 1/2; quadrature check
        thetas = np.linspace(0.0, np.pi, 20001)
        quadrature = np.trapezoid(np.sin(thetas) ** 2, thetas) / np.pi
        assert abs(quadrature - 0.5) < 1e-8
        avg = average_qfim(qubit_family(), self.BOX, samples=10**5, rng_seed=2)
        assert np.allclose(avg, np.diag([1.0, 0.5]), rtol=0.01, atol=1e-3)

    def test_antiparallel_average_doubles(self):
        avg_single = average_qfim(qubit_family(), self.BOX, samples=2 * 10**4, rng_seed=3)
        avg_anti = average_qfim(antiparallel_family(1), self.BOX, samples=2 * 10**4, rng_seed=4)
        assert np.allclose(avg_anti, 2.0 * avg_single, rtol=0.02, atol=2e-3)

    def test_single_sample_matches_pointwise_qfim(self):
        family = qubit_family()
        avg = average_qfim(family, self.BOX, samples=1, rng_seed=9)
        rng = np.random.Generator(np.random.Philox(key=9))
        point = rng.uniform([0.0, 0.0], [np.pi, 2 * np.pi], size=(1, 2))[0]
        q = qfim_pure(family.evaluate(point), derivatives(family, point))
        assert np.allclose(avg, q, atol=1e-14)

    def test_deterministic_in_seed(self):
        a = average_qfim(qubit_family(), self.BOX, samples=500, rng_seed=5)
        b = average_qfim(qubit_family(), self.BOX, samples=500, rng_seed=5)
        assert np.array_equal(a, b)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            average_qfim(qubit_family(), self.BOX, samples=0, rng_seed=1)
