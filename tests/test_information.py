"""Tests for Fisher information matrices, SLDs, curvature, and bounds."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import loem.information

from loem import (
    CurvatureConsistencyError,
    DivergentInformationError,
    StateFamily,
    antiparallel_family,
    antiparallel_qfim_closed,
    average_qfim,
    bell_like_basis,
    born_jacobian,
    derivatives,
    fim,
    generator_unitary,
    identical_pair_family,
    loem_family,
    orthogonal_probes,
    qfim_pure,
    qubit_family,
    qubit_rotation,
    uhlmann_curvature,
    wcc_holds,
)
from oracles import central_difference, numeric_family, numeric_jacobian, phase_shifted_family, sld_pure


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
        family = StateFamily(dim=2, n_params=2, evaluate=lambda x: psi, jacobian=numeric_jacobian(lambda x: psi, 2))
        q = qfim_pure(psi, derivatives(family, np.array([0.5, 0.5])))
        assert np.max(np.abs(q)) < 1e-12

    def test_gauge_invariance(self):
        family = qubit_family()
        numeric = numeric_family(family)
        shifted = phase_shifted_family(family, lambda x: x[0] + 2.0 * x[1])
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(0.2, 2.8, size=2)
            q_plain = qfim_pure(numeric.evaluate(x), derivatives(numeric, x))
            q_shift = qfim_pure(shifted.evaluate(x), derivatives(shifted, x))
            assert np.max(np.abs(q_plain - q_shift)) < 1e-8

    def test_additive_on_products(self):
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

                def evaluate(y, k=k):
                    return unitary(y)[0] @ probes[k]

                single = StateFamily(dim=d, n_params=2, evaluate=evaluate, jacobian=numeric_jacobian(evaluate, 2))
                q_sum += qfim_pure(single.evaluate(x), derivatives(single, x))
            assert np.max(np.abs(q_product - q_sum)) < 1e-7

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qfim_pure(np.array([1.0, 0.0]), np.zeros((3, 2)))

    @pytest.mark.parametrize("d", [3, 6])
    @pytest.mark.parametrize("shape", [(2,), (3, 2)], ids=["point", "batch"])
    def test_strided_columns_match_contiguous_columns(self, d, shape):
        # Central differences stack the columns last, so each column is strided.
        # The same numbers with contiguous columns may be summed in another order:
        # each term of 4 (G_ij - c_i conj(c_j)) is then within the dot-product
        # bound dim * eps * max_i |d_i psi|^2 of the exact value, on either side.
        family = numeric_family(generator_family(d))
        x = np.random.default_rng(67).uniform(0.2, 0.8, size=shape)
        state, jac = family.evaluate(x), derivatives(family, x)
        contiguous = np.ascontiguousarray(jac.swapaxes(-1, -2)).swapaxes(-1, -2)
        assert jac[..., 0].strides[-1] != contiguous[..., 0].strides[-1]
        scale = np.max(np.sum(np.abs(jac) ** 2, axis=-2))
        tol = 4 * 2 * 2 * family.dim * np.finfo(float).eps * scale
        assert np.max(np.abs(qfim_pure(state, jac) - qfim_pure(state, contiguous))) <= tol

    def test_no_copy_of_the_jacobian_at_d6(self):
        family = generator_family(6)
        x = np.array([0.4, 0.7])
        state, jac = family.evaluate(x), derivatives(family, x)
        tracemalloc.start()
        try:
            qfim_pure(state, jac)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < jac.nbytes / 100

    def test_geometry_point_peak_near_its_arrays_at_d6(self):
        # evaluate, Jacobian, QFIM and curvature of one point allocate little beyond the
        # state and the Jacobian they return
        family = generator_family(6)
        x = np.array([0.4, 0.7])
        tracemalloc.start()
        try:
            state, jac = family.evaluate(x), derivatives(family, x)
            qfim_pure(state, jac)
            uhlmann_curvature(state, jac)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * (state.nbytes + jac.nbytes)


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

    def test_matches_dense_sld_commutator_off_the_state_manifold(self):
        # Not normalized, and <psi|d_i psi> has a real part, so the n and c_i terms of the
        # expanded SLD route count (up to ~1e-7 at scale 1e-9); wherever the routes agree,
        # the result must equal the dense oracle.  Larger scales make the routes disagree.
        rng = np.random.default_rng(65)
        matched = raised = 0
        for scale in (1e-13, 1e-11, 1e-9, 1e-8, 1e-6):
            for _ in range(200):
                dim = int(rng.integers(2, 9))
                psi = random_state(rng, dim) * (1.0 + scale * rng.normal())
                jac = tangent_jacobian(rng, psi, 3) + scale * rng.normal(size=3) * psi[:, None]
                try:
                    curv = uhlmann_curvature(psi, jac)
                except CurvatureConsistencyError:
                    raised += 1
                    continue
                slds = [sld_pure(psi, jac[:, i]) for i in range(3)]
                dense = np.array(
                    [[np.real(0.25j * np.vdot(psi, (a @ b - b @ a) @ psi)) for b in slds] for a in slds]
                )
                assert np.max(np.abs(curv - dense)) < 1e-12
                matched += 1
        assert matched >= 500 and raised >= 200

    def test_no_state_sized_array_at_d6(self):
        family = generator_family(6)
        x = np.array([0.4, 0.7])
        state, jac = family.evaluate(x), derivatives(family, x)
        tracemalloc.start()
        try:
            uhlmann_curvature(state, jac)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.nbytes / 100

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
        numeric = numeric_family(family)
        x = np.array([np.pi / 2, 0.7])
        curv = uhlmann_curvature(family.evaluate(x), derivatives(numeric, x))
        assert abs(abs(curv[0, 1]) - 0.5) < 1e-6

    def test_identical_pair_full_sine(self):
        # finite-difference Jacobian of the 4-dim product state as oracle
        family = numeric_family(identical_pair_family())
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
        with pytest.raises(CurvatureConsistencyError, match=r"max_i \|Re <d_i psi\|psi>\| = -?\d"):
            uhlmann_curvature(psi, jac)

    def test_real_overlaps_raise(self):
        # c_0 = c_1 = 1: the Jacobian leaves the sphere although every Im G_ij and
        # Im(conj(c_i) c_j) vanishes, so only the tangency check can see it
        psi = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(CurvatureConsistencyError, match=r"max_i \|Re <d_i psi\|psi>\| = 1\.0 "):
            uhlmann_curvature(psi, np.column_stack([psi, psi]))

    def test_unnormalized_state_raises(self):
        # a real Jacobian makes Im G_ij and Im(conj(c_i) c_j) vanish whatever n is
        psi = np.array([1.0 + 1e-6, 0.0], dtype=complex)
        jac = np.array([[0.0, 0.0], [1.0, 0.5]], dtype=complex)
        with pytest.raises(CurvatureConsistencyError, match=r"\|<psi\|psi> - 1\| = 2\.0\d*e-06 "):
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
        family = numeric_family(loem_family(generator_unitary(gens), 2, orthogonal_probes(4)))
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

    def test_nonfinite_tol_rejected(self):
        # a --tol scaled by a large Jacobian may overflow; inf would accept any curvature
        for tol in (np.inf, np.nan):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                wcc_holds(np.zeros((2, 2)), tol)

    def test_tol_is_per_unit_of_the_scale(self):
        curv = np.array([[0.0, 40.0], [-40.0, 0.0]])
        assert not wcc_holds(curv, 1e-8)
        assert wcc_holds(curv, 1e-8, 5e9)

    def test_refusals_name_the_given_tol(self):
        with pytest.raises(ValueError, match=r"got -1\.0$"):
            wcc_holds(np.zeros((2, 2)), -1.0, 5e9)
        with pytest.raises(ValueError, match=r"tol = 1e\+300 overflows .* max\(1, max_i \|d_i psi\|\^2\) = 5e\+300"):
            wcc_holds(np.zeros((2, 2)), 1e300, 5e300)
        for scale in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="scale must be positive and finite"):
                wcc_holds(np.zeros((2, 2)), 1e-8, scale)


def four_port_fim(x, n_iter=1):
    """The exact classical FIM of the antiparallel family in the four-port basis at one point."""
    family = antiparallel_family(n_iter)
    return fim(*born_jacobian(family.evaluate(x), derivatives(family, x), bell_like_basis()))


class TestFim:
    def test_four_port_matches_qfim_at_reference_point(self):
        # substitution: diag(2, 2 sin^2 70 deg) = diag(2, 1.7660444431189782)
        f = four_port_fim(np.array([np.radians(70.0), np.radians(36.0)]))
        assert np.allclose(f, np.diag([2.0, 1.7660444431189782]), atol=1e-6)

    def test_four_port_matches_qfim_n3(self):
        f = four_port_fim(np.array([0.3, 0.25]), 3)
        assert np.allclose(f, np.diag([18.0, 18.0 * np.sin(3 * 0.3) ** 2]), atol=1e-6)

    def test_constant_model_zero(self):
        f = fim(np.array([0.25, 0.25, 0.5]), np.zeros((3, 2)))
        assert np.max(np.abs(f)) < 1e-12

    def test_divergent_outcome_raises(self):
        # P = max(x - 0.3, 0) at x = 0.3: the probability vanishes, its derivative does not
        with pytest.raises(DivergentInformationError):
            fim(np.array([0.0, 1.0]), np.array([[0.5], [-0.5]]))

    def test_true_zero_over_zero_outcome_skipped(self):
        # a port that is identically zero near x contributes nothing
        x = 0.8
        f = fim(np.array([np.sin(x) ** 2, np.cos(x) ** 2, 0.0]), np.array([[np.sin(2 * x)], [-np.sin(2 * x)], [0.0]]))
        assert np.isfinite(f[0, 0])

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            fim(np.array([0.5, 0.4]), np.zeros((2, 1)))

    @pytest.mark.parametrize(
        "dp", [np.zeros((3, 1)), np.zeros(2), np.array([[np.nan], [0.0]]), np.array([[np.inf], [-np.inf]])]
    )
    def test_malformed_or_nonfinite_derivatives_rejected(self, dp):
        with pytest.raises(ValueError, match=r"dp must be a finite \(2, P\) array"):
            fim(np.array([0.5, 0.5]), dp)

    def test_matches_per_outcome_sum(self):
        # reference: the per-outcome loop fim replaced, skipping the port
        # that is identically zero; only the summation order differs
        def model(x):
            s, c = np.sin(x[0]) ** 2, np.cos(x[0]) ** 2
            return np.array([s * np.cos(x[1]) ** 2, s * np.sin(x[1]) ** 2, c, 0.0])

        rng = np.random.default_rng(15)
        for _ in range(20):
            x = rng.uniform(0.2, 1.3, size=2)
            p0 = model(x)
            dp = np.column_stack([central_difference(model, x, i) for i in range(2)])
            ref = np.zeros((2, 2))
            for k in range(3):
                ref += np.outer(dp[k], dp[k]) / p0[k]
            ref = 0.5 * (ref + ref.T)
            assert np.max(np.abs(fim(p0, dp) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_classical_bound_never_below_quantum(self):
        # equality case: eigenvalues of F^-1 - Q^-1 stay above -1e-8
        rng = np.random.default_rng(10)
        for _ in range(10):
            theta = rng.uniform(0.2, 1.3)
            phi = rng.uniform(0.2, 1.3)
            f = four_port_fim(np.array([theta, phi]))
            q = antiparallel_qfim_closed(theta, 1)
            gap = np.linalg.inv(f) - np.linalg.inv(q)
            assert np.min(np.linalg.eigvalsh(gap)) > -1e-8

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), x=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)))
    def test_cfi_equals_qfim_for_any_complete_qubit_probe_pair(self, seed, x):
        # Probes V|0>, V|1> for a Haar-like random V: the four-port CFI is the QFIM, to roundoff
        # in the terms dP^2 / P, wherever no outcome's P is exactly zero.
        v = np.linalg.qr(np.random.default_rng(seed).normal(size=(2, 2, 2)) @ [1, 1j])[0]
        family = loem_family(qubit_rotation, 2, v.T)
        x = np.array(x)
        state, jac = family.evaluate(x), derivatives(family, x)
        p, dp = born_jacobian(state, jac, bell_like_basis())
        q = qfim_pure(state, jac)
        assume(np.min(p) > 0.0)
        assert np.max(np.abs(fim(p, dp) - q)) <= 1e-12 * max(1.0, np.max(np.abs(q)))

    def test_zero_outcome_point_is_below_the_qfim(self):
        # At phi = 0, P3 and its derivative vanish together, so the outcome is skipped and
        # the phase information it would carry is lost: CFI diag(2, 0), QFIM diag(2, 2 sin^2 0.7).
        family = antiparallel_family(1)
        x = np.array([0.7, 0.0])
        state, jac = family.evaluate(x), derivatives(family, x)
        p, dp = born_jacobian(state, jac, bell_like_basis())
        assert p[2] == 0.0 and np.all(dp[2] == 0.0)
        assert np.max(np.abs(fim(p, dp) - np.diag([2.0, 0.0]))) <= 1e-15
        assert np.allclose(qfim_pure(state, jac), np.diag([2.0, 2.0 * np.sin(0.7) ** 2]), atol=1e-15)

    @staticmethod
    def edge_points():
        """(N, x) with theta, phi or pi/(2N) - phi at 1e-1, 1e-3, ..., 1e-149 rad, the other angle random."""
        rng = np.random.default_rng(0)
        for n_iter in (1, 2, 3, 5, 10):
            limit = np.pi / (2 * n_iter)
            for edge in ("theta", "phi", "far phi"):
                for eps in 10.0 ** -np.arange(1, 150, 2):
                    other = rng.uniform(0.1, 0.9) * limit
                    x = {"theta": (eps, other), "phi": (other, eps), "far phi": (other, limit - eps)}[edge]
                    if x[1] < limit:  # pi/(2N) - 1e-17 rounds to pi/(2N), where P4 = 0 exactly
                        yield n_iter, np.array(x)

    def test_four_port_cfi_equals_qfim_at_the_box_edges(self):
        # Near a zero of a port amplitude P and dP^2 vanish together while dP^2 / P does not;
        # 790 points, to 1e-149 rad from an edge, each judged against the closed-form QFIM.
        points = list(self.edge_points())
        assert len(points) == 790
        for n_iter, x in points:
            q = antiparallel_qfim_closed(x[0], n_iter)
            assert np.max(np.abs(four_port_fim(x, n_iter) - q)) <= 1e-12 * np.max(np.abs(q)), (n_iter, x)

    @pytest.mark.parametrize(
        "n_iter, x",
        [
            (1, (0.7, 1e-8)),  # P3 = 2.1e-17, |dP3| = 4.2e-9: port 3 carries all of F_phi_phi
            (1, (0.7, 1e-9)),  # P3 = 2.1e-19, |dP3| = 4.2e-10: the same
            (1, (0.7, np.pi / 2 - 1e-9)),  # the same at the far phi edge, through port 4
            (1, (1e-3, 1.304)),  # P2 = 6.3e-14 carries 1e-6 of F_theta_theta
            (3, (0.3, 5e-8)),  # P3 = 6.9e-15, |dP3| = 2.8e-7: port 3 carries all of F_phi_phi
            (1, (1e-7, 0.3)),  # P3 = 4.4e-16 and P4 = 4.6e-15 carry all of F_theta_theta
            (2, (2.97e-4, 0.0329)),  # P2 = 7.8e-15 carries 1.4e-6 of F_theta_theta
        ],
    )
    def test_four_port_cfi_equals_qfim_near_a_zero_amplitude(self, n_iter, x):
        # Each point has an outcome with P < 1e-12 whose term dP^2 / P is not negligible.
        q = antiparallel_qfim_closed(x[0], n_iter)
        assert np.max(np.abs(four_port_fim(np.array(x), n_iter) - q)) <= 1e-12 * np.max(np.abs(q))

    def test_bit_identical_to_the_full_sum_where_no_outcome_is_small(self):
        # where every P >= 1e-12 no outcome is skipped, and fim is the plain sum of dP^2 / P
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(200):
            p = rng.dirichlet(np.ones(rng.integers(2, 7)))
            dp = rng.normal(size=(len(p), rng.integers(1, 4)))
            cases.append((p, dp))
        for n_iter in (1, 2, 3):
            family = antiparallel_family(n_iter)
            for x in rng.uniform(0.05, 0.95, size=(100, 2)) * np.pi / (2 * n_iter):
                cases.append(born_jacobian(family.evaluate(x), derivatives(family, x), bell_like_basis()))
        for p, dp in cases:
            assert np.min(p) >= 1e-12
            f = (dp.T / p) @ dp
            assert fim(p, dp).tobytes() == (0.5 * (f + f.T)).tobytes()

    @pytest.mark.parametrize("tiny", [5e-324, 1e-310])
    def test_subnormal_probability_with_moderate_slope_raises(self, tiny):
        # dP^2 / P overflows: a divergence, never an inf or NaN entry (and no warning)
        p = np.array([tiny, 0.5, 0.5])
        dp = np.array([[0.25, 0.0], [-0.25, 1.0], [0.0, -1.0]])
        with pytest.raises(DivergentInformationError, match="overflows"):
            fim(p, dp)

    def test_underflowing_slope_at_zero_probability_skipped(self):
        # P = 0 with dP = 1e-170, whose square underflows to 0: a 0/0 limit
        f = fim(np.array([0.5, 0.5, 0.0]), np.array([[1.0], [-1.0], [1e-170]]))
        assert f.tobytes() == fim(np.array([0.5, 0.5]), np.array([[1.0], [-1.0]])).tobytes()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_box_rejected(self, bad):
        box = ((0.0, np.pi), (0.0, bad))
        with pytest.raises(ValueError, match=r"box must be finite, got \[\[0\.0, 3\.14"):
            average_qfim(qubit_family(), box, samples=10, rng_seed=1)

    @pytest.mark.parametrize("n_iter", [1, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 4097])
    def test_batches_add_up_to_one_batched_mean(self, n_iter, extra):
        # points drawn batch by batch continue one stream, and the running sum adds them in order
        family = antiparallel_family(n_iter)
        samples = loem.information._CHUNK // family.dim + extra
        rng = np.random.Generator(np.random.Philox(key=63))
        points = rng.uniform([0.0, 0.0], [np.pi, 2 * np.pi], size=(samples, 2))
        one_batch = qfim_pure(family.evaluate(points), derivatives(family, points)).mean(axis=0)
        assert average_qfim(family, self.BOX, samples, rng_seed=63).tobytes() == one_batch.tobytes()

    def test_memory_flat_in_samples(self):
        family = antiparallel_family(1)
        batch = loem.information._CHUNK // family.dim

        def peak(samples: int) -> int:
            tracemalloc.start()
            try:
                average_qfim(family, self.BOX, samples, rng_seed=64)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * batch) <= 1.25 * peak(2 * batch)


def generator_family(d):
    rng = np.random.default_rng(60 + d)
    gens = []
    for _ in range(2):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gens.append(g + g.conj().T)
    return loem_family(generator_unitary(gens), 2, orthogonal_probes(d))


BATCH_FAMILIES = {
    "qubit": qubit_family,
    "antiparallel-1": lambda: antiparallel_family(1),
    "antiparallel-3": lambda: antiparallel_family(3),
    "identical-pair": identical_pair_family,
    "phase-shifted": lambda: phase_shifted_family(qubit_family(), lambda x: x[..., 0] + 2.0 * x[..., 1]),
    "generator-d2": lambda: generator_family(2),
    "generator-d3": lambda: generator_family(3),
    "generator-d4": lambda: generator_family(4),
}


@pytest.mark.parametrize("make_family", BATCH_FAMILIES.values(), ids=BATCH_FAMILIES.keys())
class TestBatchContract:
    """Points (K, P) give states (K, dim), Jacobians (K, dim, P) and QFIMs (K, P, P)."""

    BOX = ((0.1, 0.5), (0.1, 0.5))  # inside every family's identifiable box

    def points(self, k=9):
        return np.random.default_rng(61).uniform(0.1, 0.5, size=(k, 2))

    def test_batch_equals_per_point_calls(self, make_family):
        family = make_family()
        points = self.points()
        states = family.evaluate(points)
        jacs = derivatives(family, points)
        qfims = qfim_pure(states, jacs)
        assert states.shape == (9, family.dim)
        assert jacs.shape == (9, family.dim, 2)
        assert qfims.shape == (9, 2, 2)
        for k, point in enumerate(points):
            state, jac = family.evaluate(point), derivatives(family, point)
            assert np.array_equal(states[k], state)
            assert np.array_equal(jacs[k], jac)
            assert np.array_equal(qfims[k], qfim_pure(state, jac))

    def test_average_matches_pointwise_loop(self, make_family):
        family = make_family()
        avg = average_qfim(family, self.BOX, samples=64, rng_seed=62)
        # reference: the per-point accumulation average_qfim replaced; the
        # mean over axis 0 adds the points in the same order, so bits agree
        rng = np.random.Generator(np.random.Philox(key=62))
        points = rng.uniform([0.1, 0.1], [0.5, 0.5], size=(64, 2))
        acc = np.zeros((2, 2))
        for point in points:
            acc += qfim_pure(family.evaluate(point), derivatives(family, point))
        assert np.array_equal(avg, acc / 64)

    def test_curvature_rejects_batch(self, make_family):
        family = make_family()
        points = self.points(3)
        with pytest.raises(ValueError):
            uhlmann_curvature(family.evaluate(points), derivatives(family, points))

    def test_wrong_last_axis_rejected(self, make_family):
        with pytest.raises(ValueError):
            derivatives(make_family(), np.full((4, 3), 0.2))
