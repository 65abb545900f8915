"""Tests for states, unitaries, and family derivatives."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import loem.information
import loem.quantum
from loem import (
    DerivativeError,
    StateFamily,
    antiparallel_family,
    average_qfim,
    check_probabilities,
    check_unitary,
    derivatives,
    generator_unitary,
    loem_family,
    qfim_pure,
    qubit_family,
    qubit_rotation,
)
from oracles import central_difference, left_fold_jacobian, left_fold_state, numeric_family, numeric_jacobian


class TestQubitUnitary:
    def test_identity_at_zero_theta(self):
        u = qubit_rotation(np.array([0.0, 1.234]))[0]
        assert np.allclose(u, np.eye(2), atol=1e-15)

    def test_theta_pi(self):
        # substitution: cos(pi/2) = 0, sin(pi/2) = 1, phi = 0
        u = qubit_rotation(np.array([np.pi, 0.0]))[0]
        assert np.allclose(u, [[0, -1], [1, 0]], atol=1e-12)

    def test_maps_zero_ket(self):
        # substitution: (cos(pi/4), e^{i pi/2} sin(pi/4)) = (1, i)/sqrt(2)
        psi = qubit_rotation(np.array([np.pi / 2, np.pi / 2]))[0] @ np.array([1, 0])
        assert np.allclose(psi, [1 / np.sqrt(2), 1j / np.sqrt(2)], atol=1e-12)
        assert abs(np.sum(np.abs(psi) ** 2) - 1) < 1e-12

    def test_unitarity_random_angles(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            phi = rng.uniform(-2 * np.pi, 2 * np.pi)
            u = qubit_rotation(np.array([theta, phi]))[0]
            worst = max(worst, np.max(np.abs(u.conj().T @ u - np.eye(2))))
        assert worst < 1e-12

    def test_angles_outside_principal_range_accepted(self):
        # no clamping; the matrix is 4*pi-periodic in theta (half-angle form)
        u = qubit_rotation(np.array([[0.3 + 4 * np.pi, 0.1], [0.3, 0.1], [-0.3, 2 * np.pi + 0.1], [-0.3, 0.1]]))[0]
        assert np.allclose(u[0], u[1]) and np.allclose(u[2], u[3])

    def test_list_points_match_array(self):
        # x[..., 0] on a list raised a bare TypeError
        for points in ([0.1, 0.2], [[0.3, -1.0], [2.5, 0.7]]):
            for listed, arrayed in zip(qubit_rotation(points), qubit_rotation(np.array(points))):
                assert listed.dtype == arrayed.dtype and listed.tobytes() == arrayed.tobytes()
        assert qubit_rotation(np.array([0.1, 0.2], dtype=np.float32))[0].dtype == np.complex64


class TestDerivatives:
    def test_analytic_qubit_values(self):
        # differentiate (cos(t/2), e^{i p} sin(t/2)) by hand at (pi/2, 0):
        # d_theta = (-sin(pi/4)/2, cos(pi/4)/2), d_phi = (0, i sin(pi/4))
        jac = derivatives(qubit_family(), np.array([np.pi / 2, 0.0]))
        assert np.allclose(jac[:, 0], [-0.3535533905932738, 0.3535533905932738], atol=1e-12)
        assert np.allclose(jac[:, 1], [0.0, 0.7071067811865476j], atol=1e-12)

    def test_central_difference_matches_analytic(self):
        family = qubit_family()
        numeric = numeric_family(family)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(0.1, 3.0, size=2)
            diff = derivatives(numeric, x) - derivatives(family, x)
            assert np.max(np.abs(diff)) < 1e-8

    def test_constant_family_zero(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        family = StateFamily(dim=2, n_params=2, evaluate=lambda x: psi, jacobian=numeric_jacobian(lambda x: psi, 2))
        jac = derivatives(family, np.array([0.4, 0.9]))
        assert np.max(np.abs(jac)) < 1e-10

    def test_overlap_purely_imaginary(self):
        family = qubit_family()
        numeric = numeric_family(family)
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.uniform(0.1, 3.0, size=2)
            psi = family.evaluate(x)
            assert np.max(np.abs(np.real(psi.conj() @ derivatives(family, x)))) < 1e-12
            assert np.max(np.abs(np.real(psi.conj() @ derivatives(numeric, x)))) < 1e-6

    def test_nonfinite_raises(self):
        family = StateFamily(
            dim=2,
            n_params=1,
            evaluate=lambda x: np.array([1.0, 0.0], dtype=complex),
            jacobian=lambda x: np.full((2, 1), np.nan, dtype=complex),
        )
        with pytest.raises(DerivativeError):
            derivatives(family, np.array([0.0]))

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(ValueError):
            derivatives(qubit_family(), np.array([0.1]))

    def test_one_route_the_exact_jacobian(self):
        # Central differences are a test oracle, not a library path: a family must bring its Jacobian.
        assert not hasattr(loem.quantum, "central_difference") and not hasattr(loem.quantum, "DEFAULT_STEP")
        jacobian = {field.name: field for field in dataclasses.fields(StateFamily)}["jacobian"]
        assert jacobian.default is dataclasses.MISSING
        with pytest.raises(TypeError):
            StateFamily(dim=2, n_params=1, evaluate=lambda x: np.array([1.0, 0.0], dtype=complex))


class TestValidators:
    def test_check_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            check_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_check_unitary_rejects_nan(self):
        with pytest.raises(ValueError):
            check_unitary(np.full((2, 2), np.nan))
        with pytest.raises(ValueError):
            check_unitary(np.stack([np.eye(2), np.full((2, 2), np.nan), np.eye(2)]))

    def test_check_unitary_accepts_an_empty_stack(self):
        assert check_unitary(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    @pytest.mark.parametrize(
        "p", [[], [np.nan, 1.0], [0.5, 0.6], [-1e-9, 1.0 + 1e-9]], ids=["empty", "nan", "sum", "min"]
    )
    def test_check_probabilities_rejects_with_its_own_message(self, p):
        with pytest.raises(ValueError, match="invalid probability vector"):
            check_probabilities(np.array(p))

    def test_check_probabilities_clips_roundoff_at_zero(self):
        assert check_probabilities(np.array([-1e-13, 1.0])).tolist() == [0.0, 1.0]


class TestLoemFamily:
    @pytest.mark.parametrize("probes", [np.array([1.0, 0.0]), np.zeros((1, 2, 2)), np.zeros((0, 2))])
    def test_probes_not_a_nonempty_matrix_rejected(self, probes):
        with pytest.raises(ValueError, match="non-empty"):
            loem_family(qubit_rotation, 2, probes)

    def test_first_factor_is_most_significant(self):
        # U(0) = I on the probes |0>, |1>: the state |0> (x) |1> has its one amplitude at index 0 * 2 + 1
        state = loem_family(qubit_rotation, 2, [[1, 0], [0, 1]]).evaluate([0.0, 0.0])
        assert np.array_equal(state, [0, 1, 0, 0])

    @pytest.mark.parametrize(
        "x", [[0.3], [0.3, 0.4, 0.5], [[0.3], [0.4]], [[0.3, 0.4, 0.5]] * 2], ids=["1", "3", "batch-1", "batch-3"]
    )
    @pytest.mark.parametrize(
        "make",
        [lambda: loem_family(generator_rotation(3, 89), 2, np.eye(3)), qubit_family, lambda: antiparallel_family(2)],
        ids=["generator-d3", "qubit", "antiparallel-N2"],
    )
    def test_wrong_parameter_count_rejected_by_evaluate_and_derivatives(self, make, x):
        # evaluate once built (0.3, 0.3) from [0.3] on a generator family, or ignored a third value
        family = make()
        with pytest.raises(ValueError, match="expected 2 parameters"):
            family.evaluate(np.array(x))
        with pytest.raises(ValueError, match="expected 2 parameters"):
            derivatives(family, np.array(x))

    def test_qubit_family_is_column_zero_of_the_rotation(self):
        angles = [0.0, np.pi, -np.pi, -0.7, 2.3, 1e6]
        x = np.stack(np.meshgrid(angles, angles, indexing="ij"), axis=-1).reshape(4, 9, 2)
        family = qubit_family()
        assert np.array_equal(family.evaluate(x), qubit_rotation(x)[0][..., :, 0])
        assert np.array_equal(derivatives(family, x), qubit_rotation(x)[1][..., :, 0].swapaxes(-1, -2))

    @pytest.mark.parametrize(
        "probes, says",
        [
            ([[2, 0]], "row 0 is not a unit vector: |<p|p> - 1| = 3.000e+00"),
            ([[1, 0], [0, np.nan]], "row 1"),
            ([[1, 0], [0, 1.0 + 1e-12]], "row 1 is not a unit vector: |<p|p> - 1| = 2.000e-12"),
        ],
        ids=["2|0>", "nan", "1+1e-12"],
    )
    def test_probe_not_a_unit_vector_rejected(self, probes, says):
        # the QFIM of 2|0> at (0.7, 0.3) was diag(4.0, 0.996), where |0> gives diag(1.0, 0.415)
        with pytest.raises(ValueError, match="probe") as error:
            loem_family(qubit_rotation, 2, probes)
        assert says in str(error.value)

    def test_empty_batch_gives_empty_results(self):
        for family in (qubit_family(), antiparallel_family(2), loem_family(generator_rotation(3, 82), 2, np.eye(3))):
            for shape in ((0, 2), (3, 0, 2)):
                x = np.zeros(shape)
                state, jac = family.evaluate(x), derivatives(family, x)
                assert state.shape == shape[:-1] + (family.dim,)
                assert jac.shape == shape[:-1] + (family.dim, 2)
                assert qfim_pure(state, jac).shape == shape[:-1] + (2, 2)

    def test_later_edits_of_the_inputs_change_nothing(self):
        gens = hermitian_pair(3, 83)
        probes = random_probes(2, 3, 84)
        family = loem_family(generator_unitary(gens), 2, probes)
        reference = loem_family(generator_unitary(gens.copy()), 2, probes.copy())

        def same_at(x):  # each edit is followed by new points, so that no kept point can hide it
            return same_bits(family.evaluate(x), reference.evaluate(x)) and same_bits(
                derivatives(family, x), derivatives(reference, x)
            )

        gens[0, 0, 1] = 5.0  # no longer Hermitian
        assert same_at(np.array([0.3, -0.8]))
        probes[0] = [0.0, 1.0, 0.0]
        assert same_at(np.array([[1.1, 0.2], [-0.4, 0.9]]))


def hermitian_pair(d, seed):
    """Two random Hermitian generators as one (2, d, d) complex array."""
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(2):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gens.append(g + g.conj().T)
    return np.array(gens)


def generator_rotation(d, seed):
    return generator_unitary(hermitian_pair(d, seed))


def random_probes(k, d, seed):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


FOLD_CASES = {
    "qubit-K1": (qubit_rotation, [[1, 0]]),
    "qubit-K2": (qubit_rotation, np.eye(2)),
    "qubit-identical-K2": (qubit_rotation, [[1, 0], [1, 0]]),
    "generator-d3-K2-random": (generator_rotation(3, 70), random_probes(2, 3, 71)),
    "qubit-K5-random": (qubit_rotation, random_probes(5, 2, 72)),
    "generator-d3-K3": (generator_rotation(3, 73), np.eye(3)),
    "generator-d4-K4": (generator_rotation(4, 74), np.eye(4)),
    "generator-d3-K5-random": (generator_rotation(3, 75), random_probes(5, 3, 76)),
    "generator-d5-K5": (generator_rotation(5, 77), np.eye(5)),
}


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRightFold:
    """loem_family folds from the last factor; the left fold of tests/oracles.py is its reference."""

    @pytest.mark.parametrize("chunk", [3, 40, loem.quantum._CHUNK])
    @pytest.mark.parametrize("case", FOLD_CASES.values(), ids=FOLD_CASES.keys())
    def test_matches_left_fold_oracle(self, monkeypatch, case, chunk):
        # chunk 3 slices every Jacobian step of these small families, by batch entry and by row; 40 the larger ones
        monkeypatch.setattr(loem.quantum, "_CHUNK", chunk)
        unitary_family, probes = case
        family = loem_family(unitary_family, 2, probes)
        rng = np.random.default_rng(78)
        for x in (rng.uniform(-2.0, 2.0, size=2), rng.uniform(-2.0, 2.0, size=(3, 7, 2))):
            pairs = [
                (family.evaluate(x), left_fold_state(unitary_family, probes, x)),
                (derivatives(family, x), left_fold_jacobian(unitary_family, probes, x)),
            ]
            for got, want in pairs:
                if len(probes) <= 2:  # the two folds multiply and add the same numbers
                    assert same_bits(got, want)
                else:
                    assert got.shape == want.shape
                    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_one_operation_step_equals_sliced_step(self, monkeypatch, d):
        # a step with at most _CHUNK output amplitudes adds its outer product in one operation, a larger one in slices
        unitary_family = generator_rotation(d, 82 + d)
        rng = np.random.default_rng(82)
        chunks = (3, 40, loem.quantum._CHUNK)
        for x in (rng.uniform(-2.0, 2.0, size=2), rng.uniform(-2.0, 2.0, size=(3, 2))):
            results = []
            for chunk in chunks:
                monkeypatch.setattr(loem.quantum, "_CHUNK", chunk)
                family = loem_family(unitary_family, 2, np.eye(d))
                results.append((family.evaluate(x), derivatives(family, x)))
            for state, jac in results[1:]:
                assert same_bits(state, results[0][0])
                assert same_bits(jac, results[0][1])

    def test_two_factor_batch_across_slices_is_bit_equal(self):
        # 5000 antiparallel points are three batch slices of the default chunk
        x = np.random.default_rng(79).uniform(-4.0, 4.0, size=(5000, 2))
        family = loem_family(qubit_rotation, 2, np.eye(2))
        assert same_bits(derivatives(family, x), left_fold_jacobian(qubit_rotation, np.eye(2), x))

    def test_jacobian_memory_at_d6(self):
        # the result plus the last step's inputs and one _CHUNK slice; two full-size arrays would be 2x
        family = loem_family(generator_rotation(6, 81), 2, np.eye(6))
        x = np.array([0.4, 0.7])
        derivatives(family, x)
        tracemalloc.start()
        try:
            jac = derivatives(family, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.7 * jac.nbytes


def degenerate_rotation(d, seed):
    """A generator family whose G_1 repeats an eigenvalue, so that H = x_1 G_1 is degenerate."""
    gens = hermitian_pair(d, seed)
    q, _ = np.linalg.qr(gens[1])
    spectrum = np.linspace(-1.0, 1.0, d)
    spectrum[1] = spectrum[0]
    gens[0] = (q * spectrum) @ q.conj().T
    return generator_unitary(gens)


UNITARY_CASES = {
    "qubit": (qubit_rotation, 2),
    **{f"generator-d{d}": (generator_rotation(d, 90 + d), d) for d in range(2, 7)},
    "generator-d4-degenerate": (degenerate_rotation(4, 97), 4),
}


class TestUnitaryArrays:
    """A unitary family returns U (..., d, d) and dU (..., P, d, d) as arrays at the same points."""

    @pytest.mark.parametrize("case", UNITARY_CASES.values(), ids=UNITARY_CASES.keys())
    def test_du_is_the_derivative_array_of_the_jacobian(self, case):
        unitary_family, d = case
        family = loem_family(unitary_family, 2, np.eye(d))
        rng = np.random.default_rng(98)
        # x = 0 makes every eigenvalue of H equal; x_2 = 0 makes two equal for the degenerate G_1
        points = (np.zeros(2), np.array([0.6, 0.0]), rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, (3, 4, 2)))
        for x in points:
            u, du = unitary_family(x)
            assert type(du) is np.ndarray and du.shape == x.shape[:-1] + (2, d, d)
            numeric = np.stack(
                [central_difference(lambda y: unitary_family(y)[0], x, i) for i in range(2)], axis=-3
            )
            assert np.max(np.abs(du - numeric)) <= 1e-7 * np.max(np.abs(du))
            got, want = derivatives(family, x), left_fold_jacobian(unitary_family, np.eye(d), x)
            if d <= 2:  # the two folds multiply and add the same numbers
                assert same_bits(got, want)
            else:
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def counting(unitary_family):
    """The unitary family with a list that grows by one entry per call."""
    calls = []

    def counted(x):
        calls.append(x.shape)
        return unitary_family(x)

    return counted, calls


class TestPointMemo:
    """evaluate and jacobian at the same points share one call of the unitary family."""

    def test_one_unitary_call_per_point(self):
        unitary_family, calls = counting(generator_rotation(3, 85))
        family = loem_family(unitary_family, 2, np.eye(3))
        x = np.array([0.4, 0.7])
        family.evaluate(x)
        derivatives(family, x)
        family.evaluate(x.tolist())
        assert len(calls) == 1
        derivatives(family, x + 0.1)
        assert len(calls) == 2

    @pytest.mark.parametrize("unitary_family, d", [(qubit_rotation, 2), (generator_rotation(3, 86), 3)])
    def test_in_place_edit_of_x_gives_the_new_points(self, unitary_family, d):
        family, fresh = loem_family(unitary_family, 2, np.eye(d)), loem_family(unitary_family, 2, np.eye(d))
        x = np.array([[0.4, 0.7], [1.2, -0.3]])
        kept = x.copy()
        family.evaluate(x)
        x[1, 0] += 0.5
        # the kept points are keyed by their values at the call, so the edited array is a call at new points
        assert same_bits(derivatives(family, kept), derivatives(fresh, kept))
        assert same_bits(derivatives(family, x), derivatives(fresh, x))

    @pytest.mark.parametrize("case", FOLD_CASES.values(), ids=FOLD_CASES.keys())
    def test_any_call_order_matches_a_fresh_family(self, case):
        unitary_family, probes = case

        def fresh():
            return loem_family(unitary_family, 2, probes)

        rng = np.random.default_rng(87)
        for x in (rng.uniform(-2.0, 2.0, size=2), rng.uniform(-2.0, 2.0, size=(3, 7, 2))):
            state, jac = fresh().evaluate(x), derivatives(fresh(), x)
            family = fresh()
            assert same_bits(derivatives(family, x), jac)  # derivatives alone
            returned = family.evaluate(x)  # evaluate after derivatives
            assert same_bits(returned, state)
            returned[...] = 7.0  # the caller owns what evaluate returned
            assert same_bits(family.evaluate(x), state)
            assert same_bits(derivatives(family, x), jac)

    def test_failed_points_keep_the_last_good_points(self):
        def unitary_family(x):
            u, du = qubit_rotation(x)
            if x[0] > 5.0:
                return 2.0 * u, du  # not unitary
            if x[0] < -5.0:
                return np.eye(3), du  # unitary, but not on the probes' C^2
            return u, du

        counted, calls = counting(unitary_family)
        family = loem_family(counted, 2, np.eye(2))
        fresh = loem_family(qubit_rotation, 2, np.eye(2))
        good = np.array([0.4, 0.7])
        state = family.evaluate(good)
        refused = [
            (np.array([6.0, 0.0]), "not unitary"),
            (np.array([-6.0, 0.0]), "probe dimension"),
            (np.array([0.3, 0.4, 0.5]), "expected 2 parameters"),  # refused before the unitary family is called
        ]
        for bad, match in refused:
            with pytest.raises(ValueError, match=match):
                family.evaluate(bad)
            assert same_bits(derivatives(family, good), derivatives(fresh, good))
            assert same_bits(family.evaluate(good), state)
        assert len(calls) == 3
        other = np.array([1.3, -0.2])
        assert same_bits(family.evaluate(other), fresh.evaluate(other))

    def test_average_qfim_calls_the_unitary_family_once_per_batch(self, monkeypatch):
        monkeypatch.setattr(loem.information, "_CHUNK", 16)  # 4 points per batch of the 4-amplitude pair
        unitary_family, calls = counting(qubit_rotation)
        family = loem_family(unitary_family, 2, np.eye(2))
        average_qfim(family, ((0.0, np.pi), (0.0, 2.0 * np.pi)), 10, rng_seed=88)
        assert calls == [(4, 2), (4, 2), (2, 2)]


class TestDenseCap:
    def test_refused_at_construction_without_building(self):
        def unitary(x):
            raise AssertionError("the unitary family was called")

        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"d\*\*K = 10\*\*10 amplitudes"):
                loem_family(unitary, 2, np.eye(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("d, k", [(6, 6), (2, 15), (7, 5), (1, 1000)])
    def test_at_or_below_cap_accepted(self, d, k):
        assert loem_family(qubit_rotation, 2, np.ones((k, d)) / np.sqrt(d)).dim == d**k

    @pytest.mark.parametrize("d, k", [(6, 7), (2, 16), (7, 6), (2, 10**5)])
    def test_above_cap_rejected(self, d, k):
        with pytest.raises(ValueError, match=rf"d\*\*K = {d}\*\*{k} "):
            loem_family(qubit_rotation, 2, np.ones((k, d)))
