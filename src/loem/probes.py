"""Probe-state construction and the entangling measurement.

Parameters are imprinted by applying one unitary U(x) to every member of a
complete set of mutually orthogonal probes and tensoring the results.  For
qubits this yields the antiparallel state U|0> (x) U|1>, measured in the
Bell-like four-port basis; N iterative interactions amplify the angles to
(N theta, N phi).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .quantum import StateFamily, check_unitary, qubit_family, qubit_unitary, tensor_product

__all__ = [
    "orthogonal_probes",
    "loem_state",
    "loem_family",
    "generator_unitary",
    "antiparallel_state",
    "antiparallel_family",
    "identical_pair_family",
    "bell_like_basis",
    "born_probabilities",
    "outcome_probabilities",
    "antiparallel_qfim_closed",
]

UnitaryFamily = Callable[[np.ndarray], np.ndarray]

# Composite dimension d^d is capped at 6^6 = 46656.
_MAX_PROBE_DIM = 6


def orthogonal_probes(d: int) -> np.ndarray:
    """The computational basis of C^d as rows of a (d, d) array."""
    if not 2 <= d <= _MAX_PROBE_DIM:
        raise ValueError(f"probe dimension must be in [2, {_MAX_PROBE_DIM}], got {d}")
    return np.eye(d, dtype=complex)


def loem_state(unitary_family: UnitaryFamily, x: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Tensor product of U(x) applied to each probe, first probe most significant."""
    probes = np.asarray(probes, dtype=complex)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = check_unitary(unitary_family(x))
    if u.shape != (probes.shape[1], probes.shape[1]):
        raise ValueError(f"unitary shape {u.shape} does not match probe dimension {probes.shape[1]}")
    return tensor_product([u @ probe for probe in probes])


def loem_family(unitary_family: UnitaryFamily, n_params: int, probes: np.ndarray) -> StateFamily:
    """StateFamily wrapping loem_state; derivatives by central differences."""
    probes = np.asarray(probes, dtype=complex)
    dim = probes.shape[1] ** probes.shape[0]
    return StateFamily(
        dim=dim,
        n_params=n_params,
        evaluate=lambda x: loem_state(unitary_family, x, probes),
    )


def generator_unitary(generators: Sequence[np.ndarray]) -> UnitaryFamily:
    """Unitary family U(x) = exp(-i sum_k x_k G_k) for Hermitian generators G_k.

    The exponential is evaluated by eigendecomposition of the (Hermitian)
    weighted sum.
    """
    gens = np.asarray(generators, dtype=complex)
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
        raise ValueError("generators must be a sequence of square matrices")
    for k, g in enumerate(gens):
        if np.max(np.abs(g - g.conj().T)) > 1e-12:
            raise ValueError(f"generator {k} is not Hermitian")

    def unitary(x: np.ndarray) -> np.ndarray:
        h = np.tensordot(np.asarray(x, dtype=float), gens, axes=1)
        vals, vecs = np.linalg.eigh(h)
        return (vecs * np.exp(-1j * vals)) @ vecs.conj().T

    return unitary


def antiparallel_state(theta: float, phi: float, n_iter: int = 1) -> np.ndarray:
    """U(N theta, N phi)|0> (x) U(N theta, N phi)|1> in basis |00>,|01>,|10>,|11>."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    u = qubit_unitary(n_iter * theta, n_iter * phi)
    return np.kron(u[:, 0], u[:, 1])


def antiparallel_family(n_iter: int = 1) -> StateFamily:
    """Antiparallel-pair family of (theta, phi) with analytic derivatives."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    n = float(n_iter)

    def evaluate(x: np.ndarray) -> np.ndarray:
        return antiparallel_state(x[0], x[1], n_iter)

    def jacobian(x: np.ndarray) -> np.ndarray:
        a, b = n * x[0], n * x[1]
        sa, ca = np.sin(a), np.cos(a)
        phase = np.exp(1j * b)
        d_a = 0.5 * np.array([-ca / phase, -sa, -sa, ca * phase])
        d_b = 0.5j * sa * np.array([1.0 / phase, 0.0, 0.0, phase])
        return np.column_stack([n * d_a, n * d_b])

    return StateFamily(dim=4, n_params=2, evaluate=evaluate, jacobian=jacobian)


def identical_pair_family() -> StateFamily:
    """Two identical copies |n>(x)|n> of the qubit state, for contrast tests."""
    base = qubit_family()

    def evaluate(x: np.ndarray) -> np.ndarray:
        psi = base.evaluate(x)
        return np.kron(psi, psi)

    def jacobian(x: np.ndarray) -> np.ndarray:
        psi = base.evaluate(x)
        jac = base.jacobian(x)
        cols = [np.kron(jac[:, i], psi) + np.kron(psi, jac[:, i]) for i in range(2)]
        return np.column_stack(cols)

    return StateFamily(dim=4, n_params=2, evaluate=evaluate, jacobian=jacobian)


def bell_like_basis() -> np.ndarray:
    """Four-port measurement basis, rows in fixed port order.

    Port 1 = |01>, port 2 = |10>, port 3 = (|00>+|11>)/sqrt(2),
    port 4 = (|00>-|11>)/sqrt(2).  Independent of the iteration count.
    """
    r = 1.0 / np.sqrt(2.0)
    return np.array(
        [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [r, 0, 0, r],
            [r, 0, 0, -r],
        ],
        dtype=complex,
    )


def born_probabilities(state: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Outcome probabilities |<k|psi>|^2 for a projective basis (rows = kets)."""
    state = np.asarray(state, dtype=complex)
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[1] != state.shape[0]:
        raise ValueError(f"basis shape {basis.shape} does not match state dimension {state.shape[0]}")
    amplitudes = basis.conj() @ state
    return np.abs(amplitudes) ** 2


def outcome_probabilities(theta: float, phi: float, n_iter: int = 1) -> np.ndarray:
    """Closed-form four-port probabilities of the antiparallel state.

    P1 = cos^4(N theta/2), P2 = sin^4(N theta/2),
    P3 = sin^2(N theta) sin^2(N phi)/2, P4 = sin^2(N theta) cos^2(N phi)/2.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    a = n_iter * theta
    b = n_iter * phi
    sin_a_sq = np.sin(a) ** 2
    return np.array(
        [
            np.cos(0.5 * a) ** 4,
            np.sin(0.5 * a) ** 4,
            0.5 * sin_a_sq * np.sin(b) ** 2,
            0.5 * sin_a_sq * np.cos(b) ** 2,
        ]
    )


def antiparallel_qfim_closed(theta: float, n_iter: int = 1) -> np.ndarray:
    """Closed-form QFIM diag(2 N^2, 2 N^2 sin^2(N theta)) of the antiparallel state."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    n_sq = float(n_iter) ** 2
    return np.diag([2.0 * n_sq, 2.0 * n_sq * np.sin(n_iter * theta) ** 2])
