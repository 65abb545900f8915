"""Probe-state construction and the entangling measurement.

Parameters are imprinted by applying one unitary U(x) to every member of a
complete set of mutually orthogonal probes and tensoring the results.  For
qubits this yields the antiparallel state U|0> (x) U|1>, measured in the
Bell-like four-port basis; N iterative interactions amplify the angles to
(N theta, N phi).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .information import _check_pair
from .quantum import StateFamily, UnitaryFamily, _check_integer, loem_family, qubit_rotation

__all__ = [
    "orthogonal_probes",
    "generator_unitary",
    "antiparallel_family",
    "identical_pair_family",
    "bell_like_basis",
    "born_probabilities",
    "born_jacobian",
    "outcome_probabilities",
    "antiparallel_qfim_closed",
]


def orthogonal_probes(d: int) -> np.ndarray:
    """The computational basis of C^d as rows of a (d, d) array."""
    _check_integer("d", d, 2)
    return np.eye(d, dtype=complex)


@np.errstate(invalid="ignore")  # an inf entry gives NaN in g - g†, which fails the check instead
def generator_unitary(generators: Sequence[np.ndarray]) -> UnitaryFamily:
    """Unitary family U(x) = exp(-i sum_k x_k G_k) for generators G_k Hermitian to 1e-12 max|G_k|.

    dU/dx_k = V (D o V† G_k V) V† reuses H = V diag(l) V† from U; the divided differences of e^{-il}
    (Daleckii-Krein) D_ab = -i e^{-i(l_a+l_b)/2} sinc((l_a-l_b)/2pi) need no branch for equal l.
    """
    gens = np.array(generators, dtype=complex)  # a copy: a caller's later edit must not bypass the check
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
        raise ValueError("generators must be a sequence of square matrices")
    for k, g in enumerate(gens):
        if not np.abs(g - g.conj().T).max() <= 1e-12 * np.abs(g).max():
            raise ValueError(f"generator {k} is not Hermitian")

    def unitary(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = (np.asarray(x, dtype=float)[..., :, None, None] * gens).sum(axis=-3)
        vals, vecs = np.linalg.eigh(h)
        la, lb = vals[..., None, :, None], vals[..., None, None, :]
        dd = -1j * np.exp(-0.5j * (la + lb)) * np.sinc((la - lb) / (2 * np.pi))
        v = vecs[..., None, :, :]  # V with a parameter axis
        du = v @ (dd * (v.conj().swapaxes(-1, -2) @ gens @ v)) @ v.conj().swapaxes(-1, -2)
        return (vecs * np.exp(-1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2), du

    return unitary


@np.errstate(over="ignore")  # the result is checked instead
def _amplified(n_iter: int, theta, phi):
    """(N theta, N phi), which must be finite: sin and cos of inf are NaN."""
    _check_integer("n_iter", n_iter, 1, 53)
    a, b = n_iter * theta, n_iter * phi
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError(f"N * angle is not finite for N = {n_iter}")
    return a, b


def _angle_limit(n_iter: int) -> float:
    """pi/(2N), the bound of the identifiable box 0 <= theta, phi < pi/(2N)."""
    _check_integer("n_iter", n_iter, 1, 53)
    return np.pi / (2 * int(n_iter))  # 2 * a numpy integer wraps in its dtype


def antiparallel_family(n_iter: int = 1) -> StateFamily:
    """Antiparallel-pair family of (theta, phi): U(N x) on the probes |0>, |1>."""
    _check_integer("n_iter", n_iter, 1, 53)

    def unitary(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u, du = qubit_rotation(np.stack(_amplified(n_iter, x[..., 0], x[..., 1]), axis=-1))
        return u, float(n_iter) * du

    return loem_family(unitary, 2, orthogonal_probes(2))


def identical_pair_family() -> StateFamily:
    """Two identical copies |n>(x)|n> of the qubit state, for contrast tests."""
    return loem_family(qubit_rotation, 2, orthogonal_probes(2)[[0, 0]])


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
    """Outcome probabilities |<k|psi>|^2 (..., K) of states (..., dim) for a projective basis (K, dim), rows = kets."""
    state = np.asarray(state, dtype=complex)
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or state.ndim < 1 or basis.shape[1] != state.shape[-1]:
        raise ValueError(f"basis shape {basis.shape} does not match state shape {state.shape}")
    return np.abs(state @ basis.conj().T) ** 2


def born_jacobian(state: np.ndarray, jac: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Born p (..., K) and dp_ki = 2 Re(conj(<k|psi>) <k|d_i psi>) (..., K, P) from Jacobians (..., dim, P), for fim."""
    state, jac = _check_pair(state, jac)
    p = born_probabilities(state, basis)
    bras = np.asarray(basis, dtype=complex).conj()
    return p, 2.0 * np.real((state @ bras.T).conj()[..., None] * (bras @ jac))


def outcome_probabilities(theta: float, phi: float, n_iter: int = 1) -> np.ndarray:
    """Closed-form four-port probabilities of the antiparallel state, shape (4, ...).

    P1 = cos^4(N theta/2), P2 = sin^4(N theta/2),
    P3 = sin^2(N theta) sin^2(N phi)/2, P4 = sin^2(N theta) cos^2(N phi)/2.
    theta and phi broadcast, so grid axes of shapes (k, 1) and (m,) give the
    (4, k, m) grid with sin and cos taken on k + m angles, each cell equal
    bit for bit to a call on the full grid.
    """
    a, b = _amplified(n_iter, theta, phi)
    sin_a_sq = np.sin(a) ** 2
    return np.array(
        np.broadcast_arrays(
            np.cos(0.5 * a) ** 4,
            np.sin(0.5 * a) ** 4,
            0.5 * sin_a_sq * np.sin(b) ** 2,
            0.5 * sin_a_sq * np.cos(b) ** 2,
        )
    )


def antiparallel_qfim_closed(theta: float, n_iter: int = 1) -> np.ndarray:
    """Closed-form QFIM diag(2 N^2, 2 N^2 sin^2(N theta)) of the antiparallel state."""
    a, _ = _amplified(n_iter, theta, 0.0)
    two_n_sq = 2.0 * np.float64(n_iter) ** 2
    return np.diag([two_n_sq, two_n_sq * np.sin(a) ** 2])
