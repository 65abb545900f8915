"""Dense complex linear algebra for small Hilbert spaces.

States are plain 1-D complex ndarrays, unitaries are 2-D complex ndarrays.
Parameterized families bundle an evaluation map with either an analytic
Jacobian or a central-difference rule, and every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .errors import DerivativeError

__all__ = [
    "check_state",
    "check_unitary",
    "check_probabilities",
    "qubit_unitary",
    "tensor_product",
    "StateFamily",
    "derivatives",
    "qubit_family",
    "phase_shifted_family",
]

#: Central-difference step. Balances O(h^2) truncation against floating-point
#: cancellation at double precision; validated against analytic qubit
#: derivatives in the test suite.
DEFAULT_STEP = 1e-5


def check_state(psi: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Validate a normalized state vector and return it as complex128."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size == 0:
        raise ValueError("state vector must be a non-empty 1-D array")
    norm_sq = float(np.sum(np.abs(psi) ** 2))
    if not np.isfinite(norm_sq) or abs(norm_sq - 1.0) > atol:
        raise ValueError(f"state vector is not normalized: sum |a_k|^2 = {norm_sq!r}")
    return psi


def check_unitary(u: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Validate U†U = I entrywise and return U as complex128."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be a square matrix")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if defect > atol:
        raise ValueError(f"matrix is not unitary: max |U†U - I| = {defect:.3e}")
    return u


def check_probabilities(p: np.ndarray) -> np.ndarray:
    """Validate a 1-D probability vector and return it clipped at zero.

    Entries may dip to -1e-12 and the sum may miss 1 by 1e-10 (roundoff of
    Born-rule and closed-form probabilities); NaN entries fail both checks.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("probability vector must be a 1-D array")
    if not (np.min(p) >= -1e-12 and abs(p.sum() - 1.0) <= 1e-10):
        raise ValueError(f"invalid probability vector: min {p.min()!r}, sum {p.sum()!r}")
    return np.maximum(p, 0.0)


def qubit_unitary(theta: float, phi: float) -> np.ndarray:
    """Rotation taking |0> to cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    Angles are radians; any real value is accepted, periodicity is handled
    by the trigonometry.
    """
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)
    phase = np.exp(1j * phi)
    return np.array([[c, -s / phase], [s * phase, c]])


def tensor_product(states: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of state vectors, first factor most significant."""
    if len(states) == 0:
        raise ValueError("tensor_product requires at least one state")
    return reduce(np.kron, [np.asarray(s, dtype=complex) for s in states])


@dataclass(frozen=True)
class StateFamily:
    """A parameterized family x -> |psi(x)> of normalized states.

    ``evaluate`` must be a deterministic function of x (no random global
    phase): imaginary parts of derivative overlaps are only meaningful in a
    smooth gauge.  When ``jacobian`` is None, derivatives are taken by
    central differences with step DEFAULT_STEP.
    """

    dim: int
    n_params: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None


def central_difference(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, i: int) -> np.ndarray:
    """Central-difference derivative of f along parameter i at x, step DEFAULT_STEP."""
    e = np.zeros_like(x)
    e[i] = DEFAULT_STEP
    return (f(x + e) - f(x - e)) / (2 * DEFAULT_STEP)


def derivatives(family: StateFamily, x: np.ndarray) -> np.ndarray:
    """Jacobian of the family at x, one column per parameter.

    Returns a (dim, n_params) complex array whose column i approximates
    d|psi>/dx_i in the family's fixed phase convention (no per-call phase
    renormalization).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (family.n_params,):
        raise ValueError(f"expected {family.n_params} parameters, got shape {x.shape}")
    if family.jacobian is not None:
        jac = np.asarray(family.jacobian(x), dtype=complex)
    else:
        jac = np.column_stack(
            [central_difference(family.evaluate, x, i) for i in range(family.n_params)]
        )
    if jac.shape != (family.dim, family.n_params):
        raise ValueError(f"jacobian has shape {jac.shape}, expected {(family.dim, family.n_params)}")
    if not np.all(np.isfinite(jac)):
        raise DerivativeError(f"non-finite derivative amplitudes at x = {x.tolist()}")
    return jac


def qubit_family() -> StateFamily:
    """Family (theta, phi) -> cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""

    def evaluate(x: np.ndarray) -> np.ndarray:
        theta, phi = x
        return np.array([np.cos(0.5 * theta), np.exp(1j * phi) * np.sin(0.5 * theta)])

    def jacobian(x: np.ndarray) -> np.ndarray:
        theta, phi = x
        phase = np.exp(1j * phi)
        d_theta = np.array([-0.5 * np.sin(0.5 * theta), 0.5 * phase * np.cos(0.5 * theta)])
        d_phi = np.array([0.0, 1j * phase * np.sin(0.5 * theta)])
        return np.column_stack([d_theta, d_phi])

    return StateFamily(dim=2, n_params=2, evaluate=evaluate, jacobian=jacobian)


def phase_shifted_family(family: StateFamily, alpha: Callable[[np.ndarray], float]) -> StateFamily:
    """Multiply a family by the smooth global phase e^{i alpha(x)}.

    Used to exercise gauge invariance of information quantities; derivatives
    of the result are always taken by central differences.
    """

    def evaluate(x: np.ndarray) -> np.ndarray:
        return np.exp(1j * alpha(x)) * family.evaluate(x)

    return StateFamily(dim=family.dim, n_params=family.n_params, evaluate=evaluate)
