"""Dense complex linear algebra for small Hilbert spaces.

States are complex ndarrays (..., dim), unitaries (..., d, d); leading axes
index a batch of points.  Unitary families give U and dU as arrays; state
families bundle an evaluation map with its exact Jacobian, and every
operation here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DerivativeError

__all__ = [
    "check_unitary",
    "check_probabilities",
    "qubit_rotation",
    "StateFamily",
    "derivatives",
    "loem_family",
    "qubit_family",
]

# Points x (..., P) -> U(x) (..., d, d) and dU/dx_k stacked as (..., P, d, d).
UnitaryFamily = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_UNITARY_ATOL = 1e-12
_MAX_DENSE_DIM = 6**6  # amplitudes d**K of the largest product state loem_family builds
_CHUNK = 2**14  # amplitudes per temporary of a Jacobian step or a batch of average_qfim states


def check_unitary(u: np.ndarray) -> np.ndarray:
    """Validate U†U = I to _UNITARY_ATOL (NaN fails) for U or a stack (..., d, d); return it as complex128."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-2] != u.shape[-1]:
        raise ValueError("unitary must be a square matrix")
    defect = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max(initial=0.0)  # an empty stack passes
    if not defect <= _UNITARY_ATOL:
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
    low = np.min(p, initial=np.inf)  # an empty vector fails on its sum
    if not (low >= -1e-12 and abs(p.sum() - 1.0) <= 1e-10):
        raise ValueError(f"invalid probability vector: min {low!r}, sum {p.sum()!r}")
    return np.maximum(p, 0.0)


def _check_integer(name: str, value, low: int, bits: int | None = None) -> None:
    """Raise ValueError unless value is a Python or numpy integer, never a float, in [low, 2**bits) or [low, inf)."""
    high, text = (np.inf, "inf") if bits is None else (2**bits, f"2**{bits}")
    if not (isinstance(value, (int, np.integer)) and low <= value < high):
        raise ValueError(f"{name} must be in [{low}, {text}) and an integer, got {value!r}")


def qubit_rotation(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation taking |0> to cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, as a unitary family.

    Points x = (theta, phi) in radians, shape (..., 2), any real values, give
    U (..., 2, 2) and dU/dx_k (..., 2, 2, 2) as views of one array, filled
    from one cos, sin and exp of the angles.
    """
    x = np.asarray(x)  # no dtype: a float32 batch keeps complex64 output
    c, s, phase = np.cos(0.5 * x[..., 0]), np.sin(0.5 * x[..., 0]), np.exp(1j * x[..., 1])
    out = np.zeros(x.shape[:-1] + (3, 2, 2), dtype=np.result_type(c, phase))  # U, dU/dtheta, dU/dphi
    out[..., 0, 0, 0] = out[..., 0, 1, 1] = c
    out[..., 0, 0, 1], out[..., 0, 1, 0] = -s / phase, s * phase
    out[..., 1, 0, 0] = out[..., 1, 1, 1] = -0.5 * s
    out[..., 1, 0, 1], out[..., 1, 1, 0] = -0.5 * c / phase, 0.5 * phase * c
    out[..., 2, 0, 1], out[..., 2, 1, 0] = 1j * s / phase, 1j * phase * s  # 1j * U * [[0, -1], [1, 0]], entrywise
    return out[..., 0, :, :], out[..., 1:, :, :]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b for complex states (..., m) and (..., n), a most significant, as (..., m n)."""
    out = a[..., :, None] * b[..., None, :]  # the long axis inside
    return out.reshape(out.shape[:-2] + (out.shape[-2] * out.shape[-1],))  # not -1: a batch may be empty


def _add_outer(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """out += a[..., None] * b[..., None, None, :] for a contiguous out (..., P, d, n), in _CHUNK slices if larger."""
    if out.size <= _CHUNK:
        out += a[..., None] * b[..., None, None, :]
        return
    m, n = a.shape[-2] * a.shape[-1], b.shape[-1]
    out, a, b = out.reshape(-1, m, n), a.reshape(-1, m), b.reshape(-1, n)
    batch, rows = max(1, _CHUNK // (m * n)), max(1, _CHUNK // n)  # n = d**(K-1) <= _CHUNK
    for k in range(0, len(out), batch):
        for j in range(0, m, rows):
            out[k : k + batch, j : j + rows] += a[k : k + batch, j : j + rows, None] * b[k : k + batch, None, :]


@dataclass(frozen=True)
class StateFamily:
    """A parameterized family x -> |psi(x)> of normalized states.

    Points (..., n_params) map to states (..., dim) and exact Jacobians (...,
    dim, n_params); a 1-D point has no leading axes.  ``evaluate`` must be
    deterministic (no random global phase): imaginary parts of derivative
    overlaps are only meaningful in a smooth gauge.
    """

    dim: int
    n_params: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


def derivatives(family: StateFamily, x: np.ndarray) -> np.ndarray:
    """Jacobian of the family at points x (..., n_params), one column per parameter.

    Returns a (..., dim, n_params) complex array whose column i is d|psi>/dx_i
    in the family's fixed phase convention (no per-call phase renormalization).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != family.n_params:
        raise ValueError(f"expected {family.n_params} parameters, got shape {x.shape}")
    jac = np.asarray(family.jacobian(x), dtype=complex)
    expected = x.shape[:-1] + (family.dim, family.n_params)
    if jac.shape != expected:
        raise ValueError(f"jacobian has shape {jac.shape}, expected {expected}")
    finite = np.isfinite(jac).all(axis=(-2, -1))
    if not finite.all():
        raise DerivativeError(f"non-finite derivative amplitudes at x = {x[~finite][0].tolist()}")
    return jac


def loem_family(unitary_family: UnitaryFamily, n_params: int, probes: np.ndarray) -> StateFamily:
    """Family x -> tensor product of U(x)|p_k> over the unit-vector rows of probes (K, d), first most significant.

    U must be a deterministic function of x, as StateFamily requires of evaluate: the family keeps
    the last points' dU, factor states U|p_k> and suffix products U|p_{k+1}> (x) ... (x) U|p_K>,
    so evaluate followed by derivatives at the same points calls the unitary family once.  Per point
    that is P d**2 + K d + d**K / (d-1) amplitudes at most, held until a call at other points.
    """
    probes = np.array(probes, dtype=complex)  # a copy: a caller's later edit must not change the family
    if probes.ndim != 2 or probes.size == 0:
        raise ValueError(f"probes must be a non-empty (K, d) array, got shape {probes.shape}")
    k, d = probes.shape
    if d ** min(k, 16) > _MAX_DENSE_DIM:  # d**K itself can take seconds to compute; 2**16 is already above
        raise ValueError(f"the dense state would have d**K = {d}**{k} amplitudes, above 6**6 = {_MAX_DENSE_DIM}")
    for row, norm_sq in enumerate(np.vecdot(probes, probes).real.tolist()):
        if not abs(norm_sq - 1.0) <= _UNITARY_ATOL:  # NaN fails
            raise ValueError(f"probe row {row} is not a unit vector: |<p|p> - 1| = {abs(norm_sq - 1.0):.3e}")
    last = (None, None)  # (key, point) of the last points, replaced in one assignment

    def point(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """dU, factors U|p_k> and suffixes[i] = factors[i+1] (x) ... (x) factors[K-1] at points x."""
        nonlocal last
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[-1] != n_params:
            raise ValueError(f"expected {n_params} parameters, got shape {x.shape}")
        key = (x.shape, x.tobytes())
        last_key, value = last
        if last_key == key:
            return value
        u, du = unitary_family(x)
        u = check_unitary(u)
        if u.shape[-2:] != (d, d):
            raise ValueError(f"unitary shape {u.shape[-2:]} does not match probe dimension {d}")
        factors = [u @ probe for probe in probes]
        suffixes = factors[1:]
        for i in range(k - 3, -1, -1):
            suffixes[i] = _kron(suffixes[i], suffixes[i + 1])
        value = (du, factors, suffixes)
        last = (key, value)
        return value

    def evaluate(x: np.ndarray) -> np.ndarray:
        _, factors, suffixes = point(x)
        return _kron(factors[0], suffixes[0]) if suffixes else factors[0].copy()

    def jacobian(x: np.ndarray) -> np.ndarray:
        # From the last factor: d(a (x) s) = a (x) ds + da (x) s for a suffix state s, one (..., P, d, D) array
        du, factors, suffixes = point(x)
        jac = du @ probes[-1]
        for i in range(k - 2, -1, -1):
            jac = factors[i][..., None, :, None] * jac[..., :, None, :]
            _add_outer(jac, du @ probes[i], suffixes[i])
            jac = jac.reshape(jac.shape[:-2] + (jac.shape[-2] * jac.shape[-1],))
        return jac.swapaxes(-1, -2)

    return StateFamily(dim=d**k, n_params=n_params, evaluate=evaluate, jacobian=jacobian)


def qubit_family() -> StateFamily:
    """Family (theta, phi) -> cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>: U(x) on the one probe |0>."""
    return loem_family(qubit_rotation, 2, [[1, 0]])
