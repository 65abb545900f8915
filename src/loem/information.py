"""Quantum and classical Fisher information for pure states.

Provides the pure-state quantum Fisher information matrix (QFIM), symmetric
logarithmic derivative (SLD) operators, the mean Uhlmann curvature (the weak
commutativity diagnostic), the classical Fisher information matrix (FIM) of
an outcome model, Cramér-Rao bound matrices, and uniform-prior QFIM averages.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import CurvatureConsistencyError, DivergentInformationError, SingularBoundError
from .quantum import StateFamily, central_difference, check_probabilities, derivatives

__all__ = [
    "qfim_pure",
    "sld_pure",
    "uhlmann_curvature",
    "wcc_holds",
    "fim",
    "crb_bound",
    "average_qfim",
]

# Outcomes below this probability are candidate 0/0 limits of the FIM sum.
_PROB_FLOOR = 1e-12
# ...unless their derivative exceeds this, which makes the term divergent.
_DERIV_FLOOR = 1e-9
# Largest disagreement of the two curvature routes, per unit of the largest
# squared Jacobian column norm.
_CONSISTENCY_TOL = 1e-8


def _check_pair(state: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    state = np.asarray(state, dtype=complex)
    jac = np.asarray(jac, dtype=complex)
    if jac.ndim != 2 or jac.shape[0] != state.shape[0]:
        raise ValueError(f"jacobian shape {jac.shape} does not match state dimension {state.shape[0]}")
    return state, jac


def qfim_pure(state: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """QFIM of a normalized pure state from its parameter Jacobian.

    Q_ij = 4 Re(<d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi>).
    """
    state, jac = _check_pair(state, jac)
    gram = jac.conj().T @ jac
    overlap = jac.conj().T @ state  # entry i: <d_i psi|psi>
    q = 4.0 * np.real(gram - np.outer(overlap, overlap.conj()))
    return 0.5 * (q + q.T)


def sld_pure(state: np.ndarray, deriv_column: np.ndarray) -> np.ndarray:
    """Pure-state SLD operator L = 2(|d psi><psi| + |psi><d psi|)."""
    state = np.asarray(state, dtype=complex)
    deriv = np.asarray(deriv_column, dtype=complex)
    if deriv.shape != state.shape:
        raise ValueError(f"derivative shape {deriv.shape} does not match state shape {state.shape}")
    return 2.0 * (np.outer(deriv, state.conj()) + np.outer(state, deriv.conj()))


def _sld_applied(state: np.ndarray, deriv: np.ndarray) -> np.ndarray:
    """L|psi> for the pure-state SLD, without the d x d matrix."""
    return 2.0 * (deriv * np.vdot(state, state) + state * np.vdot(deriv, state))


def uhlmann_curvature(state: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Mean Uhlmann curvature U_ij = (i/4) <psi|[L_i, L_j]|psi>.

    Each entry is computed along two independent routes: the SLD-commutator
    definition above and the pure-state reduction -2 Im <d_i psi|d_j psi>.
    A disagreement beyond _CONSISTENCY_TOL times max(1, max_i |d_i psi|^2)
    (e.g. a Jacobian inconsistent with the state's normalization) raises
    CurvatureConsistencyError.  The scale follows the finite-difference
    noise, which grows with the Jacobian.

    The returned matrix is exactly antisymmetric with zero diagonal.
    """
    state, jac = _check_pair(state, jac)
    m = jac.shape[1]
    applied = [_sld_applied(state, jac[:, i]) for i in range(m)]
    tol = _CONSISTENCY_TOL * max([1.0] + [np.vdot(jac[:, i], jac[:, i]).real for i in range(m)])
    curv = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            # <psi|L_i L_j|psi> = (L_i psi)† (L_j psi); the commutator keeps
            # only the imaginary part.
            commutator = -0.5 * np.imag(np.vdot(applied[i], applied[j]))
            reduction = -2.0 * np.imag(np.vdot(jac[:, i], jac[:, j]))
            if abs(commutator - reduction) > tol:
                raise CurvatureConsistencyError(
                    f"curvature entry ({i},{j}): SLD route {float(commutator)!r} vs "
                    f"overlap route {float(reduction)!r} differ beyond {tol:g}"
                )
            curv[i, j] = commutator
            curv[j, i] = -commutator
    return curv


def wcc_holds(curv: np.ndarray, tol: float) -> bool:
    """True iff every curvature entry is below tol in magnitude."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    curv = np.asarray(curv, dtype=float)
    return bool(np.max(np.abs(curv)) < tol) if curv.size else True


def fim(model: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Classical FIM of an outcome model at x by central differences.

    F_ij = sum_k dP(k)/dx_i dP(k)/dx_j / P(k).  Outcomes with P < 1e-12 and
    a vanishing derivative are genuine 0/0 limits and are skipped; a vanishing
    probability with a non-vanishing derivative raises
    DivergentInformationError instead of silently producing a large entry.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p0 = check_probabilities(model(x))
    m = x.shape[0]
    dp = np.column_stack([central_difference(lambda y: check_probabilities(model(y)), x, i) for i in range(m)])
    f = np.zeros((m, m))
    for k in range(p0.shape[0]):
        if p0[k] < _PROB_FLOOR:
            if np.max(np.abs(dp[k])) < _DERIV_FLOOR:
                continue
            raise DivergentInformationError(
                f"outcome {k}: P = {p0[k]:.3e} but |dP| = {np.max(np.abs(dp[k])):.3e}; "
                "Fisher information diverges at this point"
            )
        f += np.outer(dp[k], dp[k]) / p0[k]
    return 0.5 * (f + f.T)


def crb_bound(
    info: np.ndarray, shots: int, names: Sequence[str] | None = None
) -> np.ndarray:
    """Cramér-Rao covariance bound (info * shots)^(-1).

    Raises SingularBoundError naming the unidentifiable parameter when the
    scaled matrix is singular (|det| < 1e-12).
    """
    info = np.asarray(info, dtype=float)
    if shots < 1:
        raise ValueError("shots must be a positive integer")
    scaled = float(shots) * info
    det = float(np.linalg.det(scaled))
    if abs(det) < 1e-12:
        eigvals, eigvecs = np.linalg.eigh(0.5 * (scaled + scaled.T))
        null_index = int(np.argmin(np.abs(eigvals)))
        idx = int(np.argmax(np.abs(eigvecs[:, null_index])))
        name = names[idx] if names is not None else f"parameter {idx}"
        raise SingularBoundError(
            f"information matrix is singular (det = {det:.3e}, "
            f"eigenvalues = {eigvals.tolist()}); {name} is unidentifiable here",
            parameter_index=idx,
            parameter_name=names[idx] if names is not None else None,
        )
    return np.linalg.inv(scaled)


def average_qfim(
    family: StateFamily,
    box: Sequence[tuple[float, float]],
    samples: int,
    rng_seed: int,
) -> np.ndarray:
    """Monte Carlo mean of the QFIM over a uniform prior on a parameter box.

    Points are drawn up front from a counter-based Philox stream keyed by
    ``rng_seed``, so the result depends only on (seed, samples), not on how
    the evaluation is scheduled.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    box_arr = np.asarray(box, dtype=float)
    if box_arr.shape != (family.n_params, 2):
        raise ValueError(f"box must have shape ({family.n_params}, 2), got {box_arr.shape}")
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    points = rng.uniform(box_arr[:, 0], box_arr[:, 1], size=(samples, family.n_params))
    acc = np.zeros((family.n_params, family.n_params))
    for point in points:
        acc += qfim_pure(family.evaluate(point), derivatives(family, point))
    return acc / samples
