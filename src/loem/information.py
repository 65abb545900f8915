"""Quantum and classical Fisher information for pure states.

Provides the pure-state quantum Fisher information matrix (QFIM), the mean
Uhlmann curvature (the weak commutativity diagnostic), the classical Fisher
information matrix (FIM) of an outcome model, and uniform-prior QFIM averages.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import CurvatureConsistencyError, DivergentInformationError
from .quantum import _CHUNK, StateFamily, central_difference, check_probabilities, derivatives

__all__ = [
    "qfim_pure",
    "uhlmann_curvature",
    "wcc_holds",
    "fim",
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
    if state.ndim < 1 or jac.shape[:-1] != state.shape:
        raise ValueError(f"jacobian shape {jac.shape} does not match state shape {state.shape}")
    return state, jac


@np.errstate(over="ignore", invalid="ignore")  # the result is checked instead
def qfim_pure(state: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """QFIM of a normalized pure state from its parameter Jacobian.

    Q_ij = 4 Re(<d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi>), (..., P, P)
    for states (..., dim); a non-finite result raises DivergentInformationError.
    """
    state, jac = _check_pair(state, jac)
    cols = jac.swapaxes(-1, -2)  # a view; vecdot conjugates its first argument in its loop, so nothing is copied
    gram = np.vecdot(cols[..., :, None, :], cols[..., None, :, :])
    overlap = np.vecdot(cols, state[..., None, :])  # entry i: <d_i psi|psi>
    q = 4.0 * np.real(gram - overlap[..., :, None] * overlap.conj()[..., None, :])
    q = 0.5 * (q + q.swapaxes(-1, -2))
    if not np.isfinite(q).all():
        raise DivergentInformationError("QFIM overflows: the Jacobian is too large")
    return q


@np.errstate(over="ignore", invalid="ignore")  # the result is checked instead
def uhlmann_curvature(state: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Mean Uhlmann curvature U_ij = (i/4) <psi|[L_i, L_j]|psi>.

    Each entry is computed along two routes: the SLD-commutator definition
    above, from the scalars <psi|psi>, <d_i psi|psi> and <d_i psi|d_j psi>
    (no state-sized vector), and the pure-state reduction -2 Im <d_i psi|d_j psi>.
    A disagreement beyond _CONSISTENCY_TOL times max(1, max_i |d_i psi|^2)
    (e.g. a Jacobian inconsistent with the state's normalization) raises
    CurvatureConsistencyError.  The scale follows the finite-difference
    noise, which grows with the Jacobian.  A non-finite tolerance or result
    raises DivergentInformationError.

    One point only (a batch raises ValueError); the returned matrix is
    exactly antisymmetric with zero diagonal.
    """
    state, jac = _check_pair(state, jac)
    if state.ndim != 1:
        raise ValueError(f"uhlmann_curvature takes one state, got shape {state.shape}")
    m = jac.shape[1]
    norm = np.vdot(state, state).real
    overlaps = [np.vdot(jac[:, i], state) for i in range(m)]  # c_i = <d_i psi|psi>
    tol = _CONSISTENCY_TOL * max([1.0] + [np.vdot(jac[:, i], jac[:, i]).real for i in range(m)])
    curv = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            gram = np.vdot(jac[:, i], jac[:, j])
            # L_i|psi> = 2(n|d_i psi> + c_i|psi>) with n = <psi|psi>, so (i/4)<psi|[L_i, L_j]|psi>
            # = -(1/2) Im <L_i psi|L_j psi> = -2n(n Im G_ij + Im(conj(c_i) c_j)), G_ij = <d_i psi|d_j psi>.
            commutator = -2.0 * norm * (norm * gram.imag + (overlaps[i].conjugate() * overlaps[j]).imag)
            reduction = -2.0 * gram.imag
            if abs(commutator - reduction) > tol:
                raise CurvatureConsistencyError(
                    f"curvature entry ({i},{j}): SLD route {float(commutator)!r} vs "
                    f"overlap route {float(reduction)!r} differ beyond {tol:g}"
                )
            curv[i, j] = commutator
            curv[j, i] = -commutator
    if not (np.isfinite(tol) and np.isfinite(curv).all()):
        raise DivergentInformationError("curvature overflows: the Jacobian is too large")
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
    kept = p0 >= _PROB_FLOOR
    slope = np.max(np.abs(dp), axis=1)
    for k in np.flatnonzero(~kept & (slope >= _DERIV_FLOOR))[:1]:
        raise DivergentInformationError(
            f"outcome {k}: P = {p0[k]:.3e} but |dP| = {slope[k]:.3e}; Fisher information diverges at this point"
        )
    f = (dp[kept].T / p0[kept]) @ dp[kept]
    return 0.5 * (f + f.T)


def average_qfim(
    family: StateFamily,
    box: Sequence[tuple[float, float]],
    samples: int,
    rng_seed: int,
) -> np.ndarray:
    """Monte Carlo mean of the QFIM over a uniform prior on a parameter box.

    Points come from a counter-based Philox stream keyed by ``rng_seed`` in
    batches of _CHUNK // dim, added to the sum point by point in stream order,
    so the result depends only on (seed, samples), not on the batch size.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    box_arr = np.asarray(box, dtype=float)
    if box_arr.shape != (family.n_params, 2):
        raise ValueError(f"box must have shape ({family.n_params}, 2), got {box_arr.shape}")
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    batch = max(1, _CHUNK // family.dim)
    total = np.full((family.n_params, family.n_params), -0.0)  # -0.0 + x == x, signed zeros included
    for start in range(0, samples, batch):
        points = rng.uniform(box_arr[:, 0], box_arr[:, 1], size=(min(batch, samples - start), family.n_params))
        q = qfim_pure(family.evaluate(points), derivatives(family, points))
        total = np.concatenate([total[None], q]).sum(axis=0)
    return total / samples
