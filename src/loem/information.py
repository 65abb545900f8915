"""Quantum and classical Fisher information for pure states.

Provides the pure-state quantum Fisher information matrix (QFIM), the mean
Uhlmann curvature (the weak commutativity diagnostic), the classical FIM of
outcome probabilities and their exact Jacobian, and uniform-prior QFIM averages.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import CurvatureConsistencyError, DivergentInformationError
from .quantum import _CHUNK, StateFamily, _check_integer, check_probabilities, derivatives

__all__ = [
    "qfim_pure",
    "uhlmann_curvature",
    "wcc_holds",
    "fim",
    "average_qfim",
]

# Largest |<psi|psi> - 1| and |Re <d_i psi|psi>| that the curvature accepts, per
# unit of the largest squared Jacobian column norm: the roundoff of an exact
# Jacobian, and the error of the tests' central-difference oracles, grow with it.
_CONSISTENCY_TOL = 1e-8


def _check_pair(state: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    state = np.asarray(state, dtype=complex)
    jac = np.asarray(jac, dtype=complex)
    if state.ndim < 1 or jac.shape[:-1] != state.shape:
        raise ValueError(f"jacobian shape {jac.shape} does not match state shape {state.shape}")
    return state, jac


def _gram_overlaps(state: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G_ij = <d_i psi|d_j psi> as (..., P, P) and c_i = <d_i psi|psi> as (..., P)."""
    cols = jac.swapaxes(-1, -2)  # a view; vecdot conjugates its first argument in its loop, so nothing is copied
    gram = np.vecdot(cols[..., :, None, :], cols[..., None, :, :])
    return gram, np.vecdot(cols, state[..., None, :])


@np.errstate(over="ignore", invalid="ignore")  # the result is checked instead
def qfim_pure(state: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """QFIM of a normalized pure state from its parameter Jacobian.

    Q_ij = 4 Re(<d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi>), (..., P, P)
    for states (..., dim); a non-finite result raises DivergentInformationError.
    """
    gram, overlap = _gram_overlaps(*_check_pair(state, jac))
    q = 4.0 * np.real(gram - overlap[..., :, None] * overlap.conj()[..., None, :])
    q = 0.5 * (q + q.swapaxes(-1, -2))
    if not np.isfinite(q).all():
        raise DivergentInformationError("QFIM overflows: the Jacobian is too large")
    return q


@np.errstate(over="ignore", invalid="ignore")  # the result is checked instead
def uhlmann_curvature(state: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Mean Uhlmann curvature U_ij = (i/4) <psi|[L_i, L_j]|psi> at one point.

    With n = <psi|psi>, c_i = <d_i psi|psi> and G_ij = <d_i psi|d_j psi>, the SLD
    L_i|psi> = 2(n|d_i psi> + c_i|psi>) gives U = -2n Im(n G - c c^H), made exactly
    antisymmetric: the imaginary part of the geometric tensor whose real part gives
    qfim_pure, with no state-sized vector.  |n - 1| or max_i |Re c_i| beyond
    _CONSISTENCY_TOL times max(1, max_i G_ii) (roundoff grows with the Jacobian)
    raises CurvatureConsistencyError; a non-finite tolerance or result
    raises DivergentInformationError, and a batch raises ValueError.
    """
    state, jac = _check_pair(state, jac)
    if state.ndim != 1:
        raise ValueError(f"uhlmann_curvature takes one state, got shape {state.shape}")
    gram, overlap = _gram_overlaps(state, jac)
    norm = np.vecdot(state, state).real
    drift = np.abs(overlap.real).max(initial=0.0)  # zero for a Jacobian tangent to the sphere
    tol = _CONSISTENCY_TOL * max(1.0, gram.diagonal().real.max(initial=0.0))
    for name, value in (("|<psi|psi> - 1|", abs(norm - 1.0)), ("max_i |Re <d_i psi|psi>|", drift)):
        if value > tol:
            raise CurvatureConsistencyError(f"{name} = {float(value)!r} exceeds {tol:g}: state and Jacobian disagree")
    curv = -2.0 * norm * np.imag(norm * gram - overlap[:, None] * overlap.conj()[None, :])
    curv = 0.5 * (curv - curv.T)
    if not (np.isfinite(tol) and np.isfinite(curv).all()):
        raise DivergentInformationError("curvature overflows: the Jacobian is too large")
    return curv


def wcc_holds(curv: np.ndarray, tol: float, scale: float = 1.0) -> bool:
    """True iff every curvature entry is below tol * scale in magnitude.

    tol is per unit of scale, meant to be max(1, max_i |d_i psi|^2), the
    scale of uhlmann_curvature's check, with which its roundoff grows.  tol,
    scale and tol * scale must be positive and finite; a refusal names the tol
    given.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not 0 < scale < np.inf:
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    if not tol * scale < np.inf:
        raise ValueError(f"tol = {tol!r} overflows per unit of the scale max(1, max_i |d_i psi|^2) = {scale!r}")
    curv = np.asarray(curv, dtype=float)
    return bool(np.max(np.abs(curv)) < tol * scale) if curv.size else True


@np.errstate(over="ignore", invalid="ignore")  # the result is checked instead
def fim(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Classical FIM of outcome probabilities p (K,) from their exact Jacobian dp (K, P).

    F_ij = sum_k dP(k)/dx_i dP(k)/dx_j / P(k) over every outcome with P > 0.
    An outcome with P = 0 is skipped as a 0/0 limit when its dP^2 is zero too,
    underflow included (a term whose P and dP^2 both underflow is lost with
    them); a non-zero dP^2 there, or a sum that is not finite, raises
    DivergentInformationError.
    """
    p0 = check_probabilities(p)
    dp = np.asarray(dp, dtype=float)
    if dp.ndim != 2 or len(dp) != len(p0) or not np.isfinite(dp).all():
        raise ValueError(f"dp must be a finite ({len(p0)}, P) array, got shape {dp.shape}")
    kept = p0 > 0.0
    for k in np.flatnonzero(~kept & (dp * dp).any(axis=1))[:1]:
        raise DivergentInformationError(
            f"outcome {k}: P = 0 but |dP| = {np.max(np.abs(dp[k])):.3e}; Fisher information diverges at this point"
        )
    f = (dp[kept].T / p0[kept]) @ dp[kept]
    f = 0.5 * (f + f.T)
    if not np.isfinite(f).all():
        raise DivergentInformationError("Fisher information overflows: an outcome's dP^2 / P is too large")
    return f


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
    _check_integer("samples", samples, 1)
    _check_integer("rng_seed", rng_seed, 0, 128)
    box_arr = np.asarray(box, dtype=float)
    if box_arr.shape != (family.n_params, 2):
        raise ValueError(f"box must have shape ({family.n_params}, 2), got {box_arr.shape}")
    if not np.isfinite(box_arr).all():
        raise ValueError(f"box must be finite, got {box_arr.tolist()}")
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    batch = max(1, _CHUNK // family.dim)
    total = np.full((family.n_params, family.n_params), -0.0)  # -0.0 + x == x, signed zeros included
    for start in range(0, samples, batch):
        points = rng.uniform(box_arr[:, 0], box_arr[:, 1], size=(min(batch, samples - start), family.n_params))
        q = qfim_pure(family.evaluate(points), derivatives(family, points))
        total = np.concatenate([total[None], q]).sum(axis=0)
    return total / samples
