"""Independent second routes that the tests compare the library against.

Nothing in ``loem`` calls these; each is the reference of one library path:

- ``sample_counts``: one generator and one draw per trial, the per-trial
  reference of ``campaign_counts``.
- ``mle_grid``: a grid-plus-golden-section likelihood maximizer, the oracle
  of the closed-form ``mle_closed_form_batch``.
- ``sld_pure``: the dense d x d SLD matrix, the oracle of the value
  ``uhlmann_curvature`` takes from the scalars n, c_i and G_ij (its one
  route; its own check covers only the normalization and tangency).
- ``central_difference``, ``numeric_jacobian`` and ``numeric_family``: a
  derivative, a Jacobian and a family taken by central differences with step
  STEP, the oracle of the exact Jacobians.
- ``phase_shifted_family``: a family times a smooth global phase, to test
  gauge invariance through central differences.
- ``left_fold_state`` and ``left_fold_jacobian``: the product state and its
  product-rule Jacobian folded from the first factor, the reference of
  ``loem_family``, which folds from the last.  Both orders multiply and add
  the same numbers when K <= 2; from K = 3 on they differ by roundoff.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from loem import NOISE_MODELS, STATUS_BOUNDARY, STATUS_FAILED, STATUS_OK, StateFamily, check_probabilities
from loem.quantum import UnitaryFamily

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
#: Central-difference step. Balances O(h^2) truncation against floating-point
#: cancellation at double precision.
STEP = 1e-5


def central_difference(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, i: int) -> np.ndarray:
    """Central-difference derivative of f along parameter i at points x (..., P)."""
    e = np.zeros_like(x)
    e[..., i] = STEP
    return (f(x + e) - f(x - e)) / (2 * STEP)


def numeric_jacobian(
    evaluate: Callable[[np.ndarray], np.ndarray], n_params: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Jacobian x (..., P) -> (..., dim, P) of evaluate by central differences, one column per parameter."""

    def jacobian(x: np.ndarray) -> np.ndarray:
        return np.stack([central_difference(evaluate, x, i) for i in range(n_params)], axis=-1)

    return jacobian


def numeric_family(family: StateFamily) -> StateFamily:
    """The family with its Jacobian taken by central differences of its evaluate."""
    return dataclasses.replace(family, jacobian=numeric_jacobian(family.evaluate, family.n_params))


def sample_counts(
    probs: np.ndarray, shots: int, noise_model: str, rng: np.random.Generator
) -> np.ndarray:
    """Draw per-port counts for one trial.

    multinomial: counts sum to exactly ``shots``.  poisson: each port is an
    independent Poisson with mean shots * p_k, so the total fluctuates.
    """
    probs = check_probabilities(probs)
    probs = probs / probs.sum()
    if noise_model == "multinomial":
        return rng.multinomial(shots, probs)
    if noise_model == "poisson":
        return rng.poisson(shots * probs)
    raise ValueError(f"noise_model must be one of {NOISE_MODELS}")


def _loglik_terms(count: float, prob: np.ndarray) -> np.ndarray:
    """count * log(prob) with the 0 * log 0 := 0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = count * np.log(prob)
    if count == 0:
        return np.zeros_like(np.asarray(prob, dtype=float))
    return vals


def _golden_max(f: Callable[[float], float], lo: float, hi: float, iterations: int) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def mle_grid(counts: np.ndarray, n_iter: int = 1, resolution: int = 512) -> tuple[float, float, int]:
    """Independent likelihood maximizer over a grid on [0, pi/(2N)]^2.

    Takes the arg-max of the log-likelihood on a resolution x resolution
    grid (ties broken toward smaller (theta, phi) lexicographically) and
    refines each coordinate with 40 golden-section iterations within one
    grid cell.  Returns (theta_hat, phi_hat, status) for one row of four
    counts, with a STATUS_* code as in mle_closed_form_batch, whose oracle
    it is.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (4,) or np.any(counts < 0) or not np.all(np.isfinite(counts)) or counts.sum() <= 0:
        raise ValueError("expected four non-negative finite counts with a positive total")
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    n1, n2, n3, n4 = counts
    n34 = n3 + n4
    limit = np.pi / (2 * n_iter)
    thetas = np.linspace(0.0, limit, resolution)
    phis = np.linspace(0.0, limit, resolution)

    def theta_part(theta: np.ndarray) -> np.ndarray:
        a = n_iter * np.asarray(theta, dtype=float)
        return (
            _loglik_terms(n1, np.cos(0.5 * a) ** 4)
            + _loglik_terms(n2, np.sin(0.5 * a) ** 4)
            + _loglik_terms(n34, 0.5 * np.sin(a) ** 2)
        )

    def phi_part(phi: np.ndarray) -> np.ndarray:
        b = n_iter * np.asarray(phi, dtype=float)
        return _loglik_terms(n3, np.sin(b) ** 2) + _loglik_terms(n4, np.cos(b) ** 2)

    grid = theta_part(thetas)[:, None] + phi_part(phis)[None, :]
    flat_index = int(np.argmax(grid))  # first maximum in row-major order
    i, j = divmod(flat_index, resolution)
    cell = limit / (resolution - 1)

    theta_hat = _golden_max(
        lambda t: float(theta_part(t)), max(0.0, thetas[i] - cell), min(limit, thetas[i] + cell), 40
    )
    phi_hat = _golden_max(
        lambda p: float(phi_part(p)), max(0.0, phis[j] - cell), min(limit, phis[j] + cell), 40
    )

    # Status conventions mirror the closed form: they are properties of the
    # count pattern, not of the maximizer used.  s_hat > 1/2 is exact for
    # integer counts with a total below 2**52.
    s_hat = (2.0 * n2 + n34) / (2.0 * counts.sum())
    if n34 == 0:
        return float(theta_hat), float("nan"), STATUS_FAILED
    status = STATUS_BOUNDARY if (n3 == 0 or n4 == 0 or s_hat > 0.5) else STATUS_OK
    return float(theta_hat), float(phi_hat), status


def sld_pure(state: np.ndarray, deriv_column: np.ndarray) -> np.ndarray:
    """Pure-state SLD operator L = 2(|d psi><psi| + |psi><d psi|)."""
    state = np.asarray(state, dtype=complex)
    deriv = np.asarray(deriv_column, dtype=complex)
    if deriv.shape != state.shape:
        raise ValueError(f"derivative shape {deriv.shape} does not match state shape {state.shape}")
    return 2.0 * (np.outer(deriv, state.conj()) + np.outer(state, deriv.conj()))


def phase_shifted_family(family: StateFamily, alpha: Callable[[np.ndarray], np.ndarray]) -> StateFamily:
    """Multiply a family by the smooth global phase e^{i alpha(x)}.

    ``alpha`` maps points (..., P) to phases (...).  Used to exercise gauge
    invariance; derivatives of the result are taken by central differences.
    """

    def evaluate(x: np.ndarray) -> np.ndarray:
        return np.exp(1j * alpha(x))[..., None] * family.evaluate(x)

    return StateFamily(family.dim, family.n_params, evaluate, numeric_jacobian(evaluate, family.n_params))


def _left_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = a[..., :, None] * b[..., None, :]
    return out.reshape(out.shape[:-2] + (-1,))


def left_fold_state(unitary_family: UnitaryFamily, probes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(..((U p_1 (x) U p_2) (x) U p_3)..) at points x (..., P)."""
    u, _ = unitary_family(np.asarray(x, dtype=float))
    state, *rest = [u @ probe for probe in np.asarray(probes, dtype=complex)]
    for a in rest:
        state = _left_kron(state, a)
    return state


def left_fold_jacobian(unitary_family: UnitaryFamily, probes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d(s (x) a) = ds (x) a + s (x) da, folded from the first factor; (..., dim, P)."""
    u, du = unitary_family(np.asarray(x, dtype=float))
    (state, jac), *rest = [(u @ probe, du @ probe) for probe in np.asarray(probes, dtype=complex)]
    for a, da in rest:
        jac = _left_kron(jac, a[..., None, :]) + _left_kron(state[..., None, :], da)
        state = _left_kron(state, a)
    return jac.swapaxes(-1, -2)
