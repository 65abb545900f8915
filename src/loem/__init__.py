"""Multiparameter qubit estimation with classically correlated probes.

The library builds probe states in which the same parameter-encoding unitary
acts on a complete set of mutually orthogonal inputs, computes their quantum
and classical Fisher information (including the mean Uhlmann curvature
diagnostic for measurement compatibility), simulates four-port photon
counting, and recovers the angles by maximum likelihood in repeated Monte
Carlo campaigns that can be checked against the Cramér-Rao bound and
Heisenberg scaling.
"""

from .errors import (
    CurvatureConsistencyError,
    DegenerateConfigurationError,
    DerivativeError,
    DivergentInformationError,
    LoemError,
    SingularBoundError,
)
from .estimation import (
    NOISE_MODELS,
    STATUS_BOUNDARY,
    STATUS_FAILED,
    STATUS_OK,
    Estimate,
    SweepPoint,
    TrialConfig,
    TrialStatistics,
    campaign_counts,
    error_bars,
    heisenberg_sweep,
    mle_closed_form,
    mle_closed_form_batch,
    mle_grid,
    run_trials,
    sample_counts,
    trial_rng,
)
from .information import (
    average_qfim,
    crb_bound,
    fim,
    qfim_pure,
    sld_pure,
    uhlmann_curvature,
    wcc_holds,
)
from .probes import (
    antiparallel_family,
    antiparallel_qfim_closed,
    antiparallel_state,
    bell_like_basis,
    born_probabilities,
    generator_unitary,
    identical_pair_family,
    loem_family,
    loem_state,
    orthogonal_probes,
    outcome_probabilities,
)
from .quantum import (
    StateFamily,
    check_state,
    check_unitary,
    derivatives,
    phase_shifted_family,
    qubit_family,
    qubit_unitary,
    tensor_product,
)

__version__ = "0.1.0"

__all__ = [
    "CurvatureConsistencyError",
    "DegenerateConfigurationError",
    "DerivativeError",
    "DivergentInformationError",
    "LoemError",
    "SingularBoundError",
    "NOISE_MODELS",
    "STATUS_BOUNDARY",
    "STATUS_FAILED",
    "STATUS_OK",
    "Estimate",
    "SweepPoint",
    "TrialConfig",
    "TrialStatistics",
    "campaign_counts",
    "error_bars",
    "heisenberg_sweep",
    "mle_closed_form",
    "mle_closed_form_batch",
    "mle_grid",
    "run_trials",
    "sample_counts",
    "trial_rng",
    "average_qfim",
    "crb_bound",
    "fim",
    "qfim_pure",
    "sld_pure",
    "uhlmann_curvature",
    "wcc_holds",
    "antiparallel_family",
    "antiparallel_qfim_closed",
    "antiparallel_state",
    "bell_like_basis",
    "born_probabilities",
    "generator_unitary",
    "identical_pair_family",
    "loem_family",
    "loem_state",
    "orthogonal_probes",
    "outcome_probabilities",
    "StateFamily",
    "check_state",
    "check_unitary",
    "derivatives",
    "phase_shifted_family",
    "qubit_family",
    "qubit_unitary",
    "tensor_product",
]
