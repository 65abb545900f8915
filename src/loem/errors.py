"""Exception types shared across the library.

All numerical-degeneracy conditions derive from :class:`LoemError` so the
CLI can map them onto a single exit code.
"""

from __future__ import annotations

__all__ = [
    "LoemError",
    "DerivativeError",
    "CurvatureConsistencyError",
    "DivergentInformationError",
    "SingularBoundError",
    "DegenerateConfigurationError",
]


class LoemError(Exception):
    """Base class for numerical / configuration failures in this package."""


class DerivativeError(LoemError):
    """A state-family derivative produced non-finite amplitudes."""


class CurvatureConsistencyError(LoemError):
    """The two independent curvature computations disagree beyond tolerance."""


class DivergentInformationError(LoemError):
    """An outcome has vanishing probability but non-vanishing derivative.

    The Fisher information of such an outcome diverges; it is flagged rather
    than silently accumulated.
    """


class SingularBoundError(LoemError):
    """An information matrix cannot be inverted into a covariance bound.

    Carries the index (and, when supplied, the name) of the parameter that
    is unidentifiable at this point.
    """

    def __init__(self, message: str, parameter_index: int, parameter_name: str | None = None):
        super().__init__(message)
        self.parameter_index = parameter_index
        self.parameter_name = parameter_name


class DegenerateConfigurationError(LoemError):
    """A campaign has too few usable estimates: too many failed because the
    true parameters sit near an unidentifiable configuration (sin(N*theta)
    near zero), or fewer than two are left for its statistics."""
