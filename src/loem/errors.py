"""Exception types shared across the library.

All numerical-degeneracy conditions derive from :class:`LoemError` so the
CLI can map them onto a single exit code.
"""

__all__ = [
    "LoemError",
    "DerivativeError",
    "CurvatureConsistencyError",
    "DivergentInformationError",
    "DegenerateConfigurationError",
]


class LoemError(Exception):
    """Base class for numerical / configuration failures in this package."""


class DerivativeError(LoemError):
    """A state-family derivative produced non-finite amplitudes."""


class CurvatureConsistencyError(LoemError):
    """The curvature's state is not normalized, or its Jacobian not tangent to the normalization."""


class DivergentInformationError(LoemError):
    """An outcome has vanishing probability but non-vanishing derivative.

    The Fisher information of such an outcome diverges; it is flagged rather
    than silently accumulated.
    """


class DegenerateConfigurationError(LoemError):
    """A campaign has too few usable estimates: too many failed because ports 3
    and 4 expect few counts per trial, M sin^2(N theta)/2 (theta near a zero of
    sin(N theta), or few shots), or fewer than two are left for statistics."""
