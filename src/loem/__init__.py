"""Multiparameter qubit estimation with classically correlated probes.

The library builds probe states in which the same parameter-encoding unitary
acts on a complete set of mutually orthogonal inputs, computes their quantum
and classical Fisher information (including the mean Uhlmann curvature
diagnostic for measurement compatibility), simulates four-port photon
counting, and recovers the angles by maximum likelihood in repeated Monte
Carlo campaigns that can be checked against the Cramér-Rao bound and
Heisenberg scaling.
"""

from . import errors, estimation, information, probes, quantum
from .errors import *
from .estimation import *
from .information import *
from .probes import *
from .quantum import *

__version__ = "0.1.0"

# Each public name is listed once, in the __all__ of the module defining it.
__all__ = [
    *errors.__all__,
    *estimation.__all__,
    *information.__all__,
    *probes.__all__,
    *quantum.__all__,
]
