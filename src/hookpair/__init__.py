"""Exact arm/leg statistics on skew diagram regions, with certified
statistic-preserving bijections and exhaustive identity checks."""

from . import bijections, diagrams, dyck, errors, projective, render, sweep
from .bijections import *
from .diagrams import *
from .dyck import *
from .errors import *
from .projective import *
from .render import *
from .sweep import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *diagrams.__all__,
    *dyck.__all__,
    *bijections.__all__,
    *projective.__all__,
    *render.__all__,
    *sweep.__all__,
    *errors.__all__,
]
