"""Preferential-attachment hypergraphs: generation, projection, and
degree-distribution analysis.  The package exports each module's __all__."""

from . import analysis, core, generator, io
from .analysis import *
from .core import *
from .generator import *
from .io import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *generator.__all__, *analysis.__all__, *io.__all__]
