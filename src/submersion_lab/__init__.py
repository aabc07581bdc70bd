"""Numerical differential geometry of embedded manifolds, Riemannian
submersions, and pull-back bundles, with a curvature-obstruction test bench."""

__version__ = "0.1.0"

from .core import (EmbeddedManifold, GeometryError, PointOffManifoldError,
                   DegeneratePlaneError)
from .graph import SmoothMapBetweenManifolds
from .submersion import RiemannianSubmersionBundle
from .pullback import PullbackBundle

__all__ = [
    "EmbeddedManifold", "GeometryError",
    "PointOffManifoldError", "DegeneratePlaneError",
    "SmoothMapBetweenManifolds", "RiemannianSubmersionBundle",
    "PullbackBundle", "__version__",
]
