"""Finite-difference eigensolver for rasterized planar domains."""

from .domain import (
    Annulus,
    Disk,
    Ellipse,
    GridDomain,
    LShape,
    Polygon,
    RasterizeError,
    Rectangle,
    Shape,
    rasterize,
)
from .operators import DiscreteOperator, assemble
from .solve import (
    SolverError,
    extrapolate,
    poisson_solve,
    smallest_eigs,
    solve_shape,
)

__all__ = [
    "Annulus",
    "Disk",
    "DiscreteOperator",
    "Ellipse",
    "GridDomain",
    "LShape",
    "Polygon",
    "RasterizeError",
    "Rectangle",
    "Shape",
    "SolverError",
    "assemble",
    "extrapolate",
    "poisson_solve",
    "rasterize",
    "smallest_eigs",
    "solve_shape",
]
