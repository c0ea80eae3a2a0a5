"""Shared fixtures: the verification corpus of planar domains, solved once."""

import dataclasses
import math

import pytest

from eigenineq.grid import Disk, Ellipse, LShape, Rectangle, solve_shape
from eigenineq.spectra import ProblemKind

M_MAX = 8
K_MAX = 10

CORPUS = {
    "unit_square": Rectangle(1.0, 1.0),
    "rect_2to1": Rectangle(math.sqrt(2.0), math.sqrt(2.0) / 2.0),
    "rect_sqrt8_sqrt3": Rectangle(math.sqrt(8.0), math.sqrt(3.0)),
    "disk": Disk(1.0),
    "ellipse_2to1": Ellipse(1.0, 0.5),
    "l_shape": LShape(0.5, 0.5),
}

_MEMBRANE_MESH = (1.0 / 64.0, 2)
_PLATE_MESH = (1.0 / 48.0, 2)


def _solve(label, shape, mesh, problems):
    bundle, _, errors = solve_shape(label, shape, problems, *mesh)
    for error in errors.values():
        raise error
    return bundle


@pytest.fixture(scope="session")
def corpus_bundles():
    """Extrapolated spectra of all four problems on the whole corpus."""
    bundles = {}
    for label, shape in CORPUS.items():
        membrane = _solve(label, shape, _MEMBRANE_MESH,
                          {ProblemKind.DIRICHLET: max(M_MAX, K_MAX) + 1, ProblemKind.NEUMANN: K_MAX + 2})
        plate = _solve(label, shape, _PLATE_MESH, {ProblemKind.CLAMPED: M_MAX + 1, ProblemKind.BUCKLING: 3})
        bundles[label] = dataclasses.replace(membrane, clamped=plate.clamped, buckling=plate.buckling)
    return bundles
