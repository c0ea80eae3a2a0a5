"""Which solver gives each (shape, problem) pair its spectrum.

`solve_shape` has `grid.solve.solve_shape`'s signature and returns the
same (bundle, per-level spectra, errors) triple. The clamped and buckling
plates of a `Rectangle` or an `Ellipse` come from the Rayleigh–Ritz
solver (`ritz`), with an empty per-level list; every other pair comes
from the finite differences of `grid`. That includes the disk's plates,
which `perfbench` compares, as extrapolated grid rows, with the closed
forms of `balls`.
"""

import dataclasses
from collections.abc import Mapping

from . import ritz
from .grid.domain import Ellipse, Rectangle, Shape
from .grid.solve import solve_shape as solve_on_grid
from .spectra import ProblemKind

_PLATES = (ProblemKind.CLAMPED, ProblemKind.BUCKLING)


def solve_shape(label: str, shape: Shape, problems: Mapping[ProblemKind, int], h: float, levels: int):
    """One planar domain's spectra, each problem from its source; see `grid.solve.solve_shape`.

    The mesh arguments `h` and `levels` apply to the finite-difference
    problems only. A Ritz failure lands in `errors` as a grid failure
    does, and the other problems still solve.
    """
    by_ritz = [kind for kind in problems if kind in _PLATES] if isinstance(shape, (Rectangle, Ellipse)) else []
    bundle, per_level, errors = solve_on_grid(
        label, shape, {kind: m for kind, m in problems.items() if kind not in by_ritz}, h, levels)
    spectra = {}
    for kind in by_ritz:
        try:
            spectra[kind.value] = ritz.spectrum(shape, kind, problems[kind])
            per_level[kind] = []
        except Exception as exc:
            errors[kind] = exc
    return dataclasses.replace(bundle, **spectra), per_level, errors
