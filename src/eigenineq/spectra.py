"""Problem kinds, ordered eigenvalue lists with provenance, and one domain's spectra."""

import enum
import math
import numbers
from dataclasses import dataclass


class ProblemKind(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    CLAMPED = "clamped"
    BUCKLING = "buckling"


class Provenance(enum.Enum):
    CLOSED_FORM = "closed_form"
    DISCRETE = "discrete"
    DISCRETE_EXTRAPOLATED = "discrete_extrapolated"
    RITZ = "ritz"


def require_dimension(n):
    """Raise ValueError unless n is an integer >= 2: a numpy integer will do, a float (even 3.0) will not."""
    if not isinstance(n, numbers.Integral) or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")


@dataclass(frozen=True)
class Spectrum:
    """Ordered finite eigenvalue list (multiplicity by repetition).

    ``allowance`` is the relative discretization budget of the values
    (zero for closed forms, 3x the observed Richardson residual for
    extrapolated spectra, the largest relative change from degree p - 4
    to p for Ritz spectra); ``mesh_h`` records the mesh width of discrete
    spectra so extrapolation can verify the exact ratio-2 precondition.
    """

    kind: ProblemKind
    values: tuple[float, ...]
    provenance: Provenance
    mesh_h: float | None = None
    allowance: float = 0.0

    def __post_init__(self):
        if not self.values:
            raise ValueError("spectrum must contain at least one eigenvalue")
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite eigenvalue in {vals}")
        for a, b in zip(vals, vals[1:]):
            if b < a - 1e-12 * max(1.0, abs(a)):
                raise ValueError(f"eigenvalues not sorted: {a} > {b}")
        if self.kind is ProblemKind.NEUMANN:
            scale = vals[1] if len(vals) > 1 else 1.0
            if abs(vals[0]) > 1e-8 * max(scale, 1.0):
                raise ValueError(f"Neumann spectrum must start at 0, got {vals[0]}")
            if any(v <= 0.0 for v in vals[1:]):
                raise ValueError("nonzero Neumann eigenvalues must be positive")
        else:
            if any(v <= 0.0 for v in vals):
                raise ValueError(f"{self.kind.value} eigenvalues must be positive")
        if self.kind is ProblemKind.DIRICHLET and len(vals) > 1 and not vals[0] < vals[1]:
            raise ValueError("first Dirichlet eigenvalue must be simple")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class DomainSpectra:
    """One domain Omega in R^n as the catalog reads it: its label, n, volume |Omega| and spectra."""

    label: str
    dimension: int
    area: float
    dirichlet: Spectrum | None = None
    neumann: Spectrum | None = None
    clamped: Spectrum | None = None
    buckling: Spectrum | None = None

    def __post_init__(self):
        require_dimension(self.dimension)
