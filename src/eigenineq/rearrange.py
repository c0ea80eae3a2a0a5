"""Rearrangement calculus on grid functions.

The grid measure is counting measure times h^2 and level-set ties break
by stable value order, so the decreasing rearrangement is exactly the
sorted value vector and equimeasurability holds exactly on the node
measure. Profiles live on a radial grid of the same resolution h, with
the symmetrized-domain radius derived from the exact area (not the node
count).
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid.domain import GridDomain
from .grid.operators import assemble
from .grid.solve import poisson_solve
from .spectra import ProblemKind

# domination slack per unit h for the symmetrized-Poisson comparison;
# calibrated on f = 1 over the six test-corpus shapes, an annulus, a thin
# L, a triangle, a small disk and a thin ellipse at h = 1/8 .. 1/256 (max
# observed violation 0.150 h: the disk at h = 1/12) and frozen with a 3x
# margin
TALENTI_SLACK_PER_H = 0.45

_PRODUCT_TOL = 1e-9


class HypothesisError(ValueError):
    """A comparison hypothesis (sign condition) failed; reported, not hidden."""


@dataclass(frozen=True)
class GridFunction:
    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.domain.node_count,):
            raise ValueError(f"values shape {vals.shape} != node count {self.domain.node_count}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    def integral(self):
        return float(self.values.sum()) * self.domain.h**2


@dataclass(frozen=True)
class VolumeProfile:
    """Step function of the volume variable s on [0, node_count * h^2]."""

    values: np.ndarray  # value on cell [k h^2, (k+1) h^2)
    cell: float  # h^2

    @property
    def total_measure(self):
        return len(self.values) * self.cell

    def __call__(self, s):
        idx = np.clip((np.asarray(s, dtype=float) / self.cell).astype(int), 0, len(self.values) - 1)
        return self.values[idx]


@dataclass(frozen=True)
class RadialProfile:
    radii: np.ndarray
    values: np.ndarray
    R: float

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.shape != v.shape or r.ndim != 1:
            raise ValueError("radii and values must be matching 1-d arrays")
        if np.any(np.diff(r) <= 0.0):
            raise ValueError("radii must be strictly increasing")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)


def _levels(f: GridFunction, signed: bool) -> np.ndarray:
    return f.values if signed else np.abs(f.values)


def distribution(f: GridFunction, t: float, signed: bool = False) -> float:
    """Measure of the super-level set {f > t} (node measure, times h^2)."""
    return float(np.count_nonzero(_levels(f, signed) > t)) * f.domain.h**2


def decreasing_rearrangement(f: GridFunction, signed: bool = False) -> VolumeProfile:
    """The sorted-descending value vector as a step function of volume."""
    vals = np.sort(_levels(f, signed))[::-1].copy()
    return VolumeProfile(vals, f.domain.h**2)


def _radial_grid(domain: GridDomain) -> tuple[np.ndarray, float]:
    radius = math.sqrt(domain.area_exact / math.pi)
    inner = np.arange(0.0, radius, domain.h)
    return np.concatenate([inner, [radius]]), radius


def spherical_rearrangement(f: GridFunction, signed: bool = False, increasing: bool = False) -> RadialProfile:
    """Radial equimeasurable profile on the same-area disk.

    The decreasing variant evaluates the sorted vector at the volume
    pi r^2; the increasing one (lower-star) is its reversal.
    """
    prof = decreasing_rearrangement(f, signed)
    radii, radius = _radial_grid(f.domain)
    idx = np.clip((math.pi * radii**2 / prof.cell).astype(int), 0, len(prof.values) - 1)
    values = prof.values[len(prof.values) - 1 - idx] if increasing else prof.values[idx]
    return RadialProfile(radii, values, radius)


@dataclass(frozen=True)
class ProductBoundReport:
    inner: float  # integral of f g on the domain
    upper: float  # integral of the similarly ordered rearrangements
    lower: float  # integral of the oppositely ordered rearrangements
    holds: bool
    tolerance: float


def product_bound_check(f: GridFunction, g: GridFunction) -> ProductBoundReport:
    """lower <= integral(f g) <= upper with signed rearrangements.

    The rearranged integrals are evaluated in the volume variable, where
    both step functions share the same cells, so the bounds are the
    classical sorted/anti-sorted dot products.
    """
    if f.domain is not g.domain and (
        f.domain.label != g.domain.label or f.domain.h != g.domain.h
    ):
        raise ValueError("product bound requires functions on the same domain")
    h2 = f.domain.h**2
    inner = float(f.values @ g.values) * h2
    fs = np.sort(f.values)[::-1]
    gs = np.sort(g.values)[::-1]
    upper = float(fs @ gs) * h2
    lower = float(fs @ gs[::-1]) * h2
    scale = max(abs(inner), abs(upper), abs(lower), 1.0)
    tol = _PRODUCT_TOL * scale
    holds = (inner <= upper + tol) and (inner >= lower - tol)
    return ProductBoundReport(inner, upper, lower, holds, tol)


@dataclass(frozen=True)
class TalentiReport:
    u: GridFunction
    u_star: RadialProfile
    v: RadialProfile
    dominated: bool
    max_violation: float  # max positive part of u_star - v
    tolerance: float


def symmetrized_poisson_profile(f: GridFunction) -> RadialProfile:
    """Solution of the symmetrized Poisson problem by explicit quadrature.

    v(r) = int_r^R t^(1-n) int_0^t tau^(n-1) fstar(tau) dtau dt with n = 2
    and fstar the signed spherical rearrangement, on the profile grid.
    """
    fstar = spherical_rearrangement(f, signed=True)
    r = fstar.radii
    integrand_inner = r * fstar.values
    inner = np.concatenate([[0.0], np.cumsum(0.5 * (integrand_inner[1:] + integrand_inner[:-1]) * np.diff(r))])
    w = np.zeros_like(r)
    w[1:] = inner[1:] / r[1:]
    outer = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(r))])
    v = outer[-1] - outer
    return RadialProfile(r, v, fstar.R)


def talenti_compare(f: GridFunction) -> TalentiReport:
    """Domination check u_star <= v + C h for the zero-boundary Poisson solution.

    Raises HypothesisError when the hypotheses (integral of f nonnegative,
    solution u not significantly negative) fail.
    """
    if f.integral() < -1e-12 * max(1.0, float(np.abs(f.values).max())) * f.domain.area_exact:
        raise HypothesisError(f"integral of f is negative ({f.integral():.3e})")
    u_vals = poisson_solve(f.domain, f.values)
    u = GridFunction(f.domain, u_vals)
    u_floor = -1e-3 * float(np.abs(u_vals).max())
    if float(u_vals.min()) < u_floor:
        raise HypothesisError(
            f"Poisson solution significantly negative (min {u_vals.min():.3e}); "
            "the domination hypothesis u >= 0 fails"
        )
    u_star = spherical_rearrangement(u, signed=True)
    v = symmetrized_poisson_profile(f)
    tol = TALENTI_SLACK_PER_H * f.domain.h
    diff = u_star.values - v.values
    max_violation = float(max(0.0, diff.max()))
    return TalentiReport(u, u_star, v, bool(max_violation <= tol), max_violation, tol)


def dirichlet_energy(f: GridFunction) -> float:
    """Discrete H1_0 energy u^T A u h^2, A the Dirichlet matrix (u vanishing where the boundary cuts each link)."""
    op = assemble(f.domain, ProblemKind.DIRICHLET)
    return float(f.values @ (op.matrix @ f.values)) * f.domain.h**2


def radial_dirichlet_energy(profile: RadialProfile) -> float:
    """Discrete energy of a radial function on the symmetrized disk."""
    r = profile.radii
    v = profile.values
    dr = np.diff(r)
    rmid = 0.5 * (r[1:] + r[:-1])
    return float(np.sum((np.diff(v) / dr) ** 2 * 2.0 * math.pi * rmid * dr))
