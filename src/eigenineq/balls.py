"""Closed-form spectra on n-balls and separable spectra on rectangles.

Ball eigenvalues come from Bessel zeros and secular equations for the
radial modes; these serve as exact oracles for the grid solver and as
inputs to the inequality catalog.

Radial ansatz behind the fourth-order secular equations: a regular
solution of Delta^2 u = k^4 u with angular degree l is
r^(1-n/2) [A J_nu(k r) + B I_nu(k r)], nu = n/2 - 1 + l, and
d/dr [r^-m J_m(k r)] = -k r^-m J_{m+1}(k r) (with +I_{m+1} for I), so the
clamped conditions u(R) = u'(R) = 0 reduce to
J_nu(kR) I_{nu+1}(kR) + I_nu(kR) J_{nu+1}(kR) = 0.
For buckling, (Delta + k^2) Delta u = 0 pairs the oscillatory solution
with a degree-l harmonic, and the two boundary conditions reduce to
J_{n/2+l}(kR) = 0.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import specfun
from .spectra import ProblemKind, Provenance, Spectrum, require_dimension
from .specfun._zeros import scan_zeros


def unit_ball_volume(n: int) -> float:
    """C_n = pi^(n/2) / Gamma(n/2 + 1), the volume of the unit n-ball."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def harmonic_multiplicity(n: int, ell: int) -> int:
    """Dimension of the space of degree-ell spherical harmonics in n variables."""
    if ell == 0:
        return 1
    return math.comb(n + ell - 1, n - 1) - math.comb(n + ell - 3, n - 1)


@dataclass(frozen=True)
class BallSpec:
    dimension: int
    radius: float = 1.0

    def __post_init__(self):
        require_dimension(self.dimension)
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.dimension) * self.radius**self.dimension


def _clamped_secular(nu, x):
    """The clamped secular function C = J_nu(x) I_{nu+1}(x) + I_nu(x) J_{nu+1}(x), and its parts.

    Returns C and the tuple (J_nu, I_nu, J_{nu+1}, I_{nu+1}) at x. I is
    exponentially scaled (`ive`), a positive rescaling that keeps the
    roots and never overflows. `nu` and `x` broadcast against each other.
    """
    j, i, j1, i1 = special.jv(nu, x), special.ive(nu, x), special.jv(nu + 1.0, x), special.ive(nu + 1.0, x)
    return j * i1 + i * j1, (j, i, j1, i1)


def _clamped_roots(nu, kmax=math.inf, bound=math.inf):
    """Roots of J_nu(x) I_{nu+1}(x) + I_nu(x) J_{nu+1}(x) = 0: the first kmax, or all up to `bound`.

    An ndarray of orders is scanned in one batch and gives one list per
    order, each equal to that order's call. Each scan starts at
    max(0.5, sqrt(nu (nu + 2)) - 0.5), as `bessel_zeros` does. No root lies
    below it: the clamped plate lies above the hinged one, whose order-nu
    roots are the zeros of J_nu, and j_(nu,1) > sqrt(nu (nu + 2)). Near
    x = 0 the secular function of a large order underflows to 0, which
    the scan would take for a root.
    """
    orders = np.ravel(nu).astype(float)
    specfun._check_orders(orders)
    start = np.maximum(0.5, np.sqrt(orders * (orders + 2.0)) - 0.5)
    roots = scan_zeros(lambda x, r: _clamped_secular(orders[r], x)[0], kmax, start, 0.5,
                       lambda r: f"clamped radial root (nu={orders[r]})", bound)
    return roots if isinstance(nu, np.ndarray) else roots[0]


# problem -> (order of the degree-0 radial family minus n/2, roots(nu, kmax=, bound=)
# of the order-nu family, exponent p of the eigenvalue (root / R)^p)
_RADIAL = {
    ProblemKind.DIRICHLET: (-1.0, specfun.bessel_zeros, 2),
    ProblemKind.BUCKLING: (0.0, specfun.bessel_zeros, 2),
    ProblemKind.CLAMPED: (-1.0, _clamped_roots, 4),
}


@functools.lru_cache(maxsize=None)
def _unit_roots(kind: ProblemKind, n: int, count: int) -> tuple[float, ...]:
    """The `count` smallest radial roots of `kind` on the unit n-ball, with multiplicity.

    Degree l contributes the roots of order nu0 + l, each repeated with the
    degree-l harmonic multiplicity. Families are merged up to a cutoff grown
    until it provably covers `count` values: each family's first root
    exceeds its order, and first roots increase with l. Each cutoff scans
    every degree with nu0 + l below it in one batch.
    """
    offset, roots, _ = _RADIAL[kind]
    nu0 = n / 2.0 + offset
    zcut = roots(nu0, kmax=1)[0] + 2.0
    while True:
        orders = nu0 + np.arange(int(zcut) + 1)  # nu0 >= 0: every l with nu0 + l < zcut, and more
        items = []
        total = 0
        for ell, zs in enumerate(roots(orders[orders < zcut], bound=zcut)):
            if not zs:
                break
            mult = harmonic_multiplicity(n, ell)
            items.extend((z, mult) for z in zs)
            total += mult * len(zs)
        if total >= count:
            break
        zcut *= 1.4
    items.sort(key=lambda t: t[0])
    return tuple(z for z, mult in items for _ in range(mult))[:count]


def _ball(kind: ProblemKind, spec: BallSpec, count: int) -> Spectrum:
    """First `count` eigenvalues (root / R)^p of `kind` on the ball `spec`."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    p = _RADIAL[kind][2]
    values = tuple((z / spec.radius) ** p for z in _unit_roots(kind, spec.dimension, count))
    return Spectrum(kind, values, Provenance.CLOSED_FORM)


def dirichlet_ball(spec: BallSpec, count: int) -> Spectrum:
    """First `count` fixed-membrane eigenvalues (j_{n/2-1+l,k} / R)^2."""
    return _ball(ProblemKind.DIRICHLET, spec, count)


def clamped_ball(spec: BallSpec, count: int) -> Spectrum:
    """First `count` clamped-plate eigenvalues (root / R)^4, roots of the clamped secular equation."""
    return _ball(ProblemKind.CLAMPED, spec, count)


def buckling_ball(spec: BallSpec, count: int) -> Spectrum:
    """First `count` buckling eigenvalues (j_{n/2+l,k} / R)^2."""
    return _ball(ProblemKind.BUCKLING, spec, count)


def neumann_ball_mu1(spec: BallSpec) -> float:
    """First nonzero free-membrane eigenvalue (p / R)^2, p the l=1 radial root."""
    p = specfun.bessel_j_deriv_zero(spec.dimension / 2.0, 1)
    return (p / spec.radius) ** 2


def clamped_radial_root(n: int, ell: int, k: int = 1) -> float:
    """k-th root of the clamped-ball secular equation for angular degree ell (nu = n/2 - 1 + ell)."""
    return _clamped_roots(n / 2.0 - 1.0 + ell, kmax=k)[k - 1]


def rectangle_spectrum(a: float, b: float, kind: ProblemKind, count: int) -> Spectrum:
    """Separable spectrum pi^2 (p^2/a^2 + q^2/b^2) of an a x b rectangle.

    Dirichlet runs over p, q >= 1 and Neumann over p, q >= 0, sorted with
    multiplicity.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"side lengths must be positive, got {a}, {b}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if kind not in (ProblemKind.DIRICHLET, ProblemKind.NEUMANN):
        raise ValueError(f"rectangles support Dirichlet and Neumann only, got {kind}")
    low = 1 if kind is ProblemKind.DIRICHLET else 0
    pi2 = math.pi**2
    # the `count` smallest values all have p, q < low + count: a pair outside
    # that range has `count` strictly smaller ones on its own row or column
    span = range(low, low + count)
    vals = sorted(pi2 * (p * p / (a * a) + q * q / (b * b)) for p in span for q in span)
    return Spectrum(kind, tuple(vals[:count]), Provenance.CLOSED_FORM)
