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

import math
from dataclasses import dataclass

from . import specfun
from .spectra import ProblemKind, Provenance, Spectrum
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
        if self.dimension < 2 or self.dimension != int(self.dimension):
            raise ValueError(f"dimension must be an integer >= 2, got {self.dimension}")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def volume(self) -> float:
        return unit_ball_volume(self.dimension) * self.radius**self.dimension

    @property
    def label(self) -> str:
        return f"ball(n={self.dimension}, R={self.radius:g})"


def dirichlet_ball(spec: BallSpec, count: int) -> Spectrum:
    """First `count` fixed-membrane eigenvalues (j_{n/2-1+l,k} / R)^2.

    Angular families are merged with the degree-l harmonic multiplicity up
    to a cutoff grown until it provably covers `count` values.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    n, radius = spec.dimension, spec.radius
    nu0 = n / 2.0 - 1.0
    zcut = specfun.bessel_zero(nu0, 1).value + 2.0
    while True:
        items = []
        total = 0
        ell = 0
        while nu0 + ell < zcut:  # j_{nu,1} > nu, so higher degrees cannot contribute
            nu = nu0 + ell
            zs = specfun.bessel_zeros_below(nu, zcut)
            if not zs:
                break
            mult = harmonic_multiplicity(n, ell)
            items.extend((z, mult) for z in zs)
            total += mult * len(zs)
            ell += 1
        if total >= count:
            break
        zcut *= 1.4
    items.sort(key=lambda t: t[0])
    values = []
    for z, mult in items:
        values.extend([(z / radius) ** 2] * mult)
        if len(values) >= count:
            break
    return Spectrum(ProblemKind.DIRICHLET, n, tuple(values[:count]), spec.label, Provenance.CLOSED_FORM)


def neumann_ball_mu1(spec: BallSpec) -> float:
    """First nonzero free-membrane eigenvalue (p / R)^2, p the l=1 radial root."""
    p = specfun.bessel_j_deriv_zero(spec.dimension / 2.0, 1)
    return (p / spec.radius) ** 2


def clamped_radial_root(n: int, ell: int, k: int = 1) -> float:
    """k-th root of the clamped-ball secular equation for angular degree ell.

    Roots of J_nu(x) I_{nu+1}(x) + I_nu(x) J_{nu+1}(x) = 0 with
    nu = n/2 - 1 + ell, evaluated with exponentially scaled I to keep the
    scan overflow-free (positive rescaling preserves the roots).
    """
    nu = n / 2.0 - 1.0 + ell

    def f(x):
        jv, jv1 = specfun.bessel_j_pair(nu, x)
        iv, iv1 = specfun.bessel_i_scaled_pair(nu, x)
        return jv * iv1 + iv * jv1

    return scan_zeros(f, k, 0.25, 0.5, what=f"clamped radial root (nu={nu})")[k - 1]


def clamped_ball(spec: BallSpec, count: int) -> Spectrum:
    """Gamma_1 (and Gamma_2) of the clamped plate on a ball, (root / R)^4.

    Gamma_1 is the l=0 radial mode, Gamma_2 the l=1 mode; the mode order is
    validated against the grid solver for n=2 in the test suite.
    """
    if count not in (1, 2):
        raise ValueError(f"count must be 1 or 2, got {count}")
    n, radius = spec.dimension, spec.radius
    values = [(clamped_radial_root(n, ell) / radius) ** 4 for ell in range(count)]
    return Spectrum(ProblemKind.CLAMPED, n, tuple(values), spec.label, Provenance.CLOSED_FORM)


def buckling_ball(spec: BallSpec, count: int) -> Spectrum:
    """Lambda_1 (and Lambda_2) of the buckling problem, (j_{n/2+l,1} / R)^2."""
    if count not in (1, 2):
        raise ValueError(f"count must be 1 or 2, got {count}")
    n, radius = spec.dimension, spec.radius
    values = [(specfun.bessel_zero(n / 2.0 + ell, 1).value / radius) ** 2 for ell in range(count)]
    return Spectrum(ProblemKind.BUCKLING, n, tuple(values), spec.label, Provenance.CLOSED_FORM)


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
    cut = pi2 * (1.0 / a**2 + 1.0 / b**2) * (1.0 + count)
    while True:
        pmax = int(math.floor(a * math.sqrt(cut) / math.pi))
        qmax = int(math.floor(b * math.sqrt(cut) / math.pi))
        vals = [
            pi2 * (p * p / (a * a) + q * q / (b * b))
            for p in range(low, pmax + 1)
            for q in range(low, qmax + 1)
            if pi2 * (p * p / (a * a) + q * q / (b * b)) <= cut
        ]
        if len(vals) >= count:
            vals.sort()
            return Spectrum(kind, 2, tuple(vals[:count]), f"rectangle({a:g}x{b:g})", Provenance.CLOSED_FORM)
        cut *= 1.6
