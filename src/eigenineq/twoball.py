"""Coupled two-ball fourth-order variational problem and derived constants.

A clamped-plate lower bound decomposes the plate over the positive and
negative parts of its first mode and symmetrizes each onto a ball. With
volume normalized so that a^n + b^n = 1, the two radial trial functions
phi on B_a and psi on B_b must satisfy

    Delta^2 phi = mu phi,   Delta^2 psi = mu psi,
    phi(a) = 0 = psi(b),
    a^(n-1) phi'(a) = b^(n-1) psi'(b),
    Delta phi(a) + Delta psi(b) = 0,

and J(a) is the smallest eigenvalue mu. Regular radial solutions are
r^(1-n/2) {J, I}_nu(k r) with nu = n/2 - 1 and k = mu^(1/4), for which
Delta maps to -+ k^2 times the solution and the radial derivative obeys
d/dr [r^-nu Z_nu(k r)] = -+ k r^-nu Z_{nu+1}(k r). The four boundary
conditions therefore close into a 4x4 determinant in the coefficients.

The derivation is pinned by three independent checks (tests): the
endpoint limit equals the clamped-ball eigenvalue, J is symmetric in
t = a^n about 1/2, and the published d_n values are reproduced.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .balls import clamped_radial_root
from .specfun.errors import ConvergenceError

# Reference values of the decoupled-problem constants (not computed here;
# no construction for them is implemented). The n=3 entry appears under a
# repeated n=2 label in the original tabulation.
TALENTI_D_PRIME = {2: 0.9777, 3: 0.7391, 4: 0.6524}

_ENDPOINT_GUARD = 1e-3


@dataclass(frozen=True)
class TwoBallResult:
    n: int
    a: float
    b: float
    eigenvalue: float  # J(a) under the |Omega| = C_n normalization


@dataclass(frozen=True)
class DConstantResult:
    n: int
    d_n: float
    minimizer_t: float
    ball_value: float  # Gamma_1 of the unit ball = J at the endpoints
    curve: tuple[tuple[float, float], ...]  # (t, J(t)/ball_value) samples


def secular_det(n: int, a: float, mu: float) -> float:
    """Determinant whose sign changes bracket the two-ball eigenvalues.

    Columns are the J/I coefficients on B_a then B_b; rows impose
    phi(a)=0, psi(b)=0, the flux match and the vanishing Laplacian sum.
    I-columns carry e^-kappa scaling and every row is sup-normalized;
    both are positive rescalings, so root locations and sign changes are
    preserved even where I_nu would overflow.
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must lie strictly between 0 and 1, got {a}")
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    b = (1.0 - a**n) ** (1.0 / n)
    nu = n / 2.0 - 1.0
    k = mu**0.25
    ka, kb = k * a, k * b
    ja, ja1 = specfun.bessel_j_pair(nu, ka)
    ia, ia1 = specfun.bessel_i_scaled_pair(nu, ka)
    jb, jb1 = specfun.bessel_j_pair(nu, kb)
    ib, ib1 = specfun.bessel_i_scaled_pair(nu, kb)
    # columns are pre-scaled by a^nu (resp. b^nu), so the flux row carries
    # a^(n-1) = a^(n/2) * a^nu
    ah = a ** (n - 1.0)
    bh = b ** (n - 1.0)
    rows = np.array(
        [
            [ja, ia, 0.0, 0.0],
            [0.0, 0.0, jb, ib],
            [-ah * ja1, ah * ia1, bh * jb1, -bh * ib1],
            [-ja, ia, -jb, ib],
        ]
    )
    for i in range(4):
        m = np.max(np.abs(rows[i]))
        if m > 0.0:
            rows[i] /= m
    return float(np.linalg.det(rows))


def ball_eigenvalue(n: int) -> float:
    """Gamma_1 of the unit ball, the common endpoint value J(0) = J(1)."""
    return clamped_radial_root(n, 0) ** 4


def J_of_a(n: int, a: float, _k0: float | None = None) -> TwoBallResult:
    """Smallest eigenvalue of the two-ball problem at first-ball radius a.

    The determinant is scanned in k = mu^(1/4) with step k0/50 (k0 the
    clamped unit-ball root) from well below any eigenvalue, then the first
    sign change is refined by bisection to 1e-9 relative in mu.
    Near-degenerate endpoints (min(a, b) < 1e-3) return the analytic
    endpoint value directly.
    """
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"a must lie in [0, 1], got {a}")
    k0 = _k0 if _k0 is not None else clamped_radial_root(n, 0)
    b = (1.0 - a**n) ** (1.0 / n) if a < 1.0 else 0.0
    if min(a, b) < _ENDPOINT_GUARD:
        return TwoBallResult(n, a, b, k0**4)

    def det_at(k):
        return secular_det(n, a, k**4)

    step = k0 / 50.0
    k_lo = 0.5 * k0
    f_lo = det_at(k_lo)
    trace = [(k_lo, f_lo)]
    k_hi = None
    k = k_lo
    while k < 2.0 * k0:
        k_next = k + step
        f_next = det_at(k_next)
        trace.append((k_next, f_next))
        if f_next == 0.0:
            return TwoBallResult(n, a, b, k_next**4)
        if (f_lo < 0.0) != (f_next < 0.0):
            k_hi = k_next
            break
        k, f_lo = k_next, f_next
    if k_hi is None:
        raise ConvergenceError(
            f"two-ball bracketing failed for n={n}, a={a}: no sign change in scan {trace}"
        )
    lo, hi = k, k_hi
    flo = f_lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = det_at(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= 2.5e-10 * lo:  # 1e-9 relative in mu = k^4
            break
    return TwoBallResult(n, a, b, (0.5 * (lo + hi)) ** 4)


def _t_to_a(t: float, n: int) -> float:
    return t ** (1.0 / n)


def d_constant(n: int, grid_points: int = 65) -> DConstantResult:
    """d_n = min_a J(a) / Gamma_1(B_1), by a uniform t-scan plus golden section.

    t = a^n is the natural variable (J is symmetric about t = 1/2). The
    scan also rejects root-jumping: no adjacent gap may exceed 5x a robust
    local slope scale.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if grid_points < 65:
        raise ValueError(f"grid must have at least 65 points, got {grid_points}")
    k0 = clamped_radial_root(n, 0)
    ball = k0**4
    ts = np.linspace(0.0, 1.0, grid_points)
    js = np.array([J_of_a(n, _t_to_a(t, n), _k0=k0).eigenvalue for t in ts])
    gaps = np.abs(np.diff(js))
    for i, gap in enumerate(gaps):
        neighbors = [gaps[j] for j in (i - 1, i + 1) if 0 <= j < len(gaps)]
        slope_scale = max(max(neighbors), 1e-3 * ball)
        if gap > 5.0 * slope_scale:
            raise ConvergenceError(
                f"J(t) jump between t={ts[i]:.4f} and t={ts[i + 1]:.4f} for n={n}: "
                f"gap {gap:.3e} vs local slope scale {slope_scale:.3e}"
            )
    imin = int(np.argmin(js))
    if imin in (0, grid_points - 1):
        t_min, j_min = float(ts[imin]), float(js[imin])
    else:
        lo = float(ts[imin - 1])
        hi = float(ts[imin + 1])
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        x1 = hi - invphi * (hi - lo)
        x2 = lo + invphi * (hi - lo)
        f1 = J_of_a(n, _t_to_a(x1, n), _k0=k0).eigenvalue
        f2 = J_of_a(n, _t_to_a(x2, n), _k0=k0).eigenvalue
        for _ in range(40):
            if hi - lo < 1e-6:
                break
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - invphi * (hi - lo)
                f1 = J_of_a(n, _t_to_a(x1, n), _k0=k0).eigenvalue
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + invphi * (hi - lo)
                f2 = J_of_a(n, _t_to_a(x2, n), _k0=k0).eigenvalue
        t_min = 0.5 * (lo + hi)
        j_min = J_of_a(n, _t_to_a(t_min, n), _k0=k0).eigenvalue
        if js[0] <= j_min:  # endpoint still wins
            t_min, j_min = float(ts[0]), float(js[0])
    curve = tuple((float(t), float(j / ball)) for t, j in zip(ts, js))
    return DConstantResult(n, j_min / ball, t_min, ball, curve)


def c_constant(n: int) -> float:
    """c_n = 2^(2/n) (j_{n/2-1,1} / j_{n/2,1})^2, the buckling lower-bound constant."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    num = specfun.bessel_zero(n / 2.0 - 1.0, 1).value
    den = specfun.bessel_zero(n / 2.0, 1).value
    return 2.0 ** (2.0 / n) * (num / den) ** 2


def curve_table(n: int, t_grid) -> list[tuple[float, float | None]]:
    """(t, J(t)/Gamma_1(B_1)) samples; failed root solves yield None entries."""
    k0 = clamped_radial_root(n, 0)
    ball = k0**4
    out = []
    for t in t_grid:
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"t must lie in [0, 1], got {t}")
        try:
            out.append((float(t), J_of_a(n, _t_to_a(float(t), n), _k0=k0).eigenvalue / ball))
        except ConvergenceError:
            out.append((float(t), None))
    return out
