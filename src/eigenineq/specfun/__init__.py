"""Zeros of Bessel functions of the first kind.

Zeros come from the package's one root finder, the lockstep scan plus
ITP refinement to float resolution of ``_zeros.scan_zeros``, which,
unlike ``scipy.special.jn_zeros``, handles the half-integer orders of odd
dimensions. ``bessel_zeros`` takes an ndarray of orders and scans them
all at once. Orders are checked once, by `_check_orders`, where they
enter; the scan callbacks here and in the radial solvers then call
``scipy.special`` directly. All functions are pure and safe to call
concurrently.
"""

import math

import numpy as np
from scipy import special

from ._zeros import ConvergenceError, scan_zeros

__all__ = [
    "ConvergenceError",
    "bessel_j_deriv_zero",
    "bessel_zeros",
]


def _check_orders(orders):
    """Raise ValueError unless every element of the 1-d float array `orders` is finite and >= 0."""
    bad = orders[~(np.isfinite(orders) & (orders >= 0.0))]
    if bad.size:
        raise ValueError(f"order must be finite and nonnegative, got {bad[0]}")


def bessel_zeros(v, kmax=math.inf, bound=math.inf):
    """Positive zeros of J_v, strictly increasing: the first kmax, or all up to `bound`.

    Whichever limit the scan meets first ends it, so at least one must be
    finite. Every zero re-evaluates to |J_v(z)| < 1e-10 max(1, |J_v'(z)|),
    or ConvergenceError is raised. A zero found under either limit has
    the same floating-point value. An ndarray of orders is scanned in one
    batch and gives one list per order, each equal to that order's call.
    """
    orders = np.ravel(v).astype(float)
    _check_orders(orders)
    if not kmax >= 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if not bound >= 0.0 or kmax == bound == math.inf:
        raise ValueError(f"bound must be nonnegative, and finite when kmax is not; got {bound}")
    start = np.maximum(0.5, np.sqrt(orders * (orders + 2.0)) - 0.5)
    zeros = scan_zeros(lambda x, r: special.jv(orders[r], x), kmax, start, 0.9,
                       lambda r: f"zero of J_{orders[r]}", bound)
    nus = np.repeat(orders, [len(zs) for zs in zeros])
    z = np.array([x for zs in zeros for x in zs])
    resid = np.abs(special.jv(nus, z))
    limit = 1e-10 * np.maximum(1.0, np.abs(special.jvp(nus, z)))
    off = np.flatnonzero(resid >= limit)
    if off.size:
        i = off[0]
        raise ConvergenceError(f"zero {z[i]} of J_{nus[i]}: residual {resid[i]:.3e} exceeds {limit[i]:.3e}")
    return zeros if isinstance(v, np.ndarray) else zeros[0]


def bessel_j_deriv_zero(nu: float, k: int) -> float:
    """k-th positive root of d/dr [r^(1-n/2) J_{n/2}(r)] = 0, with nu = n/2 >= 1.

    These are the radial free-membrane (zero normal derivative) conditions
    on a ball, the roots of J_{nu-1}(p) - ((2 nu - 1)/p) J_nu(p); for
    n = 2 they reduce to the zeros of J_1'.
    """
    if not math.isfinite(nu) or nu < 1.0:
        raise ValueError(f"nu must be >= 1, got {nu}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    c = 2.0 * nu - 1.0

    def f(p, _):
        return special.jv(nu - 1.0, p) - (c / p) * special.jv(nu, p)

    return scan_zeros(f, k, 0.2, 0.5, lambda _: f"radial Neumann root (nu={nu})")[0][k - 1]
