"""Bessel functions of the first kind, modified Bessel functions, and zeros.

Values come from ``scipy.special`` (``jv``, ``ive``); this module adds
argument validation, derivatives, and zeros from the package's one root
finder, the lockstep scan plus bisection to float resolution of
``_zeros.scan_zeros``, which, unlike ``scipy.special.jn_zeros``, handles
the half-integer orders of odd dimensions. The two pair functions also
take ndarray orders and arguments, broadcast against each other, and
return arrays, and ``bessel_zeros`` takes an ndarray of orders and scans
them all at once, so batched callers share this one validated layer.
All functions are pure and safe to call concurrently.
"""

import math

import numpy as np
from scipy import special

from ._zeros import ConvergenceError, scan_zeros

__all__ = [
    "ConvergenceError",
    "bessel_i_scaled_pair",
    "bessel_j",
    "bessel_j_deriv",
    "bessel_j_deriv_zero",
    "bessel_j_pair",
    "bessel_zero",
    "bessel_zeros",
]


def _check_order_arg(v, x):
    if not (math.isfinite(v) and math.isfinite(x)):
        raise ValueError(f"order and argument must be finite, got v={v}, x={x}")
    if v < 0.0:
        raise ValueError(f"order must be nonnegative, got {v}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")


def _check_order_args(v, x):
    """The rules of _check_order_arg, applied to every element of broadcast (v, x)."""
    ok = np.isfinite(v) & np.isfinite(x) & (v >= 0.0) & (x >= 0.0)
    if not ok.all():
        v, x = np.broadcast_arrays(v, x)
        i = np.flatnonzero(~ok)[0]
        _check_order_arg(float(v.flat[i]), float(x.flat[i]))


def _pair(fn, v, x):
    """(fn(v, x), fn(v + 1, x)) as floats, or as broadcast arrays when v or x is an ndarray."""
    if isinstance(v, np.ndarray) or isinstance(x, np.ndarray):
        _check_order_args(v, x)
        return fn(v, x), fn(v + 1.0, x)
    _check_order_arg(v, x)
    return float(fn(v, x)), float(fn(v + 1.0, x))


def bessel_j(v: float, x: float) -> float:
    """Bessel function of the first kind J_v(x), v >= 0, x >= 0."""
    _check_order_arg(v, x)
    return float(special.jv(v, x))


def bessel_j_pair(v, x):
    """(J_v(x), J_{v+1}(x)); elementwise arrays when v or x is an ndarray."""
    return _pair(special.jv, v, x)


def bessel_j_deriv(v: float, x: float) -> float:
    """dJ_v/dx via J_v'(x) = (v/x) J_v(x) - J_{v+1}(x)."""
    _check_order_arg(v, x)
    if x == 0.0:
        if v == 1.0:
            return 0.5
        if v == 0.0 or v > 1.0:
            return 0.0
        raise ValueError(f"J_v'(0) diverges for 0 < v < 1 (v={v})")
    jv, jv1 = bessel_j_pair(v, x)
    return (v / x) * jv - jv1


def bessel_i_scaled_pair(v, x):
    """(e^-x I_v(x), e^-x I_{v+1}(x)); safe for any finite x >= 0, and
    elementwise arrays when v or x is an ndarray."""
    return _pair(special.ive, v, x)


def bessel_zeros(v, kmax=math.inf, bound=math.inf):
    """Positive zeros of J_v, strictly increasing: the first kmax, or all up to `bound`.

    Whichever limit the scan meets first ends it, so at least one must be
    finite. Every zero re-evaluates to |J_v(z)| < 1e-10 max(1, |J_v'(z)|),
    or ConvergenceError is raised. A zero found under either limit has
    the same floating-point value. An ndarray of orders is scanned in one
    batch and gives one list per order, each equal to that order's call.
    """
    orders = np.ravel(v).astype(float)
    _check_order_args(orders, 0.0)
    if not kmax >= 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if not bound >= 0.0 or kmax == bound == math.inf:
        raise ValueError(f"bound must be nonnegative, and finite when kmax is not; got {bound}")
    start = np.maximum(0.5, np.sqrt(orders * (orders + 2.0)) - 0.5)
    zeros = scan_zeros(lambda x, r: special.jv(orders[r], x), kmax, start, 0.9,
                       lambda r: f"zero of J_{orders[r]}", bound)
    for order, zs in zip(orders.tolist(), zeros):
        for k, z in enumerate(zs, 1):
            resid = abs(bessel_j(order, z))
            limit = 1e-10 * max(1.0, abs(bessel_j_deriv(order, z)))
            if resid >= limit:
                raise ConvergenceError(f"zero ({order}, {k}) residual {resid:.3e} exceeds {limit:.3e}")
    return zeros if isinstance(v, np.ndarray) else zeros[0]


def bessel_zero(v: float, k: int) -> float:
    """k-th positive zero of J_v (k >= 1), absolute error well below 1e-10."""
    return bessel_zeros(v, k)[k - 1]


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
        jm, jn = bessel_j_pair(nu - 1.0, p)
        return jm - (c / p) * jn

    return scan_zeros(f, k, 0.2, 0.5, lambda _: f"radial Neumann root (nu={nu})")[0][k - 1]
