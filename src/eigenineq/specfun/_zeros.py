"""Zero finding for Bessel functions: scan-bracketing plus safeguarded Newton.

Brackets come from a sign-change scan with a step well below the minimal
zero spacing, so no root can be skipped; refinement is Newton clipped to
the bracket with bisection fallback, seeded by the McMahon asymptotic
guess when it lands inside the bracket.
"""

import math

from .errors import ConvergenceError


def _mcmahon_guess(v, k):
    b = (k + 0.5 * v - 0.25) * math.pi
    m4 = 4.0 * v * v
    return b - (m4 - 1.0) / (8.0 * b) - 4.0 * (m4 - 1.0) * (7.0 * m4 - 31.0) / (3.0 * (8.0 * b) ** 3)


def refine_root(fdf, lo, hi, flo, x0=None, what="root"):
    """Root of f in [lo, hi] given f(lo)=flo with a sign change across the bracket.

    fdf(x) must return (f(x), f'(x)). Newton steps are accepted only inside
    the open bracket; otherwise the step bisects, so convergence is
    guaranteed while the bracket is valid.
    """
    x = x0 if (x0 is not None and lo < x0 < hi) else 0.5 * (lo + hi)
    neg_lo = flo < 0.0
    for _ in range(200):
        fx, dx = fdf(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == neg_lo:
            lo = x
        else:
            hi = x
        if hi - lo <= 1e-14 * max(1.0, abs(hi)):
            return 0.5 * (lo + hi)
        x_new = 0.5 * (lo + hi)
        if dx != 0.0:
            cand = x - fx / dx
            if lo < cand < hi:
                x_new = cand
        if abs(x_new - x) <= 1e-16 * max(1.0, abs(x)):
            return x_new
        x = x_new
    raise ConvergenceError(f"refinement of {what} did not converge in [{lo}, {hi}]")


def scan_zeros(f, fdf, kmax, start, step, guess=None, what="zero", bound=math.inf):
    """Positive roots of f in increasing order, scanning from `start` in `step` increments.

    The scan stops after kmax roots or once it passes `bound`, whichever
    comes first; roots above `bound` are dropped.
    """
    roots = []
    s = start
    fs = f(s)
    limit = start + step * 10000.0
    while len(roots) < kmax and s <= bound:
        if s > limit:
            raise ConvergenceError(f"scan for {what} exceeded {limit} with {len(roots)} roots found")
        t = s + step
        ft = f(t)
        if ft == 0.0:
            roots.append(t)
        elif (fs < 0.0) != (ft < 0.0):
            x0 = guess(len(roots) + 1) if guess is not None else None
            roots.append(refine_root(fdf, s, t, fs, x0=x0, what=what))
        s, fs = t, ft
    return [r for r in roots if r <= bound]


def jv_zeros(jfun, jpair, v, kmax=math.inf, bound=math.inf):
    """Positive zeros of J_v via the supplied kernel callables: the first kmax, or all up to `bound`."""

    def f(x):
        return jfun(v, x)

    def fdf(x):
        jv, jv1 = jpair(v, x)
        return jv, (v / x) * jv - jv1

    start = 0.5 if v == 0.0 else max(0.5, math.sqrt(v * (v + 2.0)) - 0.5)
    return scan_zeros(
        f, fdf, kmax, start, 0.9, guess=lambda k: _mcmahon_guess(v, k), what=f"zero of J_{v}", bound=bound
    )


def radial_neumann_roots(jpair, nu, kmax):
    """First kmax roots of J_{nu-1}(p) - ((2 nu - 1)/p) J_nu(p), nu = n/2 >= 1.

    This is the free-membrane radial boundary condition on a ball: the
    derivative of r^(1-n/2) J_{n/2}(r) vanishes exactly where this
    combination does.
    """
    c = 2.0 * nu - 1.0

    def f(p):
        jm, jn = jpair(nu - 1.0, p)
        return jm - (c / p) * jn

    def fdf(p):
        jm, jn = jpair(nu - 1.0, p)
        _, jp1 = jpair(nu, p)
        djm = ((nu - 1.0) / p) * jm - jn
        djn = (nu / p) * jn - jp1
        val = jm - (c / p) * jn
        der = djm + (c / (p * p)) * jn - (c / p) * djn
        return val, der

    return scan_zeros(f, fdf, kmax, 0.2, 0.5, what=f"radial Neumann root (nu={nu})")
