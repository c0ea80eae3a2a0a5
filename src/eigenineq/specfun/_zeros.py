"""Root finding by scan-bracketing plus bisection.

Brackets come from a sign-change scan with a step well below the minimal
root spacing, so no root can be skipped; each bracket is then halved
until its ends are at most two floats apart.
"""

import math


class ConvergenceError(RuntimeError):
    """An iterative refinement or scan failed to converge; never silent."""


def bisect(f, lo, hi, flo, what="root"):
    """Root of f in [lo, hi], 0 < lo < hi, given f(lo) = flo and a sign change across the bracket.

    Halves the bracket until hi - lo <= 4.5e-16 lo (two floats apart) or
    f vanishes at the midpoint, and returns the midpoint.
    """
    neg_lo = flo < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 4.5e-16 * lo:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == neg_lo:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(f"bisection of {what} did not converge in [{lo}, {hi}]")


def scan_zeros(f, kmax, start, step, what="zero", bound=math.inf):
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
            roots.append(bisect(f, s, t, fs, what=what))
        s, fs = t, ft
    return [r for r in roots if r <= bound]
