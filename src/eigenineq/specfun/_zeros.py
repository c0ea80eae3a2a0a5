"""Root finding by lockstep scan-bracketing plus bisection.

`scan_zeros` is the package's one root finder. It takes many functions
at once, row r being x -> f(x, r), and advances every row in lockstep:
each scan step, and each halving of every bracket found, is one call of
f on all rows still live. Brackets come from a sign-change scan with a
step well below the minimal root spacing, so no root can be skipped;
each bracket is then halved until its width is at most `rtol` of its
lower end. A row's roots do not depend on the rows that share its batch.
"""

import numpy as np


class ConvergenceError(RuntimeError):
    """An iterative refinement or scan failed to converge; never silent."""


def scan_zeros(f, kmax, start, step, what, bound=np.inf, rtol=4.5e-16):
    """Positive roots of every row r of x -> f(x, r): one increasing list of floats per row.

    `start`, `step` and `bound` broadcast to one value per row, and f
    takes an array of points with the array of their rows. Row r scans
    from start[r] in step[r] increments and stops after kmax roots or
    once it passes bound[r]; roots above bound[r] are dropped. A scan
    point where f vanishes is a root as it stands; every other sign
    change is halved until hi - lo <= rtol lo (the default puts the ends
    two floats apart) or f vanishes at the midpoint, and the midpoint is
    the root. A row still scanning after 10000 steps, or a bracket left
    after 200 halvings, raises ConvergenceError naming `what(r)`.
    """
    start, step, bound = (np.ravel(x).astype(float) for x in np.broadcast_arrays(start, step, bound))
    if not start.size:
        return []
    rows = np.arange(start.size)
    found = np.zeros(start.size, dtype=int)
    s, ds, b = start, step, bound  # of the rows still scanning
    neg = f(s, rows) < 0.0
    steps = [(rows[:0], s[:0], s[:0], neg[:0], neg[:0], neg[:0])]  # per step: rows, s, t, f(s) < 0, hit, f(t) == 0
    for j in range(10001):
        live = (found < kmax) & (s <= b)
        if not live.all():
            rows, found, s, ds, b, neg = (x[live] for x in (rows, found, s, ds, b, neg))
        if not rows.size:
            break
        if j == 10000:
            raise ConvergenceError(f"scan for {what(rows[0])} took 10000 steps and found {found[0]} roots")
        t = s + ds
        ft = f(t, rows)
        zero, tneg = ft == 0.0, ft < 0.0
        hit = zero | (neg != tneg)
        steps.append((rows, s, t, neg, hit, zero))
        found += hit
        s, neg = t, tneg

    # bisection of every bracket at once; a bracket leaves once converged,
    # and one whose midpoint is an exact zero collapses onto it
    brow, lo, hi, neg, hit, zero = (np.concatenate(x) for x in zip(*steps))
    lo = np.where(zero, hi, lo)  # an exact zero on the scan is the bracket [t, t]
    brow, lo, hi, neg = brow[hit], lo[hit], hi[hit], neg[hit]
    roots = np.empty(brow.size)
    idx = np.arange(brow.size)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        done = hi - lo <= rtol * lo
        if done.any():
            roots[idx[done]] = mid[done]
            idx, lo, hi, neg, mid = (x[~done] for x in (idx, lo, hi, neg, mid))
        if not idx.size:
            break
        fm = f(mid, brow[idx])
        same = (fm < 0.0) == neg
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        if not fm.all():
            lo, hi = np.where(fm == 0.0, mid, lo), np.where(fm == 0.0, mid, hi)
    if idx.size:
        raise ConvergenceError(f"bisection of {what(brow[idx[0]])} did not converge in [{lo[0]}, {hi[0]}]")

    keep = roots <= bound[brow]
    brow, roots = brow[keep], roots[keep]
    order = np.argsort(brow, kind="stable")  # brackets were found in scan order
    split = np.cumsum(np.bincount(brow, minlength=start.size))[:-1]
    return [x.tolist() for x in np.split(roots[order], split)]
