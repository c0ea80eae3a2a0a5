"""Root finding by lockstep scan-bracketing plus ITP refinement.

`scan_zeros` is the package's one root finder. It takes many functions
at once, row r being x -> f(x, r), and advances every row in lockstep:
each scan step, and each refinement step of every bracket found, is one
call of f on all rows still live. Brackets come from a sign-change scan
with a step well below the minimal root spacing, so no root can be
skipped; each bracket is then narrowed by ITP steps (interpolate,
truncate, project: Oliveira & Takahashi, ACM TOMS 47(1), 2020) until its
width is at most `_RTOL` of its lower end. ITP converges superlinearly
on a smooth simple root, and never takes more than n0 = 1 step beyond
what bisection takes. A row's roots do not depend on the rows that
share its batch.
"""

import numpy as np

_RTOL = 4.5e-16  # hi - lo <= _RTOL lo puts the bracket ends two floats apart
# ITP constants: truncation delta = _K1 w^_K2 / w0 for a bracket of width w
# that started at w0, and at most _N0 steps more than bisection
_K1, _K2, _N0 = 0.2, 2.0, 1


class ConvergenceError(RuntimeError):
    """An iterative refinement or scan failed to converge; never silent."""


def scan_zeros(f, kmax, start, step, what, bound=np.inf):
    """Positive roots of every row r of x -> f(x, r): one increasing list of floats per row.

    `start`, `step` and `bound` broadcast to one value per row, and f
    takes an array of points with the array of their rows. Row r scans
    from start[r] in step[r] increments and stops after kmax roots or
    once it passes bound[r]; roots above bound[r] are dropped. A scan
    point where f vanishes, start[r] included, is a root as it stands,
    counted once whatever the sign of f after it; every other sign
    change is refined by ITP steps, which reuse the f values at the
    bracket ends, until hi - lo <= 4.5e-16 lo (the ends two floats
    apart) or f vanishes at an iterate, and the midpoint is the root. A
    row still scanning after 10000 steps, or a bracket left after 200
    refinement steps, raises ConvergenceError naming `what(r)`.
    """
    start, step, bound = (np.ravel(x).astype(float) for x in np.broadcast_arrays(start, step, bound))
    if not start.size:
        return []
    rows = np.arange(start.size)
    s, ds, b = start, step, bound  # of the rows still scanning
    fs = f(s, rows)
    hit = fs == 0.0  # a zero at start is the bracket [start, start]
    steps = [(rows, s, s, fs, fs, hit)]  # per step: rows, s, t, f(s), f(t), hit
    found = hit.astype(int)
    for j in range(10001):
        live = (found < kmax) & (s <= b)
        if not live.all():
            rows, found, s, ds, b, fs = (x[live] for x in (rows, found, s, ds, b, fs))
        if not rows.size:
            break
        if j == 10000:
            raise ConvergenceError(f"scan for {what(rows[0])} took 10000 steps and found {found[0]} roots")
        t = s + ds
        ft = f(t, rows)
        # a zero at s was counted when the scan reached it, so it opens no second bracket
        hit = (ft == 0.0) | (((fs < 0.0) != (ft < 0.0)) & (fs != 0.0))
        steps.append((rows, s, t, fs, ft, hit))
        found += hit
        s, fs = t, ft

    # ITP refinement of every bracket at once; a bracket leaves once
    # converged, and one whose iterate is an exact zero collapses onto it
    brow, lo, hi, flo, fhi, hit = (np.concatenate(x) for x in zip(*steps))
    lo = np.where(fhi == 0.0, hi, lo)  # an exact zero on the scan is the bracket [t, t]
    brow, lo, hi, flo, fhi = brow[hit], lo[hit], hi[hit], flo[hit], fhi[hit]
    roots = np.empty(brow.size)
    idx = np.arange(brow.size)
    w0 = hi - lo
    # w <= budget, halved each step: bisection's width _N0 steps back. It is
    # ITP's 2 eps 2^(n_half + _N0 - j) with n_half = log2(w0 / 2 eps) not
    # rounded up, so no absolute eps is needed for a relative tolerance.
    budget = 2.0**_N0 * w0
    for _ in range(200):
        w = hi - lo
        mid = 0.5 * (lo + hi)
        done = w <= _RTOL * lo
        if done.any():
            roots[idx[done]] = mid[done]
            idx, lo, hi, flo, fhi, w, mid, w0, budget = (
                x[~done] for x in (idx, lo, hi, flo, fhi, w, mid, w0, budget))
        if not idx.size:
            break
        # interpolate, truncate towards the midpoint, project into the budget
        xf = lo - flo * w / (fhi - flo)
        sigma = np.sign(mid - xf)
        delta = _K1 * w**_K2 / w0
        xt = np.where(delta <= np.abs(mid - xf), xf + sigma * delta, mid)
        r = 0.5 * (budget - w)
        x = np.where(np.abs(xt - mid) <= r, xt, mid - sigma * r)
        # at least a float inside each end: a step below float resolution is still a step
        x = np.clip(x, np.nextafter(lo, hi), np.nextafter(hi, lo))
        budget *= 0.5
        fx = f(x, brow[idx])
        same = (fx < 0.0) == (flo < 0.0)
        lo, hi = np.where(same, x, lo), np.where(same, hi, x)
        flo, fhi = np.where(same, fx, flo), np.where(same, fhi, fx)
        if not fx.all():
            lo, hi = np.where(fx == 0.0, x, lo), np.where(fx == 0.0, x, hi)
    if idx.size:
        raise ConvergenceError(f"refinement of {what(brow[idx[0]])} did not converge in [{lo[0]}, {hi[0]}]")

    keep = roots <= bound[brow]
    brow, roots = brow[keep], roots[keep]
    order = np.argsort(brow, kind="stable")  # brackets were found in scan order
    split = np.cumsum(np.bincount(brow, minlength=start.size))[:-1]
    return [x.tolist() for x in np.split(roots[order], split)]
