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
from scipy import special

from . import specfun
from .balls import _clamped_roots, clamped_radial_root
from .specfun import ConvergenceError
from .specfun._zeros import scan_zeros

# Reference values of the decoupled-problem constants (not computed here;
# no construction for them is implemented). The n=3 entry appears under a
# repeated n=2 label in the original tabulation.
TALENTI_D_PRIME = {2: 0.9777, 3: 0.7391, 4: 0.6524}

_ENDPOINT_GUARD = 1e-3
_GRID_POINTS = 65  # t-grid points of the d_n scan
_ZOOM_POINTS = 16  # interior points solved per round of the d_n minimizer zoom


@dataclass(frozen=True)
class DConstantResult:
    n: int
    d_n: float
    minimizer_t: float
    ball_value: float  # Gamma_1 of the unit ball = J at the endpoints
    curve: tuple[tuple[float, float], ...]  # (t, J(t)/ball_value) samples


def _radii(n, a):
    """(b, a^(n-1), b^(n-1)) for broadcast 1-d n and a, b = (1 - a^n)^(1/n).

    Each distinct n is raised as a scalar exponent, so an array of
    dimensions gives bit for bit what one call per dimension gives: numpy
    takes an exact square or square root for the scalar exponents 2 and
    0.5, but the general power for an array of exponents.
    """
    b, ah, bh = np.empty((3,) + a.shape)
    for m in np.unique(n).tolist():
        sel = n == m
        am = a[sel]
        bm = (1.0 - am**m) ** (1.0 / m)
        b[sel], ah[sel], bh[sel] = bm, am ** (m - 1.0), bm ** (m - 1.0)
    return b, ah, bh


def secular_det(n, a, mu):
    """Determinant whose sign changes bracket the two-ball eigenvalues.

    Columns are the J/I coefficients on B_a then B_b; rows impose
    phi(a)=0, psi(b)=0, the flux match and the vanishing Laplacian sum.
    I-columns carry e^-kappa scaling and every row is sup-normalized;
    both are positive rescalings, so root locations and sign changes are
    preserved even where I_nu would overflow.

    `n`, `a` and `mu` broadcast against each other: array input builds
    one stacked (..., 4, 4) matrix and returns the array of determinants;
    scalar input returns a float. Every element must have a finite n >= 2,
    0 < a < 1 and a finite mu > 0, or ValueError is raised; these are the
    only checks the Bessel kernels below get.
    """
    n, a, mu = np.broadcast_arrays(np.asarray(n), np.asarray(a, dtype=float), np.asarray(mu, dtype=float))
    bad_n = n[~(np.isfinite(n) & (n >= 2))]
    if bad_n.size:
        raise ValueError(f"n must be finite and >= 2, got {bad_n[0]}")
    bad_a = a[~((0.0 < a) & (a < 1.0))]
    if bad_a.size:
        raise ValueError(f"a must lie strictly between 0 and 1, got {bad_a[0]}")
    bad_mu = mu[~((mu > 0.0) & np.isfinite(mu))]
    if bad_mu.size:
        raise ValueError(f"mu must be finite and positive, got {bad_mu[0]}")
    shape = a.shape
    n, a, mu = n.ravel(), a.ravel(), mu.ravel()
    # columns are pre-scaled by a^nu (resp. b^nu), so the flux row carries
    # a^(n-1) = a^(n/2) * a^nu
    b, ah, bh = _radii(n, a)
    nu = n / 2.0 - 1.0
    k = mu**0.25
    ka, kb = k * a, k * b
    ja, ja1 = special.jv(nu, ka), special.jv(nu + 1.0, ka)
    ia, ia1 = special.ive(nu, ka), special.ive(nu + 1.0, ka)
    jb, jb1 = special.jv(nu, kb), special.jv(nu + 1.0, kb)
    ib, ib1 = special.ive(nu, kb), special.ive(nu + 1.0, kb)
    rows = np.zeros((4, 4) + ja.shape)  # (row, column, radius)
    rows[0, :2] = ja, ia
    rows[1, 2:] = jb, ib
    rows[2] = -ah * ja1, ah * ia1, bh * jb1, -bh * ib1
    rows[3] = -ja, ia, -jb, ib
    scale = np.abs(rows).max(axis=1, keepdims=True)
    rows /= np.where(scale > 0.0, scale, 1.0)
    det = np.linalg.det(np.moveaxis(rows, -1, 0)).reshape(shape)
    return float(det) if det.ndim == 0 else det


def _J_many(n, a, k0) -> np.ndarray:
    """Smallest two-ball eigenvalue at every first-ball radius in `a`.

    `n`, `a` and `k0` (the clamped unit-ball root of each n) broadcast
    against each other, so one batch can mix dimensions.
    Near-degenerate endpoints (min(a, b) < 1e-3) take the analytic
    endpoint value k0^4. Every other radius is one row of a `scan_zeros`
    batch in k = mu^(1/4): the scan runs from 0.5 k0 in steps of k0/50
    up to 2 k0, and its first sign change is bisected until the bracket
    width is at most 2.5e-10 of its lower end, i.e. 1e-9 relative in mu.
    Radii whose scan finds no sign change get NaN.
    """
    n, a, k0 = np.broadcast_arrays(np.asarray(n), np.asarray(a, dtype=float), np.asarray(k0, dtype=float))
    shape = a.shape
    n, a, k0 = n.ravel(), a.ravel(), k0.ravel()
    out = np.full(a.shape, np.nan)
    endpoint = np.minimum(a, _radii(n, a)[0]) < _ENDPOINT_GUARD
    out[endpoint] = [k**4 for k in k0[endpoint].tolist()]  # Python powers: bit-equal to clamped_ball
    scan = ~endpoint
    n, a, k0 = n[scan], a[scan], k0[scan]
    ks = scan_zeros(lambda k, r: secular_det(n[r], a[r], k**4), 1, 0.5 * k0, k0 / 50.0,
                    lambda r: f"two-ball root for n={n[r]}, a={a[r]}", bound=2.0 * k0, rtol=2.5e-10)
    out[scan] = np.array([k[0] if k else np.nan for k in ks]) ** 4
    return out.reshape(shape)


def J_of_a(n: int, a: float) -> float:
    """Smallest eigenvalue of the two-ball problem at first-ball radius a,
    under the |Omega| = C_n normalization.

    A one-radius call of the batched solver `_J_many`: scan in k =
    mu^(1/4) with step k0/50 from 0.5 k0 to 2 k0, bisection of the first
    sign change to 1e-9 relative in mu, and the analytic endpoint value
    when min(a, b) < 1e-3. Raises ConvergenceError when the scan finds no
    sign change.
    """
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"a must lie in [0, 1], got {a}")
    mu = float(_J_many(n, [a], clamped_radial_root(n, 0))[0])
    if math.isnan(mu):
        raise ConvergenceError(f"two-ball bracketing failed for n={n}, a={a}: no sign change in the k scan")
    return mu


def _t_to_a(t, n: int):
    return t ** (1.0 / n)


def _J_of_t(ts: dict, k0: dict):
    """_J_many over t = a^n for every n of `ts` ({n: t array}) in one batch.

    Returns ({n: J values}, {n: ConvergenceError}), the latter for each n
    with a failed root.
    """
    sizes = [len(t) for t in ts.values()]
    js = _J_many(
        np.repeat(list(ts), sizes),
        np.concatenate([_t_to_a(t, n) for n, t in ts.items()]),
        np.repeat([k0[n] for n in ts], sizes),
    )
    js = dict(zip(ts, np.split(js, np.cumsum(sizes)[:-1])))
    failed = {n: ts[n][np.isnan(j)].tolist() for n, j in js.items()}
    return js, {n: ConvergenceError(f"two-ball bracketing failed for n={n} at t={t}") for n, t in failed.items() if t}


def d_constants(ns) -> dict[int, DConstantResult]:
    """{n: d_n = min_a J(a) / Gamma_1(B_1)} in increasing n, by t-scans and a batched zoom.

    t = a^n is the natural variable (J is symmetric about t = 1/2). The
    t-grids of all n are solved in one lockstep batch, and each n's scan
    rejects root-jumping: no adjacent gap may exceed 5x a robust local
    slope scale. Interior grid minima are then refined by zooming, all n
    in lockstep: each round solves 16 evenly spaced interior points of
    every bracket at once and keeps the neighbours of the smallest value;
    an n drops out once its bracket is narrower than 1e-6 in t. An
    endpoint minimum is the ball value itself.

    When some n fail, the ConvergenceError of the smallest of them is
    raised: the one that solving the n one at a time, in increasing
    order, would meet first.
    """
    ns = sorted(set(ns))
    for n in ns:
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
    if not ns:
        return {}
    k0 = {n: zs[0] for n, zs in zip(ns, _clamped_roots(np.array(ns) / 2.0 - 1.0, kmax=1))}
    ts = np.linspace(0.0, 1.0, _GRID_POINTS)
    grid, errors = _J_of_t(dict.fromkeys(ns, ts), k0)
    best, zoom = {}, {}  # n -> (t_min, j_min); n -> (x_lo, x_hi, f_lo, f_hi)
    for n in ns:
        if n in errors:
            continue
        js = grid[n]
        gaps = np.abs(np.diff(js))
        padded = np.pad(gaps, 1)  # gaps are >= 0, so a zero pad never wins the max
        slope_scale = np.maximum(np.maximum(padded[:-2], padded[2:]), 1e-3 * k0[n] ** 4)
        jumps = np.flatnonzero(gaps > 5.0 * slope_scale)
        if jumps.size:
            i = int(jumps[0])
            errors[n] = ConvergenceError(
                f"J(t) jump between t={ts[i]:.4f} and t={ts[i + 1]:.4f} for n={n}: "
                f"gap {gaps[i]:.3e} vs local slope scale {slope_scale[i]:.3e}"
            )
            continue
        imin = int(np.argmin(js))
        best[n] = float(ts[imin]), float(js[imin])
        if 0 < imin < _GRID_POINTS - 1:
            zoom[n] = ts[imin - 1], ts[imin + 1], js[imin - 1], js[imin + 1]
    while True:
        live = [n for n, (x_lo, x_hi, _, _) in zoom.items() if x_hi - x_lo >= 1e-6 and n not in errors]
        if not live:
            break
        xs = {n: np.linspace(zoom[n][0], zoom[n][1], _ZOOM_POINTS + 2) for n in live}
        inner, failed = _J_of_t({n: x[1:-1] for n, x in xs.items()}, k0)
        errors.update(failed)
        for n in live:
            if n in failed:
                continue
            fs = np.concatenate(([zoom[n][2]], inner[n], [zoom[n][3]]))
            j = int(np.argmin(fs))
            best[n] = float(xs[n][j]), float(fs[j])
            lo, hi = max(j - 1, 0), min(j + 1, len(fs) - 1)
            zoom[n] = xs[n][lo], xs[n][hi], fs[lo], fs[hi]
    if errors:
        raise errors[min(errors)]
    results = {}
    for n in ns:
        js = grid[n]
        t_min, j_min = best[n]
        if n in zoom and js[0] <= j_min:  # endpoint still wins
            t_min, j_min = float(ts[0]), float(js[0])
        ball = k0[n] ** 4
        curve = tuple((float(t), float(j / ball)) for t, j in zip(ts, js))
        results[n] = DConstantResult(n, j_min / ball, t_min, ball, curve)
    return results


def d_constant(n: int) -> DConstantResult:
    """d_n alone: `d_constants([n])[n]`."""
    return d_constants([n])[n]


def c_constant(n: int) -> float:
    """c_n = 2^(2/n) (j_{n/2-1,1} / j_{n/2,1})^2, the buckling lower-bound constant."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    (num,), (den,) = specfun.bessel_zeros(np.array([n / 2.0 - 1.0, n / 2.0]), kmax=1)
    return 2.0 ** (2.0 / n) * (num / den) ** 2


def curve_table(n: int, t_grid) -> list[tuple[float, float | None]]:
    """(t, J(t)/Gamma_1(B_1)) samples; failed root solves yield None entries."""
    ts = [float(t) for t in t_grid]
    for t in ts:
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"t must lie in [0, 1], got {t}")
    k0 = clamped_radial_root(n, 0)
    ball = k0**4
    js = _J_many(n, _t_to_a(np.array(ts), n), k0)
    return [(t, None if math.isnan(j) else float(j / ball)) for t, j in zip(ts, js)]
