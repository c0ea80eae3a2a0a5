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

Dropping the flux condition leaves two separate hinged (Navier) balls,
u = Delta u = 0 on each boundary, whose smallest eigenvalue is
(j_{nu,1} / r)^4 on a ball of radius r. The constraint only shrinks the
admissible set, so J(a) >= (j_{nu,1} / max(a, b))^4, with equality at
a = b, where the symmetric mode meets both hinged conditions.

The derivation is pinned by three independent checks (tests): the
endpoint limit equals the clamped-ball eigenvalue, J is symmetric in
t = a^n about 1/2, and the published d_n values are reproduced.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .balls import _clamped_roots, _clamped_secular, clamped_radial_root
from .specfun import ConvergenceError
from .specfun._zeros import scan_zeros

# Reference values of the decoupled-problem constants (not computed here;
# no construction for them is implemented). The n=3 entry appears under a
# repeated n=2 label in the original tabulation.
TALENTI_D_PRIME = {2: 0.9777, 3: 0.7391, 4: 0.6524}

_ENDPOINT_GUARD = 1e-3
_START_MARGIN = 1e-3  # each k scan starts this fraction below the Navier bound j_{nu,1} / max(a, b)
_GRID_POINTS = 65  # t-grid points of the d_n scan; odd, so that t = 1/2 is a grid point


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

    The determinant is evaluated in closed form. Expanding it along its
    two sparse rows gives

        -2 [a^(n-1) J_nu(kb) I_nu(kb) C(ka) + b^(n-1) J_nu(ka) I_nu(ka) C(kb)]

    with C the clamped secular function J_nu I_{nu+1} + I_nu J_{nu+1} of
    `balls`, and dividing by the product of the four row sup-norms gives
    the determinant of the sup-normalized matrix.

    `n`, `a` and `mu` broadcast against each other: array input returns
    the array of determinants; scalar input returns a float. Every element
    must have a finite n >= 2, 0 < a < 1 and a finite mu > 0, or
    ValueError is raised; these are the only checks the Bessel kernels
    below get.
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
    ca, (ja, ia, ja1, ia1) = _clamped_secular(nu, k * a)
    cb, (jb, ib, jb1, ib1) = _clamped_secular(nu, k * b)
    # the row sup-norms are na (phi(a) = 0), nb (psi(b) = 0), flux and lap
    na, nb = np.maximum(np.abs(ja), ia), np.maximum(np.abs(jb), ib)
    ma, mb = np.maximum(np.abs(ja1), ia1), np.maximum(np.abs(jb1), ib1)
    flux, lap = np.maximum(ah * ma, bh * mb), np.maximum(na, nb)

    def q(x, norm):  # x / norm; a zero norm has a zero row, so x is 0
        return x / np.where(norm > 0.0, norm, 1.0)

    # every factor is at most 2 in size, so a term underflows only where
    # the normalized determinant does: it scales like (e^-x I_nu)^2, which
    # leaves the double range near n = 1600; the raw products leave it sooner
    det = -2.0 * (q(jb, nb) * q(ib, lap) * q(q(ca, na), ma) * q(ah * ma, flux)
                  + q(ja, na) * q(ia, lap) * q(q(cb, nb), mb) * q(bh * mb, flux))
    det = det.reshape(shape)
    return float(det) if det.ndim == 0 else det


def _J_many(n, a, k0) -> np.ndarray:
    """Smallest two-ball eigenvalue at every first-ball radius in `a`.

    `n`, `a` and `k0` (the clamped unit-ball root of each n) broadcast
    against each other, so one batch can mix dimensions: `d_constants`
    solves every n's half t-grid as one (n, t) array, and the result keeps
    the broadcast shape.
    Near-degenerate endpoints (min(a, b) < 1e-3) take the analytic
    endpoint value k0^4. Every other radius is one row of a `scan_zeros`
    batch in k = mu^(1/4). Its scan starts 1e-3 below the Navier bound
    j / max(a, b), j = j_{n/2-1,1}, under which no root lies, and runs up
    to 2 k0 in steps of min(k0/50, (k0 - j)/4); a step of k0/50 from that
    start can straddle two roots of a large n (n = 68, t = 0.484: 39.677
    and 40.410 in one step of 0.80) and skip both. The first sign change
    is refined to float resolution in k, like every other radial root.
    Radii whose scan finds no sign change get NaN, and so do radii whose
    root is the scan start itself: no root lies there, so that is a
    determinant that underflowed to 0 (it does for large n, from n = 1623
    on the d_n grid).
    """
    n, a, k0 = np.broadcast_arrays(np.asarray(n), np.asarray(a, dtype=float), np.asarray(k0, dtype=float))
    shape = a.shape
    n, a, k0 = n.ravel(), a.ravel(), k0.ravel()
    out = np.full(a.shape, np.nan)
    b = _radii(n, a)[0]
    endpoint = np.minimum(a, b) < _ENDPOINT_GUARD
    out[endpoint] = [k**4 for k in k0[endpoint].tolist()]  # Python powers: bit-equal to clamped_ball
    scan = ~endpoint
    n, a, b, k0 = n[scan], a[scan], b[scan], k0[scan]
    dims = np.unique(n)
    j = np.array([navier for navier, _ in _first_zeros(tuple(dims.tolist()))])[np.searchsorted(dims, n)]
    start = (1.0 - _START_MARGIN) * j / np.maximum(a, b)
    ks = scan_zeros(lambda k, r: secular_det(n[r], a[r], k**4), 1, start, np.minimum(k0 / 50.0, (k0 - j) / 4.0),
                    lambda r: f"two-ball root for n={n[r]}, a={a[r]}", bound=2.0 * k0)
    roots = np.array([k[0] if k else np.nan for k in ks])
    roots[roots == start] = np.nan  # an underflowed determinant, not a root (docstring)
    out[scan] = roots**4
    return out.reshape(shape)


def J_of_a(n: int, a: float) -> float:
    """Smallest eigenvalue of the two-ball problem at first-ball radius a,
    under the |Omega| = C_n normalization.

    A one-radius call of the batched solver `_J_many`: scan in k =
    mu^(1/4) from just below the Navier bound j_{n/2-1,1} / max(a, b) to
    2 k0 in steps of min(k0/50, (k0 - j_{n/2-1,1})/4), ITP refinement of
    the first sign change to float resolution in k, and the analytic
    endpoint value when min(a, b) < 1e-3. Raises ConvergenceError when the
    scan finds no root above its start.
    """
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"a must lie in [0, 1], got {a}")
    mu = float(_J_many(n, [a], clamped_radial_root(n, 0))[0])
    if math.isnan(mu):
        raise ConvergenceError(f"two-ball bracketing failed for n={n}, a={a}: no sign change in the k scan")
    return mu


def _t_to_a(t, n: int):
    return t ** (1.0 / n)


@functools.lru_cache(maxsize=8)
def _first_zeros(ns: tuple[int, ...]) -> tuple[tuple[float, float], ...]:
    """(j_{n/2-1,1}, j_{n/2,1}) for every n of the increasing tuple `ns`, from one `bessel_zeros` batch.

    `_J_many` starts its scans from the first and `c_constants` takes the
    ratio of the two, so a `constants` run, which solves both for the same
    dimensions, makes one batch.
    """
    zeros = specfun.bessel_zeros(np.ravel([(n / 2.0 - 1.0, n / 2.0) for n in ns]), kmax=1)
    return tuple((num, den) for (num,), (den,) in zip(zeros[::2], zeros[1::2]))


def _dimensions(ns) -> list[int]:
    """The dimensions `ns` in increasing order, each once; ValueError if any is below 2."""
    ns = sorted(set(ns))
    for n in ns:
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
    return ns


def d_constants(ns) -> dict[int, DConstantResult]:
    """{n: d_n = min_t J(t) / Gamma_1(B_1)} in increasing n, from one batched t-grid.

    t = a^n is the natural variable. Swapping the two balls maps t to
    1 - t, so J(t) = J(1 - t) exactly, and only the 33 points
    t = 0, 1/64, ..., 1/2 of each n's 65-point grid are solved, all n in
    one `_J_many` batch; each row is mirrored onto t > 1/2 (the grid
    points are multiples of 1/64, so ts[64 - i] == 1 - ts[i] exactly).
    `curve_table` still solves every t it is given. Each n's solved half
    must find a root at every t, and its mirrored row must not jump
    roots: no adjacent gap may exceed 5x a robust local slope scale. d_n
    is the smallest J on the grid, and `curve` holds all 65 points. The
    two-ball minimum sits at one ball (t = 0 or 1, n = 2, 3) or at two
    equal balls (t = 1/2, n >= 4), and the grid holds all three points; a
    grid minimum at any other t raises ConvergenceError, because the grid
    value there could overstate a constant that is used as a lower bound.

    The n are checked in increasing order, so when some n fail, the
    ConvergenceError of the smallest of them is raised: the one that
    solving the n one at a time would meet first.
    """
    ns = _dimensions(ns)
    if not ns:
        return {}
    k0 = [zs[0] for zs in _clamped_roots(np.array(ns) / 2.0 - 1.0, kmax=1)]
    ts = np.linspace(0.0, 1.0, _GRID_POINTS)
    half = ts[: _GRID_POINTS // 2 + 1]
    # a scalar exponent per n, as in curve_table (numpy's power of an exponent array differs, see _radii)
    lower = _J_many(np.array(ns)[:, None], np.array([_t_to_a(half, n) for n in ns]), np.array(k0)[:, None])
    results = {}
    for n, k, solved in zip(ns, k0, lower):
        ball = k**4
        failed = half[np.isnan(solved)].tolist()
        if failed:
            raise ConvergenceError(f"two-ball bracketing failed for n={n} at t={failed}")
        js = np.concatenate([solved, solved[-2::-1]])
        gaps = np.abs(np.diff(js))
        padded = np.pad(gaps, 1)  # gaps are >= 0, so a zero pad never wins the max
        slope_scale = np.maximum(np.maximum(padded[:-2], padded[2:]), 1e-3 * ball)
        jumps = np.flatnonzero(gaps > 5.0 * slope_scale)
        if jumps.size:
            i = int(jumps[0])
            raise ConvergenceError(
                f"J(t) jump between t={ts[i]:.4f} and t={ts[i + 1]:.4f} for n={n}: "
                f"gap {gaps[i]:.3e} vs local slope scale {slope_scale[i]:.3e}"
            )
        imin = int(np.argmin(js))
        t_min = float(ts[imin])
        if t_min not in (0.0, 0.5, 1.0):
            raise ConvergenceError(
                f"two-ball minimum for n={n} at t={t_min}, not at t = 0, 1/2 or 1: "
                f"the grid value may overstate d_n"
            )
        curve = tuple((float(t), float(j / ball)) for t, j in zip(ts, js))
        results[n] = DConstantResult(n, float(js[imin]) / ball, t_min, ball, curve)
    return results


def d_constant(n: int) -> DConstantResult:
    """d_n alone: `d_constants([n])[n]`."""
    return d_constants([n])[n]


def c_constants(ns) -> dict[int, float]:
    """{n: c_n = 2^(2/n) (j_{n/2-1,1} / j_{n/2,1})^2} in increasing n, the buckling lower-bound constants.

    The first zeros of the orders n/2 - 1 and n/2 of every n come from
    `_first_zeros`, the batch that `d_constants` of the same n starts its
    scans from; every order in it gives the root a call of its own gives,
    so each c_n is bit for bit the one-n value.
    """
    ns = _dimensions(ns)
    if not ns:
        return {}
    return {n: 2.0 ** (2.0 / n) * (num / den) ** 2 for n, (num, den) in zip(ns, _first_zeros(tuple(ns)))}


def c_constant(n: int) -> float:
    """c_n alone: `c_constants([n])[n]`."""
    return c_constants([n])[n]


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
