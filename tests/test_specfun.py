"""Bessel kernels and zeros: independent oracles and invariants.

The value checks run on the ``scipy.special`` kernels (``jv``, ``ive``,
``jvp``) that the package's scans call directly.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from eigenineq import balls, specfun


def _series_j0(x):
    # independent alternating power series for J_0, summed directly
    term, total = 1.0, 1.0
    q = 0.25 * x * x
    for k in range(1, 60):
        term *= -q / (k * k)
        total += term
    return total


def bisect_j0_zero(lo=2.0, hi=3.0):
    # oracle: bisection of the power series on [2, 3]
    flo = _series_j0(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (_series_j0(mid) < 0.0) == (flo < 0.0):
            lo, flo = mid, _series_j0(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_j0_vanishes_at_series_bisection_root():
    root = bisect_j0_zero()
    assert abs(root - 2.404826) < 1e-6
    assert abs(special.jv(0.0, 2.404826)) < 1e-6


@pytest.mark.parametrize("bad", [(-1.0, 3), (math.nan, 3), (math.inf, 3), (1.0, 0)])
def test_domain_validation(bad):
    # three bad orders, then a bad count
    with pytest.raises(ValueError):
        specfun.bessel_zeros(*bad)


@pytest.mark.parametrize("entry", [specfun.bessel_zeros, balls._clamped_roots])
@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
def test_array_order_pairs_reject_any_bad_order(entry, bad):
    with pytest.raises(ValueError, match="order"):
        entry(np.array([0.0, 1.5, bad, 2.0]), kmax=1)
    with pytest.raises(ValueError, match="order"):
        entry(bad, kmax=1)


def test_recurrence_identity_on_lattice():
    # J_{v+1}(x) = (2v/x) J_v(x) - J_{v-1}(x), relative to the value scale
    for v in (1.0, 1.5, 2.0, 3.0):
        for x in [0.5 * k for k in range(1, 101)]:
            jm = special.jv(v - 1.0, x)
            jv = special.jv(v, x)
            jp = special.jv(v + 1.0, x)
            scale = max(abs(jm), abs(jv), abs(jp), 1e-3)
            assert abs(jp - (2.0 * v / x) * jv + jm) < 1e-10 * scale


def test_against_mpmath_reference():
    mpmath.mp.dps = 30
    for v in (0.0, 0.5, 1.0, 2.5, 6.0, 11.0):
        for x in (0.3, 2.0, 9.7, 10.3, 25.0, 60.0, 99.5):
            ref = float(mpmath.besselj(v, x))
            assert abs(special.jv(v, x) - ref) <= 1e-12 * max(1.0, abs(ref))
    # both components of each pair, from x = 0 to x well past the order
    for v in (0.0, 0.25, 1.0, 4.5, 13.0):
        for x in (0.0, 0.7, 9.9, 10.1, 35.0, 80.0):
            refs = [float(mpmath.besselj(w, x)) for w in (v, v + 1.0)]
            for got, ref in zip((special.jv(v, x), special.jv(v + 1.0, x)), refs):
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
            refs = [float(mpmath.besseli(w, x) * mpmath.exp(-x)) for w in (v, v + 1.0)]
            for got, ref in zip((special.ive(v, x), special.ive(v + 1.0, x)), refs):
                assert abs(got - ref) <= 1e-12 * ref


def test_derivative_identities():
    mpmath.mp.dps = 30
    for v, x in [(0.0, 3.1), (1.0, 7.7), (2.5, 14.0)]:
        ref = float(mpmath.besselj(v, x, derivative=1))
        assert abs(special.jvp(v, x) - ref) < 1e-12


def test_zero_values_and_ratio():
    z = specfun.bessel_zero(0.0, 1)
    assert abs(z - bisect_j0_zero()) < 1e-10
    ratio = (specfun.bessel_zero(1.0, 1) / z) ** 2
    assert abs(ratio - 2.5387) < 5e-4


def test_half_order_zeros_are_multiples_of_pi():
    for k in (1, 2, 3, 7):
        assert abs(specfun.bessel_zero(0.5, k) - k * math.pi) < 1e-10


def test_zeros_strictly_increasing_and_interlacing():
    table = {v: specfun.bessel_zeros(v, 6) for v in (0.0, 1.0, 2.0, 3.0)}
    for v, zs in table.items():
        assert all(a < b for a, b in zip(zs, zs[1:]))
    for v in (0.0, 1.0, 2.0):
        for k in range(5):
            assert table[v][k] < table[v + 1.0][k] < table[v][k + 1]


def test_zero_residual_invariant():
    for v in (0.0, 0.5, 2.0, 7.5):
        z = specfun.bessel_zero(v, 3)
        resid = abs(special.jv(v, z))
        assert resid < 1e-10 * max(1.0, abs(special.jvp(v, z)))


def test_zero_residual_gate_rejects_an_off_root(monkeypatch):
    # one root of the batch nudged off its zero fails the vectorized gate
    scan = specfun.scan_zeros

    def nudged(*args, **kwargs):
        zeros = scan(*args, **kwargs)
        zeros[1][2] += 1e-6
        return zeros

    monkeypatch.setattr(specfun, "scan_zeros", nudged)
    with pytest.raises(specfun.ConvergenceError, match="residual"):
        specfun.bessel_zeros(np.array([0.0, 1.5, 4.0]), kmax=4)


def test_deriv_zero_n2_matches_bisection_of_j1_prime():
    # J_1'(x) = J_0(x) - J_1(x)/x; bisect it independently on [1.5, 2.5]
    def j1p(x):
        return special.jv(0.0, x) - special.jv(1.0, x) / x

    lo, hi = 1.5, 2.5
    flo = j1p(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (j1p(mid) < 0.0) == (flo < 0.0):
            lo, flo = mid, j1p(mid)
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 1.841184) < 1e-6
    assert abs(specfun.bessel_j_deriv_zero(1.0, 1) - 1.841184) < 1e-6


def test_deriv_zero_monotone_in_k():
    for nu in (1.0, 1.5, 2.0):
        roots = [specfun.bessel_j_deriv_zero(nu, k) for k in (1, 2, 3)]
        assert roots[0] < roots[1] < roots[2]


def test_deriv_zero_preconditions():
    with pytest.raises(ValueError):
        specfun.bessel_j_deriv_zero(0.5, 1)
    with pytest.raises(ValueError):
        specfun.bessel_j_deriv_zero(1.0, 0)
