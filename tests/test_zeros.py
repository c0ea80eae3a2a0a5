"""The lockstep root finder: batches, exact zeros, guards."""

import math

import numpy as np
import pytest
from scipy import special

from eigenineq import specfun
from eigenineq.balls import _clamped_roots
from eigenineq.specfun._zeros import _RTOL, ConvergenceError, scan_zeros

# row r: sin(w x) - c; the last row never reaches zero
W = np.array([1.0, 2.3, 0.7, 5.1, 1.0])
C = np.array([0.0, 0.4, -0.9, 0.25, 1.5])


def _wave(x, r):
    return np.sin(W[r] * x) - C[r]


def _name(r):
    return f"row {r}"


def _clamped_secular(nu, x):
    return special.jv(nu, x) * special.ive(nu + 1.0, x) + special.ive(nu, x) * special.jv(nu + 1.0, x)


@pytest.mark.parametrize("kmax, bound", [(3, 40.0), (math.inf, 9.0), (2, 9.0)])
def test_rows_solved_together_equal_each_row_alone(kmax, bound):
    start = np.array([0.5, 0.3, 0.5, 0.2, 0.5])
    step = np.array([0.4, 0.2, 0.9, 0.1, 0.4])
    batch = scan_zeros(_wave, kmax, start, step, _name, bound=bound)
    for r in range(W.size):
        alone = scan_zeros(lambda x, _: _wave(x, np.full(x.shape, r)), kmax, start[r], step[r], _name, bound)
        assert batch[r] == alone[0]
    assert batch[-1] == []
    assert all(isinstance(z, float) for zs in batch for z in zs)
    assert all(abs(_wave(np.array(zs), np.full(len(zs), r))).max() < 1e-8 for r, zs in enumerate(batch[:-1]))


def test_no_rows_and_no_brackets_return_at_once():
    calls = []

    def f(x, r):
        calls.append(x.size)
        return np.ones_like(x)

    assert scan_zeros(f, 1, np.empty(0), 0.5, _name) == []
    assert calls == []
    assert scan_zeros(f, 1, [0.5, 1.0], 0.5, _name, bound=3.0) == [[], []]
    assert 0 not in calls  # the refinement of zero brackets calls nothing


@pytest.mark.parametrize(("v", "limits"), [
    (np.array([0.0, 0.5, 1.0, 2.5, 13.0]), {"kmax": 6}),
    (np.array([0.0, 0.5, 1.0, 2.5, 13.0]), {"bound": 30.0}),
    (np.array([4.5, 0.0, 4.5, 40.0]), {"bound": 30.0}),  # repeated order; no zero of J_40 below 30
], ids=["kmax", "bound", "repeated_and_empty"])
def test_bessel_zeros_of_an_order_array_equal_the_per_order_calls(v, limits):
    batch = specfun.bessel_zeros(v, **limits)
    assert batch == [specfun.bessel_zeros(float(x), **limits) for x in v]
    assert all(isinstance(z, float) for zs in batch for z in zs)


@pytest.mark.parametrize("limits", [{"kmax": 4}, {"bound": 25.0}], ids=["kmax", "bound"])
def test_clamped_roots_of_an_order_array_equal_the_per_order_calls(limits):
    nu = np.array([0.0, 0.5, 1.0, 2.5, 3.0])
    assert _clamped_roots(nu, **limits) == [_clamped_roots(float(x), **limits) for x in nu]


def test_exact_zeros_are_returned_exactly():
    # row 0 vanishes on its scan point 0.5 + 3 * 0.5 = 2.0; row 1 brackets
    # its root in [0.5, 1.5] and meets it at the second midpoint, 1.25 (a
    # sign function interpolates to the midpoint)
    roots = [2.0, 1.25]
    seen = []

    def f(x, r):
        seen.extend(x.tolist())
        return np.sign(x - np.take(roots, r))

    assert scan_zeros(f, 1, 0.5, [0.5, 1.0], _name) == [[2.0], [1.25]]
    assert seen.count(1.25) == 1 and seen.count(2.0) == 1  # neither is bisected further


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["falling", "rising"])
@pytest.mark.parametrize("start", [0.5, 2.0], ids=["on_a_scan_point", "at_start"])
def test_a_zero_on_a_scan_point_is_one_root(sign, start):
    # 2 - x vanishes on a scan point and is negative at the next one: the
    # zero must not open a second bracket there, and a zero at start
    # counts whichever sign follows it
    assert scan_zeros(lambda x, r: sign * (x - 2.0), 2, start, 0.5, _name, bound=10.0) == [[2.0]]


def test_scan_step_guard_raises():
    with pytest.raises(ConvergenceError, match="scan for row 1 took 10000 steps and found 0 roots"):
        scan_zeros(lambda x, r: np.where(r == 0, np.sin(x), 1.0), 1, [0.5, 0.5], 0.1, _name)


def test_bisection_guard_raises():
    # a bracket [0, 0.5] around a sign change at 0 never gets narrower than
    # _RTOL times its lower end, 0, so the 200-step guard must end it
    with pytest.raises(ConvergenceError, match=r"refinement of row 0 did not converge in \[0.0, "):
        scan_zeros(lambda x, r: np.where(x > 0.0, 1.0, -1.0), 1, 0.0, 0.5, _name)


def _refinement_calls(g, start, step, rows):
    """Roots (kmax 1) of rows 0..rows-1 of g, and the calls of each row after its scan."""
    calls = np.zeros(rows, dtype=int)

    def f(x, r):
        np.add.at(calls, r, 1)
        return g(x, r)

    roots = [z for (z,) in scan_zeros(f, 1, np.full(rows, start), step, _name)]
    return roots, calls - 1 - np.ceil((np.array(roots) - start) / step).astype(int)


def _bisection_calls(g, lo, hi):
    """Reference: the calls that halving [lo, hi] takes to reach _RTOL."""
    calls, neg = 0, g(lo) < 0.0
    while hi - lo > _RTOL * lo:
        mid = 0.5 * (lo + hi)
        fm = g(mid)
        calls += 1
        if fm == 0.0:
            return calls
        lo, hi = (mid, hi) if (fm < 0.0) == neg else (lo, mid)
    return calls


@pytest.mark.parametrize("g", [
    lambda x, r: special.jv(np.array([0.0, 1.0, 2.5, 10.0])[r], x),
    lambda x, r: _wave(x, r),
    lambda x, r: _clamped_secular(np.array([0.0, 0.5, 3.0, 7.0])[r], x),
], ids=["bessel", "wave", "clamped"])
def test_smooth_rows_converge_superlinearly(g):
    # bisection takes about 50 calls from a bracket of width 0.25 to float resolution
    roots, calls = _refinement_calls(g, 0.5, 0.25, 4)
    assert calls.max() <= 12, calls
    assert all(abs(g(np.array([z]), np.array([r]))[0]) < 1e-14 for r, z in enumerate(roots))


@pytest.mark.parametrize("g", [
    lambda x: np.where(x < 1.1, -1.0, 1.0),
    lambda x: np.where(x < 1.1, -1e-6, 1e3),
    lambda x: np.where(x < 1.1, -1e3, 1e-6),
    lambda x: (x - 1.1) ** 3,
    lambda x: (x - 1.2499) ** 3,
], ids=["step", "step_low", "step_high", "triple_root", "triple_root_near_end"])
def test_adversarial_rows_take_at_most_one_step_more_than_bisection(g):
    # start and step are dyadic, so the scan bracket [lo, lo + 0.25] is exact
    (root,), (calls,) = _refinement_calls(lambda x, r: g(x), 0.5, 0.25, 1)
    lo = 0.5 + 0.25 * math.floor((root - 0.5) / 0.25)
    assert lo < root < lo + 0.25
    assert calls <= _bisection_calls(g, lo, lo + 0.25) + 1
