"""The lockstep root finder: batches, exact zeros, guards."""

import math

import numpy as np
import pytest

from eigenineq import specfun
from eigenineq.balls import _clamped_roots
from eigenineq.specfun._zeros import ConvergenceError, scan_zeros

# row r: sin(w x) - c; the last row never reaches zero
W = np.array([1.0, 2.3, 0.7, 5.1, 1.0])
C = np.array([0.0, 0.4, -0.9, 0.25, 1.5])


def _wave(x, r):
    return np.sin(W[r] * x) - C[r]


def _name(r):
    return f"row {r}"


@pytest.mark.parametrize("rtol", [4.5e-16, 2.5e-10])
@pytest.mark.parametrize("kmax, bound", [(3, 40.0), (math.inf, 9.0), (2, 9.0)])
def test_rows_solved_together_equal_each_row_alone(rtol, kmax, bound):
    start = np.array([0.5, 0.3, 0.5, 0.2, 0.5])
    step = np.array([0.4, 0.2, 0.9, 0.1, 0.4])
    batch = scan_zeros(_wave, kmax, start, step, _name, bound=bound, rtol=rtol)
    for r in range(W.size):
        alone = scan_zeros(lambda x, _: _wave(x, np.full(x.shape, r)), kmax, start[r], step[r], _name, bound, rtol)
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
    assert 0 not in calls  # the bisection of zero brackets calls nothing


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
    # its root in [0.5, 1.5] and meets it at the second midpoint, 1.25
    roots = [2.0, 1.25]
    seen = []

    def f(x, r):
        seen.extend(x.tolist())
        return np.sign(x - np.take(roots, r))

    assert scan_zeros(f, 1, 0.5, [0.5, 1.0], _name) == [[2.0], [1.25]]
    assert seen.count(1.25) == 1 and seen.count(2.0) == 1  # neither is bisected further


def test_scan_step_guard_raises():
    with pytest.raises(ConvergenceError, match="scan for row 1 took 10000 steps and found 0 roots"):
        scan_zeros(lambda x, r: np.where(r == 0, np.sin(x), 1.0), 1, [0.5, 0.5], 0.1, _name)


def test_bisection_guard_raises():
    # with rtol = 0 a bracket of two adjacent floats never shrinks further
    with pytest.raises(ConvergenceError, match="bisection of row 0 did not converge"):
        scan_zeros(lambda x, r: x * x - 2.0, 1, 0.5, 0.5, _name, rtol=0.0)
