"""Two-ball variational problem: secular determinant, J(t) curve, constants."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from eigenineq import specfun, twoball
from eigenineq.balls import BallSpec, clamped_ball, clamped_radial_root
from eigenineq.cli import main, run_constants
from eigenineq.specfun import ConvergenceError
from eigenineq.twoball import (
    TALENTI_D_PRIME,
    J_of_a,
    c_constant,
    curve_table,
    d_constant,
    d_constants,
    secular_det,
)

# full-precision d_n from a scalar solver (one radius at a time, golden
# section for the minimum); the batched zoom must land on the same values
PINNED_D = {
    4: 0.9537969517761561,
    5: 0.9218448809321084,
    6: 0.9077783973811031,
    7: 0.901812062749684,
    8: 0.8998913004582276,
}


def test_endpoints_return_ball_value():
    ball = clamped_ball(BallSpec(2), 1).values[0]
    for a in (0.0, 1.0, 5e-4):
        assert J_of_a(2, a) == ball


def test_det_fixed_sign_below_first_root():
    # below the smallest eigenvalue the determinant never changes sign
    n, a = 2, 0.6
    mu1 = J_of_a(n, a)
    signs = {secular_det(n, a, (f * mu1**0.25) ** 4) > 0.0 for f in np.linspace(0.3, 0.97, 30)}
    assert len(signs) == 1


def test_det_small_at_root():
    # rows are sup-normalized, so the determinant scale is O(1)
    for n, t in [(2, 0.37), (4, 0.5), (5, 0.21)]:
        a = t ** (1.0 / n)
        mu = J_of_a(n, a)
        assert abs(secular_det(n, a, mu)) < 1e-8


def test_symmetry_about_half():
    for n in (2, 3, 4, 6):
        for t in (0.15, 0.3, 0.45):
            j1 = J_of_a(n, t ** (1.0 / n))
            j2 = J_of_a(n, (1.0 - t) ** (1.0 / n))
            assert abs(j1 - j2) <= 1e-7 * j1


def test_limit_toward_clamped_ball():
    # as a -> 1 the small-ball conditions wash out and J approaches the
    # clamped-ball eigenvalue monotonically from above
    ball = clamped_ball(BallSpec(2), 1).values[0]
    js = [J_of_a(2, (1.0 - t) ** 0.5) for t in (0.02, 0.005, 0.002)]
    gaps = [j / ball - 1.0 for j in js]
    assert all(g > 0.0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 0.05


def test_symmetric_point_equals_single_ball_mode():
    # at t = 1/2 the lowest coupled mode is the symmetric one, whose secular
    # equation reduces to J_{n/2-1}(k a) = 0
    for n in (2, 4):
        a = 0.5 ** (1.0 / n)
        expect = (specfun.bessel_zero(n / 2.0 - 1.0, 1) / a) ** 4
        got = J_of_a(n, a)
        assert abs(got - expect) < 1e-7 * expect


def test_c_constants_against_published_values():
    published = {2: 0.7877, 3: 0.7759, 4: 0.7872, 5: 0.8020, 6: 0.8163}
    for n, ref in published.items():
        assert abs(c_constant(n) - ref) < 5e-4
    assert all(c_constant(n) < 1.0 for n in range(2, 12))


def test_c_trend_toward_one():
    cs = [c_constant(n) for n in (5, 8, 12, 20, 50)]
    assert all(a < b for a, b in zip(cs, cs[1:]))
    assert c_constant(50) > c_constant(6)


def test_d_constants_against_published_values():
    for n, ref in [(4, 0.9537), (6, 0.9077)]:
        res = d_constant(n)
        assert abs(res.d_n - ref) < 2e-3
        assert abs(res.minimizer_t - 0.5) < 0.02
    res2 = d_constant(2)
    assert res2.d_n == 1.0
    assert res2.minimizer_t in (0.0, 1.0)


def test_d_curve_samples_and_symmetry():
    res = d_constant(4)
    ts = [t for t, _ in res.curve]
    ratios = dict(res.curve)
    assert ratios[0.0] == 1.0 and ratios[1.0] == 1.0
    for t in ts:
        assert abs(ratios[t] - ratios[1.0 - t]) < 1e-7 * ratios[t]
    assert min(ratios.values()) == pytest.approx(res.d_n, rel=1e-6)


def test_curve_table_endpoints():
    rows = curve_table(2, [0.0, 0.5, 1.0])
    assert rows[0][1] == 1.0 and rows[2][1] == 1.0
    assert rows[1][1] > 1.0  # n=2 minimum sits at the endpoints


def test_reference_d_prime_table():
    assert TALENTI_D_PRIME[2] == 0.9777
    assert set(TALENTI_D_PRIME) == {2, 3, 4}


def test_input_validation():
    with pytest.raises(ValueError):
        J_of_a(2, 1.5)
    with pytest.raises(ValueError):
        secular_det(2, 0.0, 10.0)
    with pytest.raises(ValueError):
        secular_det(2, 0.5, -1.0)
    with pytest.raises(ValueError):
        d_constant(1)
    for n, mu in [(1, 10.0), (np.inf, 10.0), (np.nan, 10.0), (3, np.inf)]:
        with pytest.raises(ValueError):
            secular_det(n, 0.5, mu)


def _scalar_secular_det(n, a, mu):
    # reference: one 4x4 matrix from scalar Bessel calls, rows normalized in a loop
    b = (1.0 - a**n) ** (1.0 / n)
    nu = n / 2.0 - 1.0
    k = mu**0.25
    ja, ja1 = float(special.jv(nu, k * a)), float(special.jv(nu + 1.0, k * a))
    ia, ia1 = float(special.ive(nu, k * a)), float(special.ive(nu + 1.0, k * a))
    jb, jb1 = float(special.jv(nu, k * b)), float(special.jv(nu + 1.0, k * b))
    ib, ib1 = float(special.ive(nu, k * b)), float(special.ive(nu + 1.0, k * b))
    ah, bh = a ** (n - 1.0), b ** (n - 1.0)
    rows = np.array(
        [
            [ja, ia, 0.0, 0.0],
            [0.0, 0.0, jb, ib],
            [-ah * ja1, ah * ia1, bh * jb1, -bh * ib1],
            [-ja, ia, -jb, ib],
        ]
    )
    for row in rows:
        row /= np.max(np.abs(row))
    return float(np.linalg.det(rows))


def test_array_det_matches_scalar_reference():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        k0 = clamped_radial_root(n, 0)
        a = rng.uniform(0.01, 0.99, size=40)
        mu = (k0 * rng.uniform(0.3, 2.5, size=40)) ** 4
        want = np.array([_scalar_secular_det(n, x, m) for x, m in zip(a, mu)])
        got = secular_det(n, a, mu)
        assert got.shape == (40,)
        # rows are sup-normalized, so determinants are O(1); numpy's vector
        # pow may differ from libm's in the last bit
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
        scalar = [secular_det(n, x, m) for x, m in zip(a, mu)]
        assert all(isinstance(v, float) for v in scalar)
        np.testing.assert_allclose(scalar, want, rtol=1e-13, atol=1e-13)
    # a and mu broadcast against each other
    grid = secular_det(4, np.array([[0.3], [0.7]]), np.array([200.0, 400.0, 600.0]))
    assert grid.shape == (2, 3)
    assert grid[1, 2] == pytest.approx(_scalar_secular_det(4, 0.7, 600.0), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize(
    "a, mu",
    [
        ([0.3, 1.0], 10.0),
        ([0.3, 0.0], 10.0),
        ([0.3, np.nan], 10.0),
        (0.3, [10.0, -1.0]),
        (0.3, [10.0, 0.0]),
        (0.3, [np.nan, 10.0]),
        ([0.3, 0.5], [10.0, np.inf]),
    ],
)
def test_array_det_rejects_any_bad_element(a, mu):
    with pytest.raises(ValueError):
        secular_det(3, np.array(a), np.array(mu))


def test_no_sign_change_is_reported(monkeypatch, tmp_path):
    monkeypatch.setattr(twoball, "secular_det", lambda n, a, mu: np.ones(np.broadcast(a, mu).shape))
    with pytest.raises(ConvergenceError):
        J_of_a(4, 0.8)
    with pytest.raises(ConvergenceError):
        d_constant(4)
    # the endpoints are analytic and still succeed
    assert curve_table(4, [0.0, 0.5, 1.0]) == [(0.0, 1.0), (0.5, None), (1.0, 1.0)]
    assert main(["--output-dir", str(tmp_path), "curve", "--n", "4", "--points", "5"]) == 1
    with open(tmp_path / "curve_n4.csv", newline="", encoding="utf-8") as fh:
        status = [row["status"] for row in csv.DictReader(fh)]
    assert status == ["ok", "failed", "failed", "failed", "ok"]


def test_d_constants_pinned():
    for n, ref in PINNED_D.items():
        res = d_constant(n)
        assert res.d_n == pytest.approx(ref, rel=1e-10, abs=0.0)
        assert abs(res.minimizer_t - 0.5) < 1e-4


def test_array_n_det_matches_scalar_loop_bitwise():
    # n = 2 and n = 3 take the exponents 2 and 0.5, which numpy evaluates
    # differently as a scalar than as an element of an exponent array
    rng = np.random.default_rng(11)
    n = rng.integers(2, 9, size=300)
    a = rng.uniform(0.01, 0.99, size=300)
    mu = (np.array([clamped_radial_root(int(m), 0) for m in n]) * rng.uniform(0.3, 2.5, size=300)) ** 4
    want = [secular_det(int(m), float(x), float(u)) for m, x, u in zip(n, a, mu)]
    np.testing.assert_array_equal(secular_det(n, a, mu), want)
    # n broadcasts against a and mu like they do against each other
    grid = secular_det(np.array([[2], [5]]), a[:3], mu[:3])
    assert grid.shape == (2, 3)
    np.testing.assert_array_equal(grid[1], [secular_det(5, float(x), float(u)) for x, u in zip(a[:3], mu[:3])])


def test_batch_equals_one_dimension_at_a_time():
    batch = d_constants(range(8, 1, -1))
    assert list(batch) == list(range(2, 9))
    for n, res in batch.items():
        assert res == d_constant(n)
    for n, ref in PINNED_D.items():
        assert batch[n].d_n == pytest.approx(ref, rel=1e-10, abs=0.0)
    with pytest.raises(ValueError):
        d_constants([4, 1, 6])
    assert d_constants([]) == {}


def test_batch_raises_the_first_failure_of_a_loop_over_n(monkeypatch, tmp_path):
    # n = 7 fails on its t-grid, n = 5 only later, in its first zoom round
    # (no grid point lies in 0.49 < t < 0.4999); a loop over increasing n
    # meets n = 5 first, and so must the batch
    real = twoball.secular_det

    def failing(n, a, mu):
        det = real(n, a, mu)
        n, a = np.broadcast_arrays(n, a)
        t = a**n
        fail = ((n == 7) & (0.1 < t) & (t < 0.9)) | ((n == 5) & (0.49 < t) & (t < 0.4999))
        return np.where(fail, 1.0, det)

    monkeypatch.setattr(twoball, "secular_det", failing)
    with pytest.raises(ConvergenceError, match="n=7 at t=") as seven:
        d_constant(7)
    assert ", 0.5, " in str(seven.value)  # a grid point
    with pytest.raises(ConvergenceError) as first:
        for n in range(2, 9):
            d_constant(n)
    assert str(first.value).startswith("two-ball bracketing failed for n=5 at t=[0.49")
    with pytest.raises(ConvergenceError) as batch:
        d_constants(range(2, 9))
    assert str(batch.value) == str(first.value)
    with pytest.raises(ConvergenceError) as cli:
        main(["--output-dir", str(tmp_path), "constants", "--n", "8,7,6,5,4,3,2"])
    assert str(cli.value) == str(first.value)


def test_constants_solves_all_n_in_few_determinant_calls(monkeypatch, tmp_path):
    # all n share one lockstep batch: about 320 stacked determinants
    calls = []
    real = twoball.secular_det
    monkeypatch.setattr(twoball, "secular_det", lambda n, a, mu: calls.append(1) or real(n, a, mu))
    assert run_constants(range(2, 9), str(tmp_path)) == 0
    assert 0 < len(calls) <= 400


def test_cli_start_does_not_import_scipy_optimize():
    code = (
        "import sys\n"
        "import eigenineq.cli\n"
        "from eigenineq.twoball import d_constant\n"
        "d_constant(4)\n"
        "assert 'scipy.optimize' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy.optimize'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
