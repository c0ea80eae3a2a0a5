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
    c_constants,
    curve_table,
    d_constant,
    d_constants,
    secular_det,
)

# d_n with every root at float resolution. The minimum sits at t = 1/2,
# where J is the single-ball mode (j_{n/2-1,1} / a)^4 with a^n = 1/2, so
# d_n = 2^(4/n) (j_{n/2-1,1} / k0)^4; mpmath evaluates that to within 5e-16
# of these values
PINNED_D = {
    4: 0.9537969515953614,
    5: 0.9218448809134066,
    6: 0.9077783974601962,
    7: 0.9018120627554547,
    8: 0.8998913003974186,
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
        expect = (specfun.bessel_zeros(n / 2.0 - 1.0, kmax=1)[0] / a) ** 4
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
    # d_constant mirrors its solved half onto t > 1/2; curve_table solves
    # every t, so it checks the symmetry J(t) = J(1 - t) independently
    res = d_constant(4)
    ts = [t for t, _ in res.curve]
    assert len(ts) == 65
    ratios = dict(res.curve)
    assert ratios[0.0] == 1.0 and ratios[1.0] == 1.0
    direct = curve_table(4, ts)
    assert [t for t, _ in direct] == ts
    np.testing.assert_allclose([r for _, r in res.curve], [r for _, r in direct], rtol=1e-13, atol=0.0)
    assert min(ratios.values()) == res.d_n


def test_d_n_equals_the_equal_balls_closed_form():
    # the minimum sits at the solved grid point t = 1/2, where
    # d_n = 2^(4/n) (j_{n/2-1,1} / k0)^4
    for n in range(4, 9):
        j = specfun.bessel_zeros(n / 2.0 - 1.0, kmax=1)[0]
        closed = 2.0 ** (4.0 / n) * (j / clamped_radial_root(n, 0)) ** 4
        assert d_constant(n).d_n == pytest.approx(closed, rel=1e-14, abs=0.0)


def test_navier_bound_holds_and_is_met_at_half(monkeypatch):
    # dropping the flux condition leaves two hinged balls, so every root
    # k(t) >= j / max(a, b), with equality at t = 1/2. The scans start just
    # below that bound, in steps that cannot straddle the two close roots
    # of a large n (n = 68, t = 0.484: 39.677 and 40.410)
    seen = []
    real = twoball._J_many

    def recording(n, a, k0):
        js = real(n, a, k0)
        seen.append(np.broadcast_arrays(n, a, js))
        return js

    monkeypatch.setattr(twoball, "_J_many", recording)
    ns = (4, 8, 40, 68, 100, 140, 200)
    batch = d_constants(ns)
    (n, a, js), = seen
    for m in ns:
        j = specfun.bessel_zeros(m / 2.0 - 1.0, kmax=1)[0]
        res = batch[m]
        assert res.minimizer_t == 0.5
        closed = 2.0 ** (4.0 / m) * (j / clamped_radial_root(m, 0)) ** 4
        assert res.d_n == pytest.approx(closed, rel=1e-12, abs=0.0)
        sel = (n == m) & (a > 0.0)
        b = (1.0 - a[sel] ** m) ** (1.0 / m)
        k = js[sel] ** 0.25
        assert (k >= (1.0 - 1e-14) * j / np.maximum(a[sel], b)).all()


def test_c_constants_batch_equals_one_n_at_a_time():
    one = {n: c_constant(n) for n in range(2, 12)}
    assert c_constants(range(2, 12)) == one
    batch = c_constants([11, 4, 2, 11, 7, 3, 4, 10, 9, 8, 6, 5, 2])
    assert list(batch) == list(range(2, 12))
    assert batch == one
    assert c_constants([]) == {}
    with pytest.raises(ValueError):
        c_constants([1])
    with pytest.raises(ValueError):
        c_constant(1)


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


def test_a_determinant_underflowing_at_the_scan_start_is_a_failure(tmp_path):
    # for large n secular_det is exactly 0 at the scan start, 1e-3 below the
    # Navier bound, where no root lies; that start used to come back as the
    # eigenvalue, (1 - 1e-3)^4 times the bound
    assert curve_table(1622, [1e-4]) == [(1e-4, None)]
    assert curve_table(1500, [1e-200]) == [(1e-200, None)]
    with pytest.raises(ConvergenceError, match=r"^two-ball bracketing failed for n=1623 at t=\["):
        d_constants([1623])
    assert main(["--output-dir", str(tmp_path), "curve", "--n", "2000", "--points", "3"]) == 1
    with open(tmp_path / "curve_n2000.csv", newline="", encoding="utf-8") as fh:
        assert [row["status"] for row in csv.DictReader(fh)] == ["ok", "failed", "ok"]


def test_d_constants_pinned():
    for n, ref in PINNED_D.items():
        res = d_constant(n)
        assert res.d_n == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert res.minimizer_t == 0.5


def test_d_n_is_the_smallest_J_evaluated(monkeypatch):
    # every n's t-grid is one _J_many batch, and d_n is the smallest value
    # it holds: for n >= 4 the grid point t = 1/2, the exact minimizer
    seen = []
    real = twoball._J_many

    def recording(n, a, k0):
        js = real(n, a, k0)
        seen.append((np.broadcast_to(n, js.shape), js))
        return js

    monkeypatch.setattr(twoball, "_J_many", recording)
    batch = d_constants(range(4, 9))
    assert len(seen) == 1
    ns = np.concatenate([np.ravel(n) for n, _ in seen])
    js = np.concatenate([np.ravel(j) for _, j in seen])
    for n, res in batch.items():
        assert (js[ns == n] / res.ball_value >= res.d_n).all()


def test_d_constants_solve_only_the_half_grid(monkeypatch):
    # J(t) = J(1 - t), so one _J_many batch solves t = 0, 1/64, ..., 1/2 of
    # every n and the 65-point curve mirrors it
    seen = []
    real = twoball._J_many

    def recording(n, a, k0):
        seen.append(np.broadcast(n, a, k0).shape)
        return real(n, a, k0)

    monkeypatch.setattr(twoball, "_J_many", recording)
    batch = d_constants(range(2, 9))
    assert seen == [(7, 33)]
    for res in batch.values():
        ts = [t for t, _ in res.curve]
        assert ts == np.linspace(0.0, 1.0, 65).tolist()
        assert [r for _, r in res.curve[32:]] == [r for _, r in res.curve[32::-1]]


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
        assert batch[n].d_n == pytest.approx(ref, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        d_constants([4, 1, 6])
    assert d_constants([]) == {}


def test_batch_raises_the_first_failure_of_a_loop_over_n(monkeypatch, tmp_path, capsys):
    # n = 7 fails on most of its t-grid, n = 5 on its one grid point
    # t = 0.3125 in 0.30 < t < 0.32; a loop over increasing n meets n = 5
    # first, and so must the batch
    real = twoball.secular_det

    def failing(n, a, mu):
        det = real(n, a, mu)
        n, a = np.broadcast_arrays(n, a)
        t = a**n
        fail = ((n == 7) & (0.1 < t) & (t < 0.9)) | ((n == 5) & (0.30 < t) & (t < 0.32))
        return np.where(fail, 1.0, det)

    monkeypatch.setattr(twoball, "secular_det", failing)
    with pytest.raises(ConvergenceError, match="n=7 at t=") as seven:
        d_constant(7)
    assert str(seven.value).endswith(", 0.5]")  # the last solved grid point
    with pytest.raises(ConvergenceError) as first:
        for n in range(2, 9):
            d_constant(n)
    assert str(first.value) == "two-ball bracketing failed for n=5 at t=[0.3125]"
    with pytest.raises(ConvergenceError) as batch:
        d_constants(range(2, 9))
    assert str(batch.value) == str(first.value)
    capsys.readouterr()
    assert main(["--output-dir", str(tmp_path), "constants", "--n", "8,7,6,5,4,3,2"]) == 2
    assert capsys.readouterr().err == f"error: {first.value}\n"


def test_minimum_off_the_known_minimizers_is_an_error(monkeypatch, tmp_path, capsys):
    # a smooth J with its minimum at the grid point t = 0.25, where the grid
    # value could overstate d_n, must not pass as a constant
    monkeypatch.setattr(twoball, "_J_many", lambda n, a, k0: k0**4 * (1.0 + (a**n - 0.25) ** 2))
    with pytest.raises(ConvergenceError, match=r"n=4 at t=0\.25,"):
        d_constants([4])
    assert main(["--output-dir", str(tmp_path), "constants", "--n", "4"]) == 2
    assert "n=4 at t=0.25," in capsys.readouterr().err


def test_constants_solves_all_n_in_few_determinant_calls(monkeypatch, tmp_path):
    # all n share one lockstep batch of their 7 x 32 scanned radii of the
    # half grid t <= 1/2 (t = 0 is analytic), each started at its Navier
    # bound: 25 determinant calls on 3,335 rows; the Navier starts and
    # every c_n come from one Bessel-zero batch
    calls = []
    real = twoball.secular_det

    def counting(n, a, mu):
        calls.append(np.broadcast(n, a, mu).size)
        return real(n, a, mu)

    zero_calls = []
    real_zeros = specfun.bessel_zeros

    def counting_zeros(*args, **kwargs):
        zero_calls.append(args)
        return real_zeros(*args, **kwargs)

    monkeypatch.setattr(twoball, "secular_det", counting)
    monkeypatch.setattr(specfun, "bessel_zeros", counting_zeros)
    twoball._first_zeros.cache_clear()  # a cold start, as in a `constants` process
    assert run_constants(range(2, 9), str(tmp_path)) == 0
    assert 0 < len(calls) <= 25
    assert sum(calls) <= 3_400
    assert len(zero_calls) == 1


def test_two_ball_root_is_bracketed_within_four_ulps():
    # the scan variable is k = mu^(1/4), and every root is refined to float resolution
    k = J_of_a(4, 0.6) ** 0.25
    lo, hi = k, k
    for _ in range(4):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
    assert secular_det(4, 0.6, lo**4) * secular_det(4, 0.6, hi**4) < 0.0


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
