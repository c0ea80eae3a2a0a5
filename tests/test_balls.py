"""Closed-form ball and rectangle spectra against published ratios and oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from eigenineq import balls, specfun
from eigenineq.balls import (
    BallSpec,
    buckling_ball,
    clamped_ball,
    clamped_radial_root,
    dirichlet_ball,
    harmonic_multiplicity,
    neumann_ball_mu1,
    rectangle_spectrum,
    unit_ball_volume,
)
from eigenineq.spectra import ProblemKind, Provenance


def test_unit_ball_volume():
    assert abs(unit_ball_volume(2) - math.pi) < 1e-15
    assert abs(unit_ball_volume(3) - 4.0 * math.pi / 3.0) < 1e-14
    assert abs(unit_ball_volume(4) - math.pi**2 / 2.0) < 1e-14


def test_harmonic_multiplicity():
    assert [harmonic_multiplicity(2, ell) for ell in range(4)] == [1, 2, 2, 2]
    assert [harmonic_multiplicity(3, ell) for ell in range(4)] == [1, 3, 5, 7]
    assert harmonic_multiplicity(4, 2) == 9


def test_disk_dirichlet_values_and_ratio():
    s = dirichlet_ball(BallSpec(2), 3)
    assert s.provenance is Provenance.CLOSED_FORM
    assert abs(s.values[0] - 5.78319) < 1e-4
    assert abs(s.values[1] / s.values[0] - 2.5387) < 5e-4
    assert abs((s.values[1] + s.values[2]) / s.values[0] - 5.077) < 1e-2


def test_first_excited_multiplicity_is_n():
    for n in (2, 3, 4):
        s = dirichlet_ball(BallSpec(n), n + 2)
        first_excited = s.values[1]
        assert all(abs(v - first_excited) < 1e-12 * first_excited for v in s.values[1 : n + 1])
        assert s.values[n + 1] > first_excited * (1.0 + 1e-9)


def test_dirichlet_scaling():
    s1 = dirichlet_ball(BallSpec(2, 1.0), 5)
    s2 = dirichlet_ball(BallSpec(2, 2.0), 5)
    for a, b in zip(s1.values, s2.values):
        assert abs(a - 4.0 * b) < 1e-10 * a


def test_neumann_mu1():
    mu = neumann_ball_mu1(BallSpec(2))
    assert abs(mu - 3.38996) < 1e-4
    assert abs(neumann_ball_mu1(BallSpec(2, 2.0)) - mu / 4.0) < 1e-12
    lam1 = dirichlet_ball(BallSpec(2), 1).values[0]
    assert mu < lam1


def test_clamped_ratios_match_published_values():
    c2 = clamped_ball(BallSpec(2), 2)
    assert abs(c2.values[1] / c2.values[0] - 4.3311) < 1e-3
    c3 = clamped_ball(BallSpec(3), 2)
    assert abs(c3.values[1] / c3.values[0] - 3.2390) < 1e-3


def _assert_spectrum(values, expected, rel):
    assert len(values) == len(expected)
    for got, want in zip(values, expected):
        assert abs(got - want) <= rel * want, (values, expected)


def test_full_disk_clamped_spectrum():
    # lambda^2 = sqrt(Gamma) of the clamped disk (Leissa, Vibration of Plates, 1969)
    lam2 = [10.2158, 21.2604, 21.2604, 34.8770, 34.8770, 39.7711]
    s = clamped_ball(BallSpec(2), 6)
    _assert_spectrum([math.sqrt(v) for v in s.values], lam2, 1e-5)
    assert s.values[1] == s.values[2] and s.values[3] == s.values[4]


def test_full_disk_buckling_spectrum():
    # Lambda = j^2 over the families J_{1+l}: j_11, j_21 x2, j_31 x2, j_12, j_41 x2
    zeros = [(1, 1), (2, 1), (2, 1), (3, 1), (3, 1), (1, 2), (4, 1), (4, 1)]
    expected = [float(mpmath.besseljzero(v, k)) ** 2 for v, k in zeros]
    _assert_spectrum(buckling_ball(BallSpec(2), 8).values, expected, 1e-13)


def test_second_plate_mode_has_multiplicity_n():
    for ball in (clamped_ball, buckling_ball):
        v = ball(BallSpec(3), 5).values
        assert v[1] == v[2] == v[3]
        assert v[0] < v[1] and v[4] > v[1] * (1.0 + 1e-9)


def test_grid_disk_clamped_spectrum_matches_closed_form(corpus_bundles):
    # the README's 3% tolerance for plate quantities on curved domains
    grid = corpus_bundles["disk"].clamped.values
    _assert_spectrum(grid, clamped_ball(BallSpec(2), len(grid)).values, 0.03)


def _radial_root_cases():
    for v in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        for k in range(1, 7):
            yield f"j_{v},{k}", specfun.bessel_zeros(v, kmax=k)[k - 1], lambda x, v=v: mpmath.besselj(v, x)
    for n in range(2, 9):
        for ell in (0, 1, 2) if n == 2 else (0, 1):
            nu = n / 2.0 - 1.0 + ell
            yield f"clamped n={n} l={ell}", clamped_radial_root(n, ell), lambda x, nu=nu: (
                mpmath.besselj(nu, x) * mpmath.besseli(nu + 1, x) + mpmath.besseli(nu, x) * mpmath.besselj(nu + 1, x)
            )
    for n in range(2, 6):
        nu = n / 2.0
        yield f"neumann n={n}", specfun.bessel_j_deriv_zero(nu, 1), lambda x, nu=nu: (
            mpmath.besselj(nu - 1, x) - (2 * nu - 1) / x * mpmath.besselj(nu, x)
        )


def test_radial_roots_to_float_resolution():
    # each root within 1e-15 relative of mpmath's root of the same equation, polished from it
    with mpmath.workdps(30):
        errs = {name: abs(got / mpmath.findroot(f, got) - 1) for name, got, f in _radial_root_cases()}
    worst = max(errs, key=errs.get)
    assert errs[worst] <= 1e-15, (worst, float(errs[worst]))


def test_clamped_scaling_fourth_order():
    g1 = clamped_ball(BallSpec(2, 1.0), 1).values[0]
    g2 = clamped_ball(BallSpec(2, 2.0), 1).values[0]
    assert abs(g1 - 16.0 * g2) < 1e-9 * g1


def test_buckling_values_and_payne_equality():
    b = buckling_ball(BallSpec(2), 2)
    assert abs(b.values[1] / b.values[0] - 1.796) < 1e-2
    # Lambda_1(ball) equals lambda_2(ball): identical zero through identical code
    d = dirichlet_ball(BallSpec(2), 2)
    assert b.values[0] == d.values[1]
    assert abs(buckling_ball(BallSpec(2, 2.0), 1).values[0] - b.values[0] / 4.0) < 1e-12


def test_buckling_formula_from_volume():
    # Lambda_1(ball of volume V) = (C_n / V)^(2/n) j_{n/2,1}^2
    for n in (2, 3, 5):
        spec = BallSpec(n, 1.37)
        lam = buckling_ball(spec, 1).values[0]
        pred = (unit_ball_volume(n) / spec.volume) ** (2.0 / n) * specfun.bessel_zeros(n / 2.0, kmax=1)[0] ** 2
        assert abs(lam - pred) < 1e-10 * lam


def test_rectangle_exact_ratio():
    s = rectangle_spectrum(math.sqrt(8.0), math.sqrt(3.0), ProblemKind.DIRICHLET, 3)
    assert abs(s.values[2] / s.values[0] - Fraction(35, 11)) < 1e-12


def test_rectangle_brute_force_enumeration():
    a, b = 1.3, 0.7
    s = rectangle_spectrum(a, b, ProblemKind.DIRICHLET, 25)
    brute = sorted(
        math.pi**2 * (p * p / a**2 + q * q / b**2) for p in range(1, 40) for q in range(1, 40)
    )[:25]
    for got, ref in zip(s.values, brute):
        assert abs(got - ref) < 1e-12 * ref


def test_thin_rectangle_takes_its_whole_first_row():
    # every one of the 12 smallest values has q = 1, so p runs up to 12 = count
    s = rectangle_spectrum(1.0, 0.01, ProblemKind.DIRICHLET, 12)
    assert s.values == tuple(math.pi**2 * (p * p / 1.0 + 1.0 / 0.01**2) for p in range(1, 13))


def test_unit_square_and_neumann_zero_mode():
    s = rectangle_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 1)
    assert abs(s.values[0] - 2.0 * math.pi**2) < 1e-12
    n = rectangle_spectrum(1.0, 1.0, ProblemKind.NEUMANN, 4)
    assert n.values[0] == 0.0
    assert abs(n.values[1] - math.pi**2) < 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        dirichlet_ball(BallSpec(2), 0)
    with pytest.raises(ValueError):
        clamped_ball(BallSpec(2), 0)
    with pytest.raises(ValueError):
        BallSpec(1)
    for bad in (3.0, 2.5, True):  # a float dimension would otherwise fail later, in harmonic_multiplicity
        with pytest.raises(ValueError, match="dimension"):
            BallSpec(bad)
    assert dirichlet_ball(BallSpec(np.int64(3)), 5) == dirichlet_ball(BallSpec(3), 5)
    with pytest.raises(ValueError):
        BallSpec(2, -1.0)
    with pytest.raises(ValueError):
        rectangle_spectrum(1.0, 1.0, ProblemKind.CLAMPED, 2)


def test_clamped_roots_check_orders_before_scanning(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("scanned a bad order")

    monkeypatch.setattr(balls, "scan_zeros", scan)
    with pytest.raises(ValueError, match="order"):
        balls._clamped_roots(np.array([0.0, 1.5, -0.5]), kmax=1)


def test_cold_ball_spectra_take_few_root_function_calls(monkeypatch):
    # n = 2..8 with Dirichlet 12, clamped 9, buckling 9 and mu_1 from empty
    # caches: the scans plus about 10 ITP steps per root, where bisection
    # took about 50
    calls = []
    real = balls.scan_zeros

    def counting(f, *args, **kwargs):
        return real(lambda x, r: calls.append(1) or f(x, r), *args, **kwargs)

    monkeypatch.setattr(balls, "scan_zeros", counting)
    monkeypatch.setattr(specfun, "scan_zeros", counting)
    balls._unit_roots.cache_clear()
    for n in range(2, 9):
        spec = BallSpec(n)
        for spectrum, count in ((dirichlet_ball, 12), (clamped_ball, 9), (buckling_ball, 9)):
            spectrum(spec, count)
        neumann_ball_mu1(spec)
    assert 0 < len(calls) <= 1_600
