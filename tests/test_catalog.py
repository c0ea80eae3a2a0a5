"""Inequality table rows on closed-form and synthetic spectra."""

import dataclasses
import math
from fractions import Fraction

import pytest

from eigenineq.balls import (
    BallSpec,
    buckling_ball,
    clamped_ball,
    dirichlet_ball,
    neumann_ball_mu1,
    rectangle_spectrum,
)
from eigenineq.catalog import (
    CATALOG,
    DomainSpectra,
    SpectrumTooShort,
    chain_check,
    check,
    evaluate_all,
    hile_yeh_cubic_root,
)
from eigenineq.spectra import ProblemKind, Provenance, Spectrum


def synthetic(kind, values, label="synthetic"):
    return Spectrum(kind, 2, tuple(values), label, Provenance.CLOSED_FORM)


def alone(spectrum, area=1.0):
    """A bundle holding only `spectrum`."""
    return DomainSpectra(spectrum.domain_label, spectrum.dimension, area, **{spectrum.kind.value: spectrum})


@pytest.fixture(scope="module")
def disk_bundle():
    disk = BallSpec(2)
    return DomainSpectra(
        label="disk",
        dimension=2,
        area=math.pi,
        dirichlet=dirichlet_ball(disk, 12),
        neumann=synthetic(ProblemKind.NEUMANN, (0.0, neumann_ball_mu1(disk)), "disk"),
        clamped=clamped_ball(disk, 2),
        buckling=buckling_ball(disk, 2),
    )


class TestMembraneGap:
    def test_ppw_gap_disk_m1(self, disk_bundle):
        r = check("ppw_gap", disk_bundle, 1)
        lam1 = disk_bundle.dirichlet.values[0]
        assert abs(r.lhs / lam1 - 2.5387) < 5e-4
        assert abs(r.rhs / lam1 - 3.0) < 1e-12
        assert r.holds

    def test_yang1_leq_yang2_any_spectrum(self, disk_bundle):
        for m in range(1, 8):
            r1 = check("yang1", disk_bundle, m)
            r2 = check("yang2", disk_bundle, m)
            assert r1.rhs <= r2.rhs + 1e-12 * r2.rhs

    def test_hile_protter_hand_value(self):
        spec = synthetic(ProblemKind.DIRICHLET, (1.0, 2.0, 3.0))
        r = check("hile_protter", alone(spec), 2)
        assert r.lhs == 1.0  # m n / 4
        assert abs(r.rhs - Fraction(5, 2)) < 1e-12  # 1/(3-1) + 2/(3-2)
        assert r.holds

    def test_hile_protter_degenerate_gap(self):
        spec = synthetic(ProblemKind.DIRICHLET, (1.0, 2.0, 2.0))
        r = check("hile_protter", alone(spec), 2)
        assert math.isinf(r.rhs) and r.holds and "degenerate" in r.note

    @pytest.mark.parametrize("id", ["hile_protter", "hile_yeh", "conj_356", "cheb_357"])
    def test_gap_within_round_off_is_degenerate(self, id):
        def report(split):
            if id == "hile_protter":
                return check(id, alone(synthetic(ProblemKind.DIRICHLET, (1.0, 2.0, 2.0 + split))), 2)
            return check(id, alone(synthetic(ProblemKind.CLAMPED, (1.0, 2.0, 2.0 + split))), 2)

        r = report(1e-12)
        assert math.isinf(r.rhs) and r.holds and "degenerate" in r.note
        assert math.isfinite(r.tolerance_used) and r.tolerance_used > 0.0
        r = report(1e-6)
        assert math.isfinite(r.rhs) and r.note == ""

    def test_yang_discriminant_clamped_on_equal_spectrum(self):
        spec = synthetic(ProblemKind.DIRICHLET, (2.0, 2.0 + 1e-10, 2.0 + 2e-10))
        r = check("yang1", alone(spec), 2)
        assert abs(r.rhs - 6.0) < 1e-8  # (1 + 4/n) lambda_1 with zero variance

    def test_spectrum_too_short(self, disk_bundle):
        with pytest.raises(SpectrumTooShort):
            check("ppw_gap", alone(synthetic(ProblemKind.DIRICHLET, (1.0, 2.0))), 2)


class TestMembraneLow:
    def test_brands_square_fraction_oracle(self):
        spec = rectangle_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 3)
        r = check("brands", alone(spec))
        # separable integers: lambda proportional to (2, 5, 5)
        want_lhs = Fraction(5 + 5, 2)
        want_rhs = Fraction(5, 1) + Fraction(2, 5)
        assert abs(r.lhs - want_lhs) < 1e-12
        assert abs(r.rhs - want_rhs) < 1e-12
        assert r.holds

    def test_sum_n4_square(self):
        spec = rectangle_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 3)
        r = check("sum_n4", alone(spec))
        assert r.holds and abs(r.lhs - 5.0) < 1e-12 and r.rhs == 6.0

    def test_l3_window_sqrt8_sqrt3(self):
        spec = rectangle_spectrum(math.sqrt(8.0), math.sqrt(3.0), ProblemKind.DIRICHLET, 3)
        r = check("l3_window", alone(spec))
        assert abs(r.lhs - Fraction(35, 11)) < 1e-12
        assert r.rhs == 3.83103 and r.holds
        assert "window" in r.note

    def test_l2l3_window_disk_attains_lower_end(self, disk_bundle):
        r = check("l2l3_window", disk_bundle)
        assert abs(r.lhs - 5.077) < 1e-2
        assert r.status == "conjecture"

    @pytest.mark.parametrize("id,n", [("l2l3_window", 3), ("l3_window", 3), ("rayleigh_plate", 4),
                                      ("polya_dirichlet", 3), ("polya_neumann", 3)])
    def test_window_rejects_wrong_dimension(self, id, n):
        # every spectrum is present and long enough, so only the dimension can reject
        ball = BallSpec(n)
        bundle = DomainSpectra(
            f"ball{n}", n, 1.0,
            dirichlet=dirichlet_ball(ball, 4),
            neumann=Spectrum(ProblemKind.NEUMANN, n, (0.0, 1.0, 2.0, 3.0), f"ball{n}", Provenance.CLOSED_FORM),
            clamped=clamped_ball(ball, 2),
        )
        with pytest.raises(ValueError, match="dimension"):
            check(id, bundle, None if CATALOG[id].per is None else 1)


class TestIsoperimetric:
    def test_disk_equality_cases(self, disk_bundle):
        for iid in ("faber_krahn", "szego_weinberger", "ppw_ratio", "fixed_lambda1",
                    "payne_buckling", "rayleigh_plate", "polya_szego_buckling"):
            r = check(iid, disk_bundle)
            assert r.holds
            assert abs(r.slack) <= max(r.tolerance_used, 1e-9 * abs(r.rhs)), iid

    def test_square_strict_cases(self):
        square = DomainSpectra(
            "unit_square", 2, 1.0,
            dirichlet=rectangle_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 4),
            neumann=rectangle_spectrum(1.0, 1.0, ProblemKind.NEUMANN, 4),
        )
        r = check("faber_krahn", square)
        # 2 pi^2 > pi j_{0,1}^2
        assert abs(r.rhs - 2.0 * math.pi**2) < 1e-12
        assert abs(r.lhs - math.pi * 5.783185962946785) < 1e-9
        assert r.slack > 1.0
        r = check("szego_weinberger", square)
        assert r.holds and r.slack > 0.5

    def test_krahn_l2_disk_strict(self, disk_bundle):
        r = check("krahn_l2", disk_bundle)
        assert r.holds and r.slack > 1.0  # saturated only by two disjoint balls

    def test_bramble_payne_uses_c2(self, disk_bundle):
        r = check("bramble_payne", disk_bundle)
        lam1_ball = disk_bundle.buckling.values[0]
        assert abs(r.lhs - 0.7877 * lam1_ball) < 1e-3 * lam1_ball
        assert r.holds

    def test_missing_spectrum_raises(self):
        empty = DomainSpectra("nothing", 2, 1.0)
        with pytest.raises(SpectrumTooShort):
            check("faber_krahn", empty)


class TestPlate:
    def test_cubic_roots_published(self):
        assert abs(hile_yeh_cubic_root(2) - 7.103) < 1e-3
        assert abs(hile_yeh_cubic_root(3) - 4.792) < 1e-3

    def test_cubic_root_solves_equation(self):
        for n in (2, 3, 5, 9):
            x = hile_yeh_cubic_root(n)
            assert x > 1.0
            assert abs((x - 1.0) ** 3 - 512.0 * x / (n * n * (n + 2.0))) < 1e-9 * x

    def test_clamped_ball_ratio_below_cubic(self, disk_bundle):
        r = check("hile_yeh_cubic", disk_bundle)
        assert abs(r.lhs - 4.3311) < 1e-3
        assert abs(r.rhs - 7.103) < 1e-3
        assert r.holds

    def test_sum_plate_saturates_extreme_profile(self):
        spec = synthetic(ProblemKind.CLAMPED, (1.0, 1.0, 25.0))
        r = check("sum_plate", alone(spec))
        assert abs(r.lhs - 26.0) < 1e-12 and r.rhs == 26.0 and r.holds
        r = check("sum_plate_sqrt", alone(spec))
        assert abs(r.lhs - 6.0) < 1e-12 and r.rhs == 6.0 and r.holds

    def test_gap_bounds_on_ball(self, disk_bundle):
        for iid in ("ppw_plate_gap", "ppw_plate_gap_sqrt", "hile_yeh", "cheb_357", "ratio_165"):
            r = check(iid, disk_bundle, 1)
            assert r.holds, iid


class TestBuckling:
    def test_rhs_values(self, disk_bundle):
        r = check("hile_yeh_buckling", disk_bundle)
        assert r.rhs == 2.5
        assert abs(r.lhs - 1.796) < 1e-2
        assert r.holds
        r4 = check("ppw_buckling", alone(Spectrum(ProblemKind.BUCKLING, 4, (1.0, 1.5), "ball4", Provenance.CLOSED_FORM)))
        assert r4.rhs == 2.0

    def test_sum_buckling_needs_n_plus_one(self, disk_bundle):
        spec = synthetic(ProblemKind.BUCKLING, (1.0, 1.5, 1.6))
        r = check("sum_buckling", alone(spec))
        assert abs(r.lhs - 3.1) < 1e-12 and r.rhs == 6.0
        with pytest.raises(SpectrumTooShort):
            check("sum_buckling", alone(synthetic(ProblemKind.BUCKLING, (1.0, 1.5))))


class TestPolya:
    def test_square_k1(self):
        spec = rectangle_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 2)
        r = check("polya_dirichlet", alone(spec), 1)
        assert abs(r.lhs - 4.0 * math.pi) < 1e-12
        assert abs(r.rhs - 2.0 * math.pi**2) < 1e-12
        assert r.holds

    def test_neumann_k0_equality(self):
        spec = rectangle_spectrum(1.0, 1.0, ProblemKind.NEUMANN, 3)
        r = check("polya_neumann", alone(spec), 0)
        assert r.m == 0 and r.lhs == 0.0 and r.rhs == 0.0 and r.holds

    def test_disk_k_to_10(self, disk_bundle):
        reports = [check("polya_dirichlet", disk_bundle, k) for k in range(1, 11)]
        assert len(reports) == 10 and all(r.holds for r in reports)


class TestChain:
    def test_disk_ordering_all_m(self, disk_bundle):
        for m in range(1, 6):
            ch = chain_check(disk_bundle, m)
            assert ch.ordering_ok and ch.implications_ok

    def test_m1_bounds_collapse(self, disk_bundle):
        ch = chain_check(disk_bundle, 1)
        lam1 = disk_bundle.dirichlet.values[0]
        assert abs(ch.bound_yang1 - 3.0 * lam1) < 1e-10
        assert abs(ch.bound_yang2 - 3.0 * lam1) < 1e-10
        assert abs(ch.bound_ppw - 3.0 * lam1) < 1e-10


class TestEvaluateAll:
    def test_conjecture_failure_does_not_raise(self):
        # a spectrum crafted to violate the Polya Neumann conjecture
        bundle = DomainSpectra(
            "weird", 2, 1.0,
            neumann=synthetic(ProblemKind.NEUMANN, (0.0, 50.0, 60.0), "weird"),
        )
        reports = evaluate_all(bundle, m_max=2, k_max=2)
        polya = [r for r in reports if r.id == "polya_neumann"]
        assert any(not r.holds for r in polya)
        assert all(r.status == "conjecture" for r in polya)

    def test_every_catalog_id_reported_on_full_bundle(self, disk_bundle):
        reports = evaluate_all(disk_bundle, m_max=5)
        seen = {r.id for r in reports}
        # the trace bounds need n+1 = 3 entries; the closed-form ball
        # clamped/buckling spectra stop at 2, so they are rightly skipped
        assert seen == set(CATALOG) - {"sum_plate", "sum_plate_sqrt", "sum_buckling"}

    def test_ids_filter(self, disk_bundle):
        reports = evaluate_all(disk_bundle, m_max=3, ids=["faber_krahn", "yang1"])
        assert {r.id for r in reports} == {"faber_krahn", "yang1"}

    def test_deterministic(self, disk_bundle):
        a = evaluate_all(disk_bundle, m_max=4)
        b = evaluate_all(disk_bundle, m_max=4)
        assert a == b

    def test_every_report_carries_the_bundle_label(self, disk_bundle):
        # the closed-form ball spectra are labelled "ball(n=2, R=1)"
        assert disk_bundle.dirichlet.domain_label != "disk"
        assert {r.domain for r in evaluate_all(disk_bundle, m_max=5)} == {"disk"}
        assert chain_check(disk_bundle, 1).domain == "disk"

    def test_tolerance_sums_the_allowances_of_the_spectra_read(self, disk_bundle, monkeypatch):
        a_d, a_n = 1e-3, 3e-4
        bundle = dataclasses.replace(disk_bundle,
                                     dirichlet=dataclasses.replace(disk_bundle.dirichlet, allowance=a_d),
                                     neumann=dataclasses.replace(disk_bundle.neumann, allowance=a_n))
        # faber_krahn reads only the Dirichlet spectrum
        r = check("faber_krahn", bundle)
        assert r.tolerance_used == pytest.approx((1e-9 + 2.0 * a_d) * max(abs(r.lhs), abs(r.rhs)), rel=1e-12)

        # a formula reading both membrane spectra pays both allowances
        def both(values, n, m, area):
            return values("neumann", 2)[1], values("dirichlet", 1)[0]

        monkeypatch.setitem(CATALOG, "faber_krahn", dataclasses.replace(CATALOG["faber_krahn"], formula=both))
        for r in (check("faber_krahn", bundle), *evaluate_all(bundle, m_max=1, ids=["faber_krahn"])):
            scale = max(abs(r.lhs), abs(r.rhs))
            assert r.tolerance_used == pytest.approx((1e-9 + 2.0 * (a_d + a_n)) * scale, rel=1e-12)

    def test_index_must_match_the_row(self, disk_bundle):
        with pytest.raises(ValueError, match="no index"):
            check("faber_krahn", disk_bundle, 1)
        with pytest.raises(ValueError, match="an index m"):
            check("ppw_gap", disk_bundle)
