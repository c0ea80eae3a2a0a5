"""Inequality knowledge base: every bound as a checkable predicate.

Each report is oriented so slack = rhs - lhs is nonnegative exactly when
the inequality holds. Closed-form spectra are checked at 1e-9 relative;
discrete spectra widen the tolerance by their declared Richardson
allowance (doubled, since the two sides err independently).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .balls import BallSpec, buckling_ball, clamped_ball, dirichlet_ball, neumann_ball_mu1, unit_ball_volume
from .spectra import Spectrum
from .twoball import c_constant, d_constant

PROVEN = "proven"
CONJECTURE = "conjecture"

_INF = float("inf")


@dataclass(frozen=True)
class InequalityDef:
    id: str
    status: str
    family: str
    citation: str
    needs: tuple[str, ...]  # spectra the evaluator consumes
    per_m: bool = False
    dims: tuple[int, ...] | None = None  # None = any dimension


@dataclass(frozen=True)
class InequalityReport:
    id: str
    domain: str
    m: int | None
    lhs: float
    rhs: float
    slack: float
    holds: bool
    tolerance_used: float
    status: str
    citation: str
    note: str = ""


@dataclass(frozen=True)
class DomainSpectra:
    """Everything the catalog may need about one domain."""

    label: str
    dimension: int
    area: float
    dirichlet: Spectrum | None = None
    neumann: Spectrum | None = None
    clamped: Spectrum | None = None
    buckling: Spectrum | None = None

    def get(self, kind_name):
        return getattr(self, kind_name)


CATALOG = {
    d.id: d
    for d in [
        # universal membrane gap bounds
        InequalityDef("ppw_gap", PROVEN, "membrane_gap",
                      "Payne, Polya & Weinberger (1956), n-dimensional form", ("dirichlet",), per_m=True),
        InequalityDef("yang1", PROVEN, "membrane_gap",
                      "H.C. Yang (1991), first inequality", ("dirichlet",), per_m=True),
        InequalityDef("yang2", PROVEN, "membrane_gap",
                      "H.C. Yang (1991), second inequality", ("dirichlet",), per_m=True),
        InequalityDef("hile_protter", PROVEN, "membrane_gap",
                      "Hile & Protter (1980)", ("dirichlet",), per_m=True),
        InequalityDef("ratio_gap_membrane", CONJECTURE, "membrane_gap",
                      "PPW ratio conjecture: lambda_{m+1}/lambda_m vs the ball constant",
                      ("dirichlet",), per_m=True),
        # low membrane eigenvalues
        InequalityDef("sum_n4", PROVEN, "membrane_low",
                      "Payne, Polya & Weinberger (1956) trace bound", ("dirichlet",)),
        InequalityDef("brands", PROVEN, "membrane_low",
                      "Brands (1964), n-dimensional extension", ("dirichlet",)),
        InequalityDef("l2l3_window", CONJECTURE, "membrane_low",
                      "(lambda_2+lambda_3)/lambda_1 window, Ashbaugh & Benguria range study",
                      ("dirichlet",), dims=(2,)),
        InequalityDef("l3_window", CONJECTURE, "membrane_low",
                      "lambda_3/lambda_1 window, Ashbaugh & Benguria range study",
                      ("dirichlet",), dims=(2,)),
        # isoperimetric family
        InequalityDef("faber_krahn", PROVEN, "isoperimetric",
                      "Rayleigh's conjecture; Faber (1923), Krahn (1925)", ("dirichlet",)),
        InequalityDef("szego_weinberger", PROVEN, "isoperimetric",
                      "Szego (1954), Weinberger (1956)", ("neumann",)),
        InequalityDef("ppw_ratio", PROVEN, "isoperimetric",
                      "PPW conjecture; Ashbaugh & Benguria (1992)", ("dirichlet",)),
        InequalityDef("fixed_lambda1", PROVEN, "isoperimetric",
                      "fixed-lambda_1 comparison; Ashbaugh & Benguria", ("dirichlet",)),
        InequalityDef("payne_buckling", PROVEN, "isoperimetric",
                      "Payne (1955): Lambda_1 >= lambda_2", ("dirichlet", "buckling")),
        InequalityDef("krahn_l2", PROVEN, "isoperimetric",
                      "Krahn (1926) lambda_2 bound", ("dirichlet",)),
        InequalityDef("bramble_payne", PROVEN, "isoperimetric",
                      "Bramble & Payne (1963); constants c_n", ("buckling",)),
        InequalityDef("rayleigh_plate", PROVEN, "isoperimetric",
                      "plate conjecture, n=2 Nadirashvili (1992), n=2,3 Ashbaugh & Benguria (1995)",
                      ("clamped",), dims=(2, 3)),
        InequalityDef("clamped_lower_dn", PROVEN, "isoperimetric",
                      "two-ball lower bound with constants d_n; Ashbaugh & Laugesen", ("clamped",)),
        InequalityDef("polya_szego_buckling", CONJECTURE, "isoperimetric",
                      "Polya & Szego buckling conjecture (c. 1950)", ("buckling",)),
        # clamped plate universal bounds
        InequalityDef("ppw_plate_gap", PROVEN, "plate",
                      "Payne, Polya & Weinberger (1956), plate analog", ("clamped",), per_m=True),
        InequalityDef("ppw_plate_gap_sqrt", PROVEN, "plate",
                      "square-root refinement of the PPW plate bound", ("clamped",), per_m=True),
        InequalityDef("hile_yeh", PROVEN, "plate",
                      "Hile & Yeh (1984); Hook (1990); Chen & Qian (1990)", ("clamped",), per_m=True),
        InequalityDef("conj_356", CONJECTURE, "plate",
                      "conjectured sharpening of the Hile-Yeh plate bound", ("clamped",), per_m=True),
        InequalityDef("cheb_357", PROVEN, "plate",
                      "Chebyshev-inequality consequence of Hile-Yeh", ("clamped",), per_m=True),
        InequalityDef("sum_plate_sqrt", PROVEN, "plate",
                      "square-root trace bound (n+4) for the clamped plate", ("clamped",)),
        InequalityDef("sum_plate", PROVEN, "plate",
                      "trace bound (n+24) for the clamped plate", ("clamped",)),
        InequalityDef("ratio_165", PROVEN, "plate",
                      "PPW (1956): Gamma_{m+1}/Gamma_m <= (1+4/n)^2", ("clamped",), per_m=True),
        InequalityDef("hile_yeh_cubic", PROVEN, "plate",
                      "Hile & Yeh (1984) cubic bound for Gamma_2/Gamma_1", ("clamped",)),
        InequalityDef("ratio_plate", CONJECTURE, "plate",
                      "plate ratio conjecture: Gamma_2/Gamma_1 vs the ball", ("clamped",)),
        # buckling universal bounds
        InequalityDef("ppw_buckling", PROVEN, "buckling",
                      "Payne, Polya & Weinberger (1956): Lambda_2/Lambda_1 < 1+4/n", ("buckling",)),
        InequalityDef("hile_yeh_buckling", PROVEN, "buckling",
                      "Hile & Yeh (1984): (n^2+8n+20)/(n+2)^2", ("buckling",)),
        InequalityDef("sum_buckling", PROVEN, "buckling",
                      "buckling trace bound (n+4)", ("buckling",)),
        InequalityDef("ratio_buckling", CONJECTURE, "buckling",
                      "buckling ratio conjecture: Lambda_2/Lambda_1 vs the ball", ("buckling",)),
        # Polya counting conjectures (2-d)
        InequalityDef("polya_dirichlet", CONJECTURE, "polya",
                      "Polya conjecture, Dirichlet count", ("dirichlet",), dims=(2,)),
        InequalityDef("polya_neumann", CONJECTURE, "polya",
                      "Polya conjecture, Neumann count", ("neumann",), dims=(2,)),
    ]
}


class SpectrumTooShort(ValueError):
    pass


def _tolerance(scale, *spectra):
    allow = sum(sp.allowance for sp in spectra if sp is not None)
    return (1e-9 + 2.0 * allow) * max(abs(scale), 1e-30)


def _pair_tolerance(lhs, rhs, *spectra):
    """_tolerance on the scale of lhs and rhs; a vacuous (infinite) rhs
    contributes 1, so a degenerate-gap row keeps a finite tolerance."""
    return _tolerance(max(abs(lhs), 1.0 if math.isinf(rhs) else abs(rhs)), *spectra)


def _report(defn, domain, m, lhs, rhs, tol, note=""):
    if math.isinf(rhs):
        return InequalityReport(defn.id, domain, m, lhs, rhs, _INF, True, tol, defn.status,
                                defn.citation, note or "degenerate gap; bound vacuous")
    slack = rhs - lhs
    return InequalityReport(defn.id, domain, m, lhs, rhs, slack, slack >= -tol, tol,
                            defn.status, defn.citation, note)


def _gaps(values, m):
    """Gaps values[m] - values[i] for i < m, or None when the smallest is
    within round-off of zero (<= 1e-9 values[m]) and the bound is vacuous."""
    gaps = [values[m] - v for v in values[:m]]
    return None if min(gaps) <= 1e-9 * abs(values[m]) else gaps


def _need(spectrum, count, what):
    if spectrum is None or len(spectrum) < count:
        have = 0 if spectrum is None else len(spectrum)
        raise SpectrumTooShort(f"{what} needs {count} eigenvalues, have {have}")


@lru_cache(maxsize=None)
def _ball_gap_ratio(n):
    return (specfun.bessel_zero(n / 2.0, 1).value / specfun.bessel_zero(n / 2.0 - 1.0, 1).value) ** 2


@lru_cache(maxsize=None)
def _d_value(n):
    return d_constant(n).d_n


def hile_yeh_cubic_root(n: int) -> float:
    """Unique root above 1 of (x-1)^3 = 512 x / (n^2 (n+2)): the largest real root."""
    c = 512.0 / (n * n * (n + 2.0))
    roots = np.roots([1.0, -3.0, 3.0 - c, -1.0])
    return float(roots[np.isreal(roots)].real.max())


def eval_membrane_gap(id: str, spectrum: Spectrum, n: int, m: int) -> InequalityReport:
    """Universal gap bounds on the fixed membrane spectrum at index m."""
    defn = CATALOG[id]
    if defn.family != "membrane_gap":
        raise ValueError(f"{id} is not a membrane gap inequality")
    _need(spectrum, m + 1, id)
    lam = spectrum.values
    s1 = sum(lam[:m])
    if id == "ppw_gap":
        lhs, rhs = lam[m], lam[m - 1] + 4.0 / (m * n) * s1
    elif id == "yang1":
        s2 = sum(v * v for v in lam[:m])
        disc = (1.0 + 2.0 / n) ** 2 * s1 * s1 - m * (1.0 + 4.0 / n) * s2
        if disc < 0.0:
            if disc < -1e-9 * (1.0 + 2.0 / n) ** 2 * s1 * s1:
                raise ValueError(f"negative Yang discriminant {disc}: inconsistent spectrum")
            disc = 0.0
        lhs, rhs = lam[m], ((1.0 + 2.0 / n) * s1 + math.sqrt(disc)) / m
    elif id == "yang2":
        lhs, rhs = lam[m], (1.0 + 4.0 / n) * s1 / m
    elif id == "hile_protter":
        gaps = _gaps(lam, m)
        lhs = m * n / 4.0
        rhs = _INF if gaps is None else sum(v / g for v, g in zip(lam[:m], gaps))
    elif id == "ratio_gap_membrane":
        lhs, rhs = lam[m] / lam[m - 1], _ball_gap_ratio(n)
    else:
        raise ValueError(f"unhandled membrane gap id {id}")
    return _report(defn, spectrum.domain_label, m, lhs, rhs, _pair_tolerance(lhs, rhs, spectrum))


# published two-sided windows for the low-eigenvalue ratios in the plane:
# the lower ends are the conjectured suprema (disk value, sqrt8 x sqrt3
# rectangle value), the upper ends the proven caps
_L2L3_WINDOW = (5.077, 5.50661)
_L3_WINDOW = (3.1818, 3.83103)


def eval_membrane_low(id: str, spectrum: Spectrum, n: int) -> InequalityReport:
    """Trace-form and window checks on the lowest membrane eigenvalues."""
    defn = CATALOG[id]
    if defn.family != "membrane_low":
        raise ValueError(f"{id} is not a low-eigenvalue membrane inequality")
    lam = spectrum.values
    if id in ("sum_n4", "brands"):
        _need(spectrum, n + 1, id)
        lhs = sum(lam[1 : n + 1]) / lam[0]
        rhs = n + 4.0 if id == "sum_n4" else n + 3.0 + lam[0] / lam[1]
        return _report(defn, spectrum.domain_label, None, lhs, rhs,
                       _pair_tolerance(lhs, rhs, spectrum))
    if defn.dims and n not in defn.dims:
        raise ValueError(f"{id} applies only in dimensions {defn.dims}, got n={n}")
    _need(spectrum, 3, id)
    low, high = _L2L3_WINDOW if id == "l2l3_window" else _L3_WINDOW
    sample = (lam[1] + lam[2]) / lam[0] if id == "l2l3_window" else lam[2] / lam[0]
    return _report(defn, spectrum.domain_label, None, sample, high,
                   _tolerance(max(abs(sample), high), spectrum),
                   note=f"window [{low}, {high}]; lower end is the conjectured supremum")


def eval_isoperimetric(id: str, bundle: DomainSpectra, n: int, area: float) -> InequalityReport:
    """Comparisons against the equal-volume ball (and fixed-lambda_1 ball)."""
    defn = CATALOG[id]
    if defn.family != "isoperimetric":
        raise ValueError(f"{id} is not an isoperimetric inequality")
    radius = (area / unit_ball_volume(n)) ** (1.0 / n)
    star = BallSpec(n, radius)
    note = ""
    if id == "faber_krahn":
        _need(bundle.dirichlet, 1, id)
        lhs = dirichlet_ball(star, 1).values[0]
        rhs = bundle.dirichlet.values[0]
        spectra = (bundle.dirichlet,)
    elif id == "szego_weinberger":
        _need(bundle.neumann, 2, id)
        lhs = bundle.neumann.values[1]
        rhs = neumann_ball_mu1(star)
        spectra = (bundle.neumann,)
    elif id == "ppw_ratio":
        _need(bundle.dirichlet, 2, id)
        lam = bundle.dirichlet.values
        lhs = lam[1] / lam[0]
        rhs = _ball_gap_ratio(n)
        spectra = (bundle.dirichlet,)
    elif id == "fixed_lambda1":
        _need(bundle.dirichlet, 2, id)
        lam = bundle.dirichlet.values
        r_match = specfun.bessel_zero(n / 2.0 - 1.0, 1).value / math.sqrt(lam[0])
        lhs = lam[1]
        rhs = (specfun.bessel_zero(n / 2.0, 1).value / r_match) ** 2
        spectra = (bundle.dirichlet,)
        note = f"comparison ball radius {r_match:.6g}"
    elif id == "payne_buckling":
        _need(bundle.dirichlet, 2, id)
        _need(bundle.buckling, 1, id)
        lhs = bundle.dirichlet.values[1]
        rhs = bundle.buckling.values[0]
        spectra = (bundle.dirichlet, bundle.buckling)
    elif id == "krahn_l2":
        _need(bundle.dirichlet, 2, id)
        lhs = 2.0 ** (2.0 / n) * dirichlet_ball(star, 1).values[0]
        rhs = bundle.dirichlet.values[1]
        spectra = (bundle.dirichlet,)
    elif id == "bramble_payne":
        _need(bundle.buckling, 1, id)
        lhs = c_constant(n) * buckling_ball(star, 1).values[0]
        rhs = bundle.buckling.values[0]
        spectra = (bundle.buckling,)
    elif id == "rayleigh_plate":
        if n not in (2, 3):
            raise ValueError(f"rayleigh_plate is proven only for n in (2, 3), got {n}")
        _need(bundle.clamped, 1, id)
        lhs = clamped_ball(star, 1).values[0]
        rhs = bundle.clamped.values[0]
        spectra = (bundle.clamped,)
    elif id == "clamped_lower_dn":
        _need(bundle.clamped, 1, id)
        lhs = _d_value(n) * clamped_ball(star, 1).values[0]
        rhs = bundle.clamped.values[0]
        spectra = (bundle.clamped,)
        note = f"d_{n} = {_d_value(n):.6g}"
    elif id == "polya_szego_buckling":
        _need(bundle.buckling, 1, id)
        lhs = buckling_ball(star, 1).values[0]
        rhs = bundle.buckling.values[0]
        spectra = (bundle.buckling,)
    else:
        raise ValueError(f"unhandled isoperimetric id {id}")
    return _report(defn, bundle.label, None, lhs, rhs,
                   _pair_tolerance(lhs, rhs, *spectra), note)


def eval_plate(id: str, spectrum: Spectrum, n: int, m: int = 1) -> InequalityReport:
    """Universal bounds on the clamped-plate spectrum."""
    defn = CATALOG[id]
    if defn.family != "plate":
        raise ValueError(f"{id} is not a plate inequality")
    gam = spectrum.values
    coeff = 8.0 * (n + 2.0) / (n * n)
    m_out = m if defn.per_m else None
    if id == "ppw_plate_gap":
        _need(spectrum, m + 1, id)
        lhs, rhs = gam[m], gam[m - 1] + coeff / m * sum(gam[:m])
    elif id == "ppw_plate_gap_sqrt":
        _need(spectrum, m + 1, id)
        lhs = gam[m]
        rhs = gam[m - 1] + coeff / (m * m) * sum(math.sqrt(v) for v in gam[:m]) ** 2
    elif id in ("hile_yeh", "conj_356", "cheb_357"):
        _need(spectrum, m + 1, id)
        gaps = _gaps(gam, m)
        if id == "hile_yeh":
            lhs = m * m / coeff
            rhs = _INF if gaps is None else (
                sum(math.sqrt(v) / g for v, g in zip(gam[:m], gaps))
                * sum(math.sqrt(v) for v in gam[:m])
            )
        elif id == "conj_356":
            lhs = m * m / coeff
            rhs = _INF if gaps is None else (
                sum(math.sqrt(v / g) for v, g in zip(gam[:m], gaps)) ** 2
            )
        else:
            lhs = m / coeff
            rhs = _INF if gaps is None else sum(v / g for v, g in zip(gam[:m], gaps))
    elif id == "sum_plate_sqrt":
        _need(spectrum, n + 1, id)
        lhs = sum(math.sqrt(v) for v in gam[1 : n + 1]) / math.sqrt(gam[0])
        rhs = n + 4.0
    elif id == "sum_plate":
        _need(spectrum, n + 1, id)
        lhs, rhs = sum(gam[1 : n + 1]) / gam[0], n + 24.0
    elif id == "ratio_165":
        _need(spectrum, m + 1, id)
        lhs, rhs = gam[m] / gam[m - 1], (1.0 + 4.0 / n) ** 2
    elif id == "hile_yeh_cubic":
        _need(spectrum, 2, id)
        lhs, rhs = gam[1] / gam[0], hile_yeh_cubic_root(n)
    elif id == "ratio_plate":
        _need(spectrum, 2, id)
        ball = clamped_ball(BallSpec(n), 2).values
        lhs, rhs = gam[1] / gam[0], ball[1] / ball[0]
    else:
        raise ValueError(f"unhandled plate id {id}")
    return _report(defn, spectrum.domain_label, m_out, lhs, rhs,
                   _pair_tolerance(lhs, rhs, spectrum))


def eval_buckling(id: str, spectrum: Spectrum, n: int) -> InequalityReport:
    """Universal bounds on the buckling spectrum."""
    defn = CATALOG[id]
    if defn.family != "buckling":
        raise ValueError(f"{id} is not a buckling inequality")
    lam = spectrum.values
    if id == "ppw_buckling":
        _need(spectrum, 2, id)
        lhs, rhs = lam[1] / lam[0], 1.0 + 4.0 / n
    elif id == "hile_yeh_buckling":
        _need(spectrum, 2, id)
        lhs, rhs = lam[1] / lam[0], (n * n + 8.0 * n + 20.0) / (n + 2.0) ** 2
    elif id == "sum_buckling":
        _need(spectrum, n + 1, id)
        lhs, rhs = sum(lam[1 : n + 1]) / lam[0], n + 4.0
    elif id == "ratio_buckling":
        _need(spectrum, 2, id)
        ball = buckling_ball(BallSpec(n), 2).values
        lhs, rhs = lam[1] / lam[0], ball[1] / ball[0]
    else:
        raise ValueError(f"unhandled buckling id {id}")
    return _report(defn, spectrum.domain_label, None, lhs, rhs,
                   _pair_tolerance(lhs, rhs, spectrum))


def eval_polya(id: str, spectrum: Spectrum, area: float, k_max: int) -> list[InequalityReport]:
    """Per-k counting-conjecture reports (2-d only): lambda_k >= 4 pi k / A >= mu_k."""
    defn = CATALOG[id]
    if defn.family != "polya":
        raise ValueError(f"{id} is not a Polya conjecture id")
    if spectrum.dimension != 2:
        raise ValueError(f"Polya checks are 2-d only, got n={spectrum.dimension}")
    reports = []
    if id == "polya_dirichlet":
        _need(spectrum, k_max, id)
        for k in range(1, k_max + 1):
            weyl = 4.0 * math.pi * k / area
            lhs, rhs = weyl, spectrum.values[k - 1]
            reports.append(_report(defn, spectrum.domain_label, k, lhs, rhs,
                                   _pair_tolerance(lhs, rhs, spectrum)))
    elif id == "polya_neumann":
        _need(spectrum, k_max + 1, id)
        for k in range(0, k_max + 1):
            lhs, rhs = spectrum.values[k], 4.0 * math.pi * k / area
            reports.append(_report(defn, spectrum.domain_label, k, lhs, rhs,
                                   _tolerance(max(abs(lhs), abs(rhs), 1.0), spectrum)))
    else:
        raise ValueError(f"unhandled Polya id {id}")
    return reports


@dataclass(frozen=True)
class ChainReport:
    """Bound ordering Yang1 <= Yang2 <= PPW for lambda_{m+1}, plus HP slack."""

    domain: str
    m: int
    bound_yang1: float
    bound_yang2: float
    bound_ppw: float
    hp_slack: float
    ordering_ok: bool
    implications_ok: bool


def chain_check(spectrum: Spectrum, n: int, m: int) -> ChainReport:
    """Verify the implication chain Yang1 => Yang2 => Hile-Protter => PPW numerically."""
    _need(spectrum, m + 1, "chain check")
    r_y1 = eval_membrane_gap("yang1", spectrum, n, m)
    r_y2 = eval_membrane_gap("yang2", spectrum, n, m)
    r_ppw = eval_membrane_gap("ppw_gap", spectrum, n, m)
    r_hp = eval_membrane_gap("hile_protter", spectrum, n, m)
    tol = _tolerance(max(abs(r_y1.rhs), abs(r_ppw.rhs)), spectrum)
    ordering_ok = r_y1.rhs <= r_y2.rhs + tol and r_y2.rhs <= r_ppw.rhs + tol
    implications_ok = (not r_y1.holds) or (r_y2.holds and r_hp.holds and r_ppw.holds)
    return ChainReport(spectrum.domain_label, m, r_y1.rhs, r_y2.rhs, r_ppw.rhs,
                       r_hp.slack, ordering_ok, implications_ok)


def evaluate_all(bundle: DomainSpectra, m_max: int, k_max: int = 10,
                 ids: list[str] | None = None) -> list[InequalityReport]:
    """Every applicable catalog inequality on one domain's spectra.

    Ids whose required spectra are missing or too short are skipped;
    an explicit `ids` filter restricts the run.
    """
    n = bundle.dimension
    reports = []
    for defn in CATALOG.values():
        if ids is not None and defn.id not in ids:
            continue
        if defn.dims is not None and n not in defn.dims:
            continue
        if any(bundle.get(need) is None for need in defn.needs):
            continue
        try:
            if defn.family == "membrane_gap":
                spec = bundle.dirichlet
                for m in range(1, min(m_max, len(spec) - 1) + 1):
                    reports.append(eval_membrane_gap(defn.id, spec, n, m))
            elif defn.family == "membrane_low":
                reports.append(eval_membrane_low(defn.id, bundle.dirichlet, n))
            elif defn.family == "isoperimetric":
                reports.append(eval_isoperimetric(defn.id, bundle, n, bundle.area))
            elif defn.family == "plate":
                spec = bundle.clamped
                if defn.per_m:
                    for m in range(1, min(m_max, len(spec) - 1) + 1):
                        reports.append(eval_plate(defn.id, spec, n, m))
                else:
                    reports.append(eval_plate(defn.id, spec, n))
            elif defn.family == "buckling":
                reports.append(eval_buckling(defn.id, bundle.buckling, n))
            elif defn.family == "polya":
                spec = bundle.get(defn.needs[0])
                avail = len(spec) - (1 if defn.id == "polya_neumann" else 0)
                reports.append(eval_polya(defn.id, spec, bundle.area, min(k_max, avail)))
        except SpectrumTooShort:
            continue
    flat = []
    for r in reports:
        flat.extend(r if isinstance(r, list) else [r])
    return flat
