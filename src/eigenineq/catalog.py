"""Inequality knowledge base: every bound as one row of a formula table.

Each report is oriented so slack = rhs - lhs is nonnegative exactly when
the inequality holds. Closed-form spectra are checked at 1e-9 relative;
discrete spectra widen the tolerance by their declared Richardson
allowance (doubled, since the two sides err independently).

A row's ``formula(values, n, m, area)`` returns ``(lhs, rhs)`` or
``(lhs, rhs, note)``; ``values(kind, count)`` gives the first ``count``
eigenvalues of the domain's ``kind`` spectrum and records that the row
read it. The tolerance sums the allowances of exactly the spectra read.
`check` evaluates one row on a domain's spectra, and `evaluate_all` every
applicable row.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    citation: str
    per: str | None  # None, "m" (m = 1..m_max) or "k" (Polya count k = first..k_max)
    dims: tuple[int, ...] | None  # None = any dimension
    formula: Callable
    first: int = 1  # first index of a per row
    scale_floor: float = 0.0  # least tolerance scale


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


class SpectrumTooShort(ValueError):
    pass


def _tolerance(scale, *spectra):
    allow = sum(sp.allowance for sp in spectra)
    return (1e-9 + 2.0 * allow) * max(abs(scale), 1e-30)


def _gaps(values, m):
    """Gaps values[m] - values[i] for i < m, or None when the smallest is
    within round-off of zero (<= 1e-9 values[m]) and the bound is vacuous."""
    gaps = [values[m] - v for v in values[:m]]
    return None if min(gaps) <= 1e-9 * abs(values[m]) else gaps


@lru_cache(maxsize=None)
def _ball_ratio(ball, n):
    """Second over first eigenvalue of the closed-form spectrum `ball` on an n-ball (any radius)."""
    first, second = ball(BallSpec(n), 2).values
    return second / first


@lru_cache(maxsize=None)
def _d_value(n):
    return d_constant(n).d_n


def hile_yeh_cubic_root(n: int) -> float:
    """Unique root above 1 of (x-1)^3 = 512 x / (n^2 (n+2)): the largest real root."""
    c = 512.0 / (n * n * (n + 2.0))
    roots = np.roots([1.0, -3.0, 3.0 - c, -1.0])
    return float(roots[np.isreal(roots)].real.max())


def _star(n, area):
    """The ball with the domain's volume."""
    return BallSpec(n, (area / unit_ball_volume(n)) ** (1.0 / n))


def _plate_coeff(n):
    return 8.0 * (n + 2.0) / (n * n)


# published two-sided windows for the low-eigenvalue ratios in the plane:
# the lower ends are the conjectured suprema (disk value, sqrt8 x sqrt3
# rectangle value), the upper ends the proven caps
_L2L3_WINDOW = (5.077, 5.50661)
_L3_WINDOW = (3.1818, 3.83103)


def _window(sample, window):
    low, high = window
    return sample, high, f"window [{low}, {high}]; lower end is the conjectured supremum"


CATALOG: dict[str, InequalityDef] = {}


def _row(id, status, citation, per=None, dims=None, **internal):
    """Register the decorated formula as catalog row ``id``; rows keep definition order."""
    def register(formula):
        CATALOG[id] = InequalityDef(id, status, citation, per, dims, formula, **internal)
        return formula
    return register


# universal membrane gap bounds

@_row("ppw_gap", PROVEN, "Payne, Polya & Weinberger (1956), n-dimensional form", per="m")
def _ppw_gap(values, n, m, area):
    lam = values("dirichlet", m + 1)
    return lam[m], lam[m - 1] + 4.0 / (m * n) * sum(lam[:m])


@_row("yang1", PROVEN, "H.C. Yang (1991), first inequality", per="m")
def _yang1(values, n, m, area):
    lam = values("dirichlet", m + 1)
    s1 = sum(lam[:m])
    s2 = sum(v * v for v in lam[:m])
    disc = (1.0 + 2.0 / n) ** 2 * s1 * s1 - m * (1.0 + 4.0 / n) * s2
    if disc < 0.0:
        if disc < -1e-9 * (1.0 + 2.0 / n) ** 2 * s1 * s1:
            raise ValueError(f"negative Yang discriminant {disc}: inconsistent spectrum")
        disc = 0.0
    return lam[m], ((1.0 + 2.0 / n) * s1 + math.sqrt(disc)) / m


@_row("yang2", PROVEN, "H.C. Yang (1991), second inequality", per="m")
def _yang2(values, n, m, area):
    lam = values("dirichlet", m + 1)
    return lam[m], (1.0 + 4.0 / n) * sum(lam[:m]) / m


@_row("hile_protter", PROVEN, "Hile & Protter (1980)", per="m")
def _hile_protter(values, n, m, area):
    lam = values("dirichlet", m + 1)
    gaps = _gaps(lam, m)
    return m * n / 4.0, _INF if gaps is None else sum(v / g for v, g in zip(lam[:m], gaps))


@_row("ratio_gap_membrane", CONJECTURE, "PPW ratio conjecture: lambda_{m+1}/lambda_m vs the ball constant", per="m")
def _ratio_gap_membrane(values, n, m, area):
    lam = values("dirichlet", m + 1)
    return lam[m] / lam[m - 1], _ball_ratio(dirichlet_ball, n)


# low membrane eigenvalues

@_row("sum_n4", PROVEN, "Payne, Polya & Weinberger (1956) trace bound")
def _sum_n4(values, n, m, area):
    lam = values("dirichlet", n + 1)
    return sum(lam[1 : n + 1]) / lam[0], n + 4.0


@_row("brands", PROVEN, "Brands (1964), n-dimensional extension")
def _brands(values, n, m, area):
    lam = values("dirichlet", n + 1)
    return sum(lam[1 : n + 1]) / lam[0], n + 3.0 + lam[0] / lam[1]


@_row("l2l3_window", CONJECTURE, "(lambda_2+lambda_3)/lambda_1 window, Ashbaugh & Benguria range study", dims=(2,))
def _l2l3_window(values, n, m, area):
    lam = values("dirichlet", 3)
    return _window((lam[1] + lam[2]) / lam[0], _L2L3_WINDOW)


@_row("l3_window", CONJECTURE, "lambda_3/lambda_1 window, Ashbaugh & Benguria range study", dims=(2,))
def _l3_window(values, n, m, area):
    lam = values("dirichlet", 3)
    return _window(lam[2] / lam[0], _L3_WINDOW)


# isoperimetric comparisons against the equal-volume ball (and the fixed-lambda_1 ball)

@_row("faber_krahn", PROVEN, "Rayleigh's conjecture; Faber (1923), Krahn (1925)")
def _faber_krahn(values, n, m, area):
    lam = values("dirichlet", 1)
    return dirichlet_ball(_star(n, area), 1).values[0], lam[0]


@_row("szego_weinberger", PROVEN, "Szego (1954), Weinberger (1956)")
def _szego_weinberger(values, n, m, area):
    mu = values("neumann", 2)
    return mu[1], neumann_ball_mu1(_star(n, area))


@_row("ppw_ratio", PROVEN, "PPW conjecture; Ashbaugh & Benguria (1992)")
def _ppw_ratio(values, n, m, area):
    lam = values("dirichlet", 2)
    return lam[1] / lam[0], _ball_ratio(dirichlet_ball, n)


@_row("fixed_lambda1", PROVEN, "fixed-lambda_1 comparison; Ashbaugh & Benguria")
def _fixed_lambda1(values, n, m, area):
    lam = values("dirichlet", 2)
    r_match = math.sqrt(dirichlet_ball(BallSpec(n), 1).values[0] / lam[0])
    return lam[1], lam[0] * _ball_ratio(dirichlet_ball, n), f"comparison ball radius {r_match:.6g}"


@_row("payne_buckling", PROVEN, "Payne (1955): Lambda_1 >= lambda_2")
def _payne_buckling(values, n, m, area):
    lam = values("dirichlet", 2)
    return lam[1], values("buckling", 1)[0]


@_row("krahn_l2", PROVEN, "Krahn (1926) lambda_2 bound")
def _krahn_l2(values, n, m, area):
    lam = values("dirichlet", 2)
    return 2.0 ** (2.0 / n) * dirichlet_ball(_star(n, area), 1).values[0], lam[1]


@_row("bramble_payne", PROVEN, "Bramble & Payne (1963); constants c_n")
def _bramble_payne(values, n, m, area):
    big = values("buckling", 1)
    return c_constant(n) * buckling_ball(_star(n, area), 1).values[0], big[0]


@_row("rayleigh_plate", PROVEN,
      "plate conjecture, n=2 Nadirashvili (1992), n=2,3 Ashbaugh & Benguria (1995)", dims=(2, 3))
def _rayleigh_plate(values, n, m, area):
    gam = values("clamped", 1)
    return clamped_ball(_star(n, area), 1).values[0], gam[0]


@_row("clamped_lower_dn", PROVEN, "two-ball lower bound with constants d_n; Ashbaugh & Laugesen")
def _clamped_lower_dn(values, n, m, area):
    gam = values("clamped", 1)
    return _d_value(n) * clamped_ball(_star(n, area), 1).values[0], gam[0], f"d_{n} = {_d_value(n):.6g}"


@_row("polya_szego_buckling", CONJECTURE, "Polya & Szego buckling conjecture (c. 1950)")
def _polya_szego_buckling(values, n, m, area):
    big = values("buckling", 1)
    return buckling_ball(_star(n, area), 1).values[0], big[0]


# clamped plate universal bounds

@_row("ppw_plate_gap", PROVEN, "Payne, Polya & Weinberger (1956), plate analog", per="m")
def _ppw_plate_gap(values, n, m, area):
    gam = values("clamped", m + 1)
    return gam[m], gam[m - 1] + _plate_coeff(n) / m * sum(gam[:m])


@_row("ppw_plate_gap_sqrt", PROVEN, "square-root refinement of the PPW plate bound", per="m")
def _ppw_plate_gap_sqrt(values, n, m, area):
    gam = values("clamped", m + 1)
    return gam[m], gam[m - 1] + _plate_coeff(n) / (m * m) * sum(math.sqrt(v) for v in gam[:m]) ** 2


@_row("hile_yeh", PROVEN, "Hile & Yeh (1984); Hook (1990); Chen & Qian (1990)", per="m")
def _hile_yeh(values, n, m, area):
    gam = values("clamped", m + 1)
    gaps = _gaps(gam, m)
    rhs = _INF if gaps is None else (
        sum(math.sqrt(v) / g for v, g in zip(gam[:m], gaps))
        * sum(math.sqrt(v) for v in gam[:m])
    )
    return m * m / _plate_coeff(n), rhs


@_row("conj_356", CONJECTURE, "conjectured sharpening of the Hile-Yeh plate bound", per="m")
def _conj_356(values, n, m, area):
    gam = values("clamped", m + 1)
    gaps = _gaps(gam, m)
    rhs = _INF if gaps is None else sum(math.sqrt(v / g) for v, g in zip(gam[:m], gaps)) ** 2
    return m * m / _plate_coeff(n), rhs


@_row("cheb_357", PROVEN, "Chebyshev-inequality consequence of Hile-Yeh", per="m")
def _cheb_357(values, n, m, area):
    gam = values("clamped", m + 1)
    gaps = _gaps(gam, m)
    return m / _plate_coeff(n), _INF if gaps is None else sum(v / g for v, g in zip(gam[:m], gaps))


@_row("sum_plate_sqrt", PROVEN, "square-root trace bound (n+4) for the clamped plate")
def _sum_plate_sqrt(values, n, m, area):
    gam = values("clamped", n + 1)
    return sum(math.sqrt(v) for v in gam[1 : n + 1]) / math.sqrt(gam[0]), n + 4.0


@_row("sum_plate", PROVEN, "trace bound (n+24) for the clamped plate")
def _sum_plate(values, n, m, area):
    gam = values("clamped", n + 1)
    return sum(gam[1 : n + 1]) / gam[0], n + 24.0


@_row("ratio_165", PROVEN, "PPW (1956): Gamma_{m+1}/Gamma_m <= (1+4/n)^2", per="m")
def _ratio_165(values, n, m, area):
    gam = values("clamped", m + 1)
    return gam[m] / gam[m - 1], (1.0 + 4.0 / n) ** 2


@_row("hile_yeh_cubic", PROVEN, "Hile & Yeh (1984) cubic bound for Gamma_2/Gamma_1")
def _hile_yeh_cubic(values, n, m, area):
    gam = values("clamped", 2)
    return gam[1] / gam[0], hile_yeh_cubic_root(n)


@_row("ratio_plate", CONJECTURE, "plate ratio conjecture: Gamma_2/Gamma_1 vs the ball")
def _ratio_plate(values, n, m, area):
    gam = values("clamped", 2)
    return gam[1] / gam[0], _ball_ratio(clamped_ball, n)


# buckling universal bounds

@_row("ppw_buckling", PROVEN, "Payne, Polya & Weinberger (1956): Lambda_2/Lambda_1 < 1+4/n")
def _ppw_buckling(values, n, m, area):
    big = values("buckling", 2)
    return big[1] / big[0], 1.0 + 4.0 / n


@_row("hile_yeh_buckling", PROVEN, "Hile & Yeh (1984): (n^2+8n+20)/(n+2)^2")
def _hile_yeh_buckling(values, n, m, area):
    big = values("buckling", 2)
    return big[1] / big[0], (n * n + 8.0 * n + 20.0) / (n + 2.0) ** 2


@_row("sum_buckling", PROVEN, "buckling trace bound (n+4)")
def _sum_buckling(values, n, m, area):
    big = values("buckling", n + 1)
    return sum(big[1 : n + 1]) / big[0], n + 4.0


@_row("ratio_buckling", CONJECTURE, "buckling ratio conjecture: Lambda_2/Lambda_1 vs the ball")
def _ratio_buckling(values, n, m, area):
    big = values("buckling", 2)
    return big[1] / big[0], _ball_ratio(buckling_ball, n)


# Polya counting conjectures (2-d): lambda_k >= 4 pi k / A >= mu_k

@_row("polya_dirichlet", CONJECTURE, "Polya conjecture, Dirichlet count", per="k", dims=(2,))
def _polya_dirichlet(values, n, k, area):
    lam = values("dirichlet", k)
    return 4.0 * math.pi * k / area, lam[k - 1]


# the Neumann count starts at the zero mode mu_0 = 0, where lhs = rhs = 0;
# the scale floor of 1 keeps that row's tolerance at the round-off level
@_row("polya_neumann", CONJECTURE, "Polya conjecture, Neumann count", per="k", dims=(2,),
      first=0, scale_floor=1.0)
def _polya_neumann(values, n, k, area):
    mu = values("neumann", k + 1)
    return mu[k], 4.0 * math.pi * k / area


def check(id: str, bundle: DomainSpectra, m: int | None = None) -> InequalityReport:
    """Catalog row ``id`` on one domain's spectra, at index m for "m"/"k" rows.

    Raises SpectrumTooShort when a needed spectrum is missing or too
    short, and ValueError when the row does not apply in the bundle's
    dimension or m does not match the row's index.
    """
    row = CATALOG[id]
    n = bundle.dimension
    if row.dims is not None and n not in row.dims:
        raise ValueError(f"{id} applies only in dimensions {row.dims}, got n={n}")
    if (m is None) != (row.per is None):
        raise ValueError(f"{id} takes {'no index' if row.per is None else 'an index ' + row.per}, got m={m}")

    read = {}  # kind -> spectrum, for every spectrum the formula reads

    def values(kind, count):
        spectrum = getattr(bundle, kind)
        have = 0 if spectrum is None else len(spectrum)
        if have < count:
            raise SpectrumTooShort(f"{id} needs {count} {kind} eigenvalues, have {have}")
        read[kind] = spectrum
        return spectrum.values[:count]

    lhs, rhs, *note = row.formula(values, n, m, bundle.area)
    note = note[0] if note else ""
    # a vacuous (infinite) rhs counts as 1, so a degenerate-gap row keeps a finite tolerance
    scale = max(abs(lhs), 1.0 if math.isinf(rhs) else abs(rhs), row.scale_floor)
    tol = _tolerance(scale, *read.values())
    if math.isinf(rhs):
        return InequalityReport(id, bundle.label, m, lhs, rhs, _INF, True, tol, row.status, row.citation,
                                note or "degenerate gap; bound vacuous")
    slack = rhs - lhs
    return InequalityReport(id, bundle.label, m, lhs, rhs, slack, slack >= -tol, tol, row.status,
                            row.citation, note)


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


def chain_check(bundle: DomainSpectra, m: int) -> ChainReport:
    """Verify the implication chain Yang1 => Yang2 => Hile-Protter => PPW numerically."""
    r_y1, r_y2, r_ppw, r_hp = (check(id, bundle, m) for id in ("yang1", "yang2", "ppw_gap", "hile_protter"))
    tol = _tolerance(max(abs(r_y1.rhs), abs(r_ppw.rhs)), bundle.dirichlet)
    ordering_ok = r_y1.rhs <= r_y2.rhs + tol and r_y2.rhs <= r_ppw.rhs + tol
    implications_ok = (not r_y1.holds) or (r_y2.holds and r_hp.holds and r_ppw.holds)
    return ChainReport(bundle.label, m, r_y1.rhs, r_y2.rhs, r_ppw.rhs,
                       r_hp.slack, ordering_ok, implications_ok)


def evaluate_all(bundle: DomainSpectra, m_max: int, k_max: int = 10,
                 ids: list[str] | None = None) -> list[InequalityReport]:
    """Every applicable catalog inequality on one domain's spectra.

    Rows outside the bundle's dimension are skipped; a row stops at its
    first index whose spectra are missing or too short. An explicit
    `ids` filter restricts the run.
    """
    reports = []
    for row in CATALOG.values():
        if ids is not None and row.id not in ids:
            continue
        if row.dims is not None and bundle.dimension not in row.dims:
            continue
        indices = [None] if row.per is None else range(row.first, {"m": m_max, "k": k_max}[row.per] + 1)
        for index in indices:
            try:
                reports.append(check(row.id, bundle, index))
            except SpectrumTooShort:
                break
    return reports
