"""Sparse eigenvalue solves, Richardson extrapolation and Poisson solves.

`solve_shape` solves all requested problems of one shape together: per
mesh level it rasterizes once, assembles each distinct matrix once and
factors each distinct shifted matrix once (buckling shares the clamped
bi-Laplacian and its factor, and the Dirichlet Laplacian as its mass).

Eigenvalues come from ARPACK in shift-invert mode (shift 0 for the
positive-definite problems, a small negative shift for Neumann so the
factorization stays definite while the zero mode is still resolved).
Start vectors are drawn from a fixed-seed generator, so identical inputs
reproduce identical output bytes.

Every matrix factored here (the shifted operator A - sigma I, or A alone
at sigma = 0, and the Poisson Laplacian) is symmetric positive definite.
It is factored with SuperLU, ordered by minimum degree on A + A^T with
diagonal pivots only, which roughly halves the fill of the default
COLAMD column ordering, and the factor is handed to ARPACK as the
shift-invert operator. The eigenpairs are still residual-checked
against the unfactored operator.
"""

import math
from collections.abc import Mapping

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from ..spectra import ProblemKind, Provenance, Spectrum
from .domain import GridDomain, Shape, rasterize
from .operators import DiscreteOperator, assemble, buckling

_RESIDUAL_REL = 1e-8
# ARPACK's relative stopping tolerance on the Ritz estimates. A symmetric
# Ritz value's error is about residual^2 / gap (Parlett 1998; ARPACK
# Users' Guide 1998), so at 1e-10 the eigenvalues are already at
# round-off and spectra.csv is byte-identical to the default tol=0
# (machine epsilon), which costs about 20% more shift-invert solves.
# The _RESIDUAL_REL gate still checks every returned pair.
_ARPACK_TOL = 1e-10
_SEED = 20260810


class SolverError(RuntimeError):
    """Eigensolver failed to converge or verify; carries attained residuals."""


def _operator_scale(matrix):
    return float(np.abs(matrix.diagonal()).max())


def _factor_spd(matrix):
    """Sparse LU of a symmetric positive definite matrix, symmetric ordering."""
    return splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def smallest_eigs(op: DiscreteOperator, m: int, factors: dict | None = None) -> Spectrum:
    """The m smallest eigenvalues of the (generalized) discrete problem.

    Every returned pair is residual-checked against
    ||A x - theta B x|| <= 1e-8 * scale(A) * ||x||.

    ``factors`` memoizes factors by (id(op.matrix), shift) for operators
    sharing a matrix; the caller keeps those matrices alive meanwhile.
    """
    factors = {} if factors is None else factors
    n = op.dim
    if not 1 <= m < n - 1:
        raise ValueError(f"need 1 <= m < {n - 1}, got {m}")
    if op.kind is ProblemKind.NEUMANN and m < 2:
        raise ValueError(f"Neumann needs m >= 2 (the first value is the constant mode), got {m}")
    rng = np.random.default_rng(_SEED)
    v0 = rng.standard_normal(n)
    sigma = 0.0
    shifted = op.matrix
    if op.kind is ProblemKind.NEUMANN:
        # negative shift keeps A - sigma I positive definite with the zero
        # mode (constant vector) still nearest the shift
        sigma = -0.5 * math.pi**2 / op.domain.area_exact
        shifted = op.matrix - sigma * sparse.identity(n, format="csr")
    ncv = min(n, max(2 * m + 8, 24))
    try:
        key = (id(op.matrix), sigma)
        if key not in factors:
            factors[key] = _factor_spd(shifted)
        opinv = LinearOperator((n, n), matvec=factors[key].solve, dtype=float)
        vals, vecs = eigsh(op.matrix, k=m, M=op.mass, sigma=sigma, which="LM", v0=v0, ncv=ncv,
                           OPinv=opinv, tol=_ARPACK_TOL)
    except Exception as exc:
        raise SolverError(f"eigsh failed for {op.kind.value} on {op.domain.label}: {exc}") from exc
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    scale = _operator_scale(op.matrix)
    resid = []
    for i in range(m):
        x = vecs[:, i]
        bx = x if op.mass is None else op.mass @ x
        r = np.linalg.norm(op.matrix @ x - vals[i] * bx) / np.linalg.norm(x)
        resid.append(r)
        if r > _RESIDUAL_REL * scale:
            raise SolverError(
                f"residual {r:.3e} exceeds {_RESIDUAL_REL * scale:.3e} for "
                f"{op.kind.value} eigenvalue {i} on {op.domain.label}; residuals={resid}"
            )
    if op.kind is ProblemKind.NEUMANN:
        if abs(vals[0]) > 1e-8 * max(vals[1], 1.0):
            raise SolverError(f"Neumann zero mode not resolved: {vals[0]} vs {vals[1]}")
        # the resolved zero mode is exactly 0; its round-off residue would
        # change sign and digits with the factorization
        vals[0] = 0.0
    return Spectrum(
        kind=op.kind,
        dimension=2,
        values=tuple(float(v) for v in vals),
        domain_label=op.domain.label,
        provenance=Provenance.DISCRETE,
        mesh_h=op.h,
    )


def extrapolate(coarse: Spectrum, fine: Spectrum) -> Spectrum:
    """Entrywise Richardson value (4 fine - coarse) / 3 for ratio-2 meshes.

    The resulting allowance (relative discretization budget) is
    max_i |fine_i - coarse_i| / value_i, i.e. 3x the observed Richardson
    residual.
    """
    if coarse.kind is not fine.kind or coarse.dimension != fine.dimension:
        raise ValueError("mismatched spectra kinds/dimensions")
    if coarse.domain_label != fine.domain_label:
        raise ValueError(f"mismatched domains {coarse.domain_label} vs {fine.domain_label}")
    if len(coarse) != len(fine):
        raise ValueError("mismatched spectrum lengths")
    if coarse.mesh_h is None or fine.mesh_h is None:
        raise ValueError("extrapolation requires mesh widths")
    if abs(coarse.mesh_h - 2.0 * fine.mesh_h) > 1e-9 * coarse.mesh_h:
        raise ValueError(f"mesh ratio must be exactly 2, got {coarse.mesh_h} vs {fine.mesh_h}")
    c = np.asarray(coarse.values)
    f = np.asarray(fine.values)
    values = f + (f - c) / 3.0  # = (4 fine - coarse)/3, exact at the fixed point
    # the Neumann zero mode is excluded: its relative residual is 0/0 noise
    live = np.abs(values) > 1e-9 * float(np.abs(values).max())
    allowance = float(np.max(np.abs(f - c)[live] / np.abs(values)[live]))
    values = np.maximum.accumulate(values)  # extrapolation may disturb ties at machine level
    return Spectrum(
        kind=fine.kind,
        dimension=fine.dimension,
        values=tuple(float(v) for v in values),
        domain_label=fine.domain_label,
        provenance=Provenance.DISCRETE_EXTRAPOLATED,
        mesh_h=fine.mesh_h,
        allowance=allowance,
    )


def rayleigh_quotient(op: DiscreteOperator, vector) -> float:
    """(x, A x) / (x, B x) with B the identity (or the buckling mass)."""
    x = np.asarray(vector, dtype=float)
    if x.shape != (op.dim,):
        raise ValueError(f"vector shape {x.shape} does not match operator dim {op.dim}")
    nrm2 = float(x @ x)
    if nrm2 == 0.0:
        raise ValueError("zero vector")
    num = float(x @ (op.matrix @ x))
    den = float(x @ (op.mass @ x)) if op.mass is not None else nrm2
    return num / den


def poisson_solve(domain: GridDomain, f_values) -> np.ndarray:
    """Solve the zero-boundary Poisson problem -Lap u = f on the domain."""
    f = np.asarray(f_values, dtype=float)
    if f.shape != (domain.node_count,):
        raise ValueError(f"source shape {f.shape} does not match node count {domain.node_count}")
    op = assemble(domain, ProblemKind.DIRICHLET)
    return _factor_spd(op.matrix).solve(f)


def _operator(domain, kind, ops):
    """The operator of ``kind`` on ``domain``; ``ops`` memoizes it for the level."""
    if kind not in ops:
        ops[kind] = (buckling(lambda part: _operator(domain, part, ops)) if kind is ProblemKind.BUCKLING
                     else assemble(domain, kind))
    return ops[kind]


def solve_shape(shape: Shape, problems: Mapping[ProblemKind, int], h: float, levels: int):
    """Spectra of several problems on meshes h, h/2, ..., plus their Richardson extrapolations.

    ``problems`` maps each problem kind to its number of eigenvalues m.
    Returns {kind: (per-level spectra list, extrapolated spectrum from the
    two finest levels)}, or {kind: the exception} for a kind whose solve
    raised; the other kinds still solve.
    """
    if levels < 2:
        raise ValueError(f"extrapolation needs at least 2 mesh levels, got {levels}")
    spectra = {kind: [] for kind in problems}
    failed = {}
    for lev in range(levels):
        domain, ops, factors = None, {}, {}
        for kind, m in problems.items():
            if kind not in failed:
                try:
                    domain = domain or rasterize(shape, h / 2**lev)
                    spectra[kind].append(smallest_eigs(_operator(domain, kind, ops), m, factors))
                except Exception as exc:
                    failed[kind] = exc
    return {kind: failed[kind] if kind in failed else (spectra[kind], extrapolate(*spectra[kind][-2:]))
            for kind in problems}
