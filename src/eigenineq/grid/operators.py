"""Finite-difference operators on rasterized domains.

Second-order centered stencils throughout. Dirichlet uses the 5-point
Laplacian with zero exterior values; Neumann mirrors ghost nodes across
the boundary face (zero normal derivative), which makes the matrix the
graph Laplacian of the mask adjacency; the clamped plate uses the
13-point bi-Laplacian with first-ring exterior values zero and
second-ring ghosts reflected (w_ghost = w_interior), preserving symmetry
exactly. The buckling problem is the pair (clamped bi-Laplacian,
Dirichlet Laplacian) on the same interior space; `buckling` is the one
place that pairs them.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..spectra import ProblemKind
from .domain import GridDomain

_AXIS_SHIFTS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIAG_SHIFTS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class DiscreteOperator:
    """Sparse symmetric operator (pair, for generalized problems)."""

    matrix: sparse.csr_matrix
    kind: ProblemKind
    h: float
    domain: GridDomain
    mass: sparse.csr_matrix | None = None  # buckling: Dirichlet Laplacian

    @property
    def dim(self):
        return self.matrix.shape[0]


def _shifted_interior(mask, di, dj):
    """Boolean array over interior nodes: is the (di, dj) neighbor interior?"""
    out = np.zeros_like(mask)
    src = mask
    ni, nj = mask.shape
    isrc = slice(max(di, 0), ni + min(di, 0))
    idst = slice(max(-di, 0), ni + min(-di, 0))
    jsrc = slice(max(dj, 0), nj + min(dj, 0))
    jdst = slice(max(-dj, 0), nj + min(-dj, 0))
    out[idst, jdst] = src[isrc, jsrc]
    return out


def _neighbor_pairs(domain, di, dj, where=None):
    """(row, col) index pairs for nodes whose (di, dj) neighbor is interior."""
    mask = domain.mask
    ok = mask & _shifted_interior(mask, di, dj)
    if where is not None:
        ok &= where
    ii, jj = np.nonzero(ok)
    return domain.index[ii, jj], domain.index[ii + di, jj + dj], ok


def _laplacian(domain, neumann):
    n = domain.node_count
    h2 = domain.h**2
    rows, cols, vals = [], [], []
    degree = np.zeros(n)
    for di, dj in _AXIS_SHIFTS:
        r, c, ok = _neighbor_pairs(domain, di, dj)
        rows.append(r)
        cols.append(c)
        vals.append(np.full(r.size, -1.0 / h2))
        if neumann:
            degree[r] += 1.0 / h2
    if not neumann:
        degree[:] = 4.0 / h2
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(degree)
    a = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return a


def _bilaplacian_clamped(domain):
    mask = domain.mask
    n = domain.node_count
    h4 = domain.h**4
    rows, cols, vals = [], [], []
    diag = np.full(n, 20.0)
    for di, dj in _AXIS_SHIFTS:
        near = _shifted_interior(mask, di, dj)
        r, c, _ = _neighbor_pairs(domain, di, dj)
        rows.append(r)
        cols.append(c)
        vals.append(np.full(r.size, -8.0))
        # distance-2 entry: interior-to-interior link only through an
        # interior mid node; an exterior mid node mirrors the ghost back
        # onto the center (w = 0 on the first exterior ring, dw/dn = 0)
        r2, c2, _ = _neighbor_pairs(domain, 2 * di, 2 * dj, where=near)
        rows.append(r2)
        cols.append(c2)
        vals.append(np.full(r2.size, 1.0))
        ghost = mask & ~near
        gi, gj = np.nonzero(ghost)
        diag[domain.index[gi, gj]] += 1.0
    for di, dj in _DIAG_SHIFTS:
        r, c, _ = _neighbor_pairs(domain, di, dj)
        rows.append(r)
        cols.append(c)
        vals.append(np.full(r.size, 2.0))
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag)
    a = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return a * (1.0 / h4)


def buckling(operator) -> DiscreteOperator:
    """The buckling pair (clamped bi-Laplacian, Dirichlet Laplacian mass) from ``operator(kind)``."""
    plate, membrane = operator(ProblemKind.CLAMPED), operator(ProblemKind.DIRICHLET)
    return DiscreteOperator(plate.matrix, ProblemKind.BUCKLING, plate.h, plate.domain, membrane.matrix)


def assemble(domain: GridDomain, kind: ProblemKind) -> DiscreteOperator:
    """Discrete operator for the given problem kind on the domain."""
    if kind is ProblemKind.DIRICHLET:
        a = _laplacian(domain, neumann=False)
    elif kind is ProblemKind.NEUMANN:
        a = _laplacian(domain, neumann=True)
    elif kind is ProblemKind.CLAMPED:
        a = _bilaplacian_clamped(domain)
    elif kind is ProblemKind.BUCKLING:
        return buckling(lambda part: assemble(domain, part))
    else:
        raise ValueError(f"unknown problem kind {kind}")
    asym = abs(a - a.T)
    if asym.nnz and asym.max() > 0.0:
        raise AssertionError(f"non-symmetric assembly for {kind} on {domain.label}")
    return DiscreteOperator(a, kind, domain.h, domain)
