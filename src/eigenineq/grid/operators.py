"""Finite-difference operators on rasterized domains.

Every matrix is a stencil on the domain's padded lattice box restricted
to the mask (Neumann: to its cut-cell nodes). With ax, ay the box's x-
and y-link matrices (`GridDomain.links`), R the restriction to interior
rows and columns (`GridDomain.restrict`) and adj = R(ax + ay)
(`GridDomain.adjacency`):

- Dirichlet: (diag(d) - adj) / h^2 with d = `GridDomain.dirichlet_diagonal`,
  the 5-point Laplacian closed by the symmetric ghost-fluid rule (Gibou,
  Fedkiw, Cheng & Kang, J. Comput. Phys. 176, 2002): a link that the
  boundary cuts at theta h adds 1/theta to its node's diagonal, as if
  u vanished at the crossing, instead of 1. Only the diagonal differs
  from the staircase (4 I - adj) / h^2, which zeroes u on the exterior
  nodes, so the sparsity pattern is the same; the eigenvalues are O(h^2)
  accurate where the staircase's are O(h). Lattice-aligned edges have
  theta = 1 and keep d = 4 exactly.
- Neumann: S K S / h^2, symmetric cut-cell finite volumes (Johansen &
  Colella, J. Comput. Phys. 147, 1998) on their own node set, every
  lattice node whose dual cell [x +- h/2] x [y +- h/2] meets the shape
  (`GridDomain.cells`). A link's weight a_ij is the aperture, the inside
  fraction of the dual edge it crosses; K = diag(W 1) - W is the
  aperture-weighted graph Laplacian, and S = diag(f^(-1/2)) with f the
  cell's inside area fraction, so S K S is the symmetric form of the
  pencil (K, diag(f)). Each node's W 1 is read off the four dual edges
  of its cell as (-x + +x) + (-y + +y), an aperture across a dual edge
  being positive only between two cut-cell nodes; like the fractions'
  Green's sum, that order is one the lattice's flips and transpose
  only permute, so a shape symmetric on the lattice gets an operator
  that is too, bit for bit. The zero normal derivative is natural: no
  boundary row is written. Bulk cells have f = 1 and apertures 1, the
  5-point stencil.
- Clamped: (R(L^2) + 2 diag(G) - G) / h^4, the 13-point bi-Laplacian.
  L = 4 I - ax - ay is the padded-box Laplacian and
  G = R(ax E ax + ay E ay), with E = diag(exterior), counts exterior
  mid-nodes: the first exterior ring is zero and a second-ring ghost is
  reflected onto the centre (w_ghost = w_interior), so a distance-2 link
  through an exterior mid-node is dropped and each end's diagonal gains 1.

All three are exactly symmetric. Dirichlet and Neumann eigenvalues are
O(h^2) accurate on curved boundaries; only the clamped plate closes
the boundary on the staircase and stays O(h). The buckling problem is
the pair (clamped bi-Laplacian, Dirichlet Laplacian) on the same
interior space; `buckling` is the one place that pairs them.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from ..spectra import ProblemKind
from .domain import GridDomain, RasterizeError


@dataclass(frozen=True)
class DiscreteOperator:
    """Sparse symmetric operator (pair, for generalized problems)."""

    matrix: sparse.csr_matrix
    kind: ProblemKind
    domain: GridDomain
    mass: sparse.csr_matrix | None = None  # buckling: Dirichlet Laplacian

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def nodes(self):
        """Boolean array over the padded lattice box marking the nodes that carry the unknowns.

        These are the interior nodes (`GridDomain.padded`), or for Neumann
        the cut-cell nodes; the matrix rows take them in row-major order.
        """
        if self.kind is ProblemKind.NEUMANN:
            return _cell_nodes(self.domain)
        return self.domain.padded.reshape(np.add(self.domain.mask.shape, 2))


def _cell_nodes(domain):
    """The padded box's nodes whose dual cell meets the shape."""
    return domain.cells.fraction > 0.0


def _laplacian(domain):
    """(diag(dirichlet_diagonal) - adj) / h^2."""
    return (sparse.diags(domain.dirichlet_diagonal) - domain.adjacency) * (1.0 / domain.h**2)


def _neumann(domain):
    """S K S / h^2 on the cut-cell nodes: K = diag(W 1) - W, W the link apertures, S = diag(fraction^(-1/2))."""
    cells = domain.cells
    nx, ny = cells.fraction.shape
    ax = np.pad(cells.aperture_x, ((1, 1), (0, 0)))  # node (p, q)'s links to -x and +x: ax[p, q], ax[p + 1, q]
    ay = np.pad(cells.aperture_y, ((0, 0), (1, 1)))  # and to -y and +y: ay[p, q], ay[p, q + 1]
    upper = sparse.diags([ax[1:-1].ravel(), ay[:, 1:].ravel()[:-1]], [ny, 1], shape=(nx * ny, nx * ny))
    nodes = _cell_nodes(domain).ravel()
    w = (upper + upper.T).tocsr()[nodes][:, nodes]
    ncomp = connected_components(w, directed=False)[0]
    if ncomp != 1:
        raise RasterizeError(f"cut cells of {domain.label} at h={domain.h} form {ncomp} components")
    # W 1 from each cell's four apertures, summed in an order that the lattice's flips and transpose only permute
    k = (sparse.diags(((ax[:-1] + ax[1:]) + (ay[:, :-1] + ay[:, 1:])).ravel()[nodes]) - w).tocsr()
    s = cells.fraction.ravel()[nodes] ** -0.5
    # entry by entry, k_ij (s_i s_j): the product commutes, so the matrix stays exactly symmetric
    k.data *= s[np.repeat(np.arange(k.shape[0]), np.diff(k.indptr))] * s[k.indices]
    return k * (1.0 / domain.h**2)


def _bilaplacian_clamped(domain):
    """(R(L^2) + 2 diag(G) - G) / h^4 with G = R(ax E ax + ay E ay)."""
    ax, ay = domain.links
    box = 4.0 * sparse.identity(ax.shape[0], format="csr") - ax - ay
    exterior = sparse.diags((~domain.padded).astype(float))
    ghosts = domain.restrict(ax @ exterior @ ax + ay @ exterior @ ay)
    a = domain.restrict(box @ box) + 2.0 * sparse.diags(ghosts.diagonal()) - ghosts
    return a.sorted_indices() * (1.0 / domain.h**4)  # a sparse product leaves columns unsorted


def buckling(plate: DiscreteOperator, membrane: DiscreteOperator) -> DiscreteOperator:
    """The buckling pair: the clamped ``plate``'s bi-Laplacian, the Dirichlet ``membrane``'s Laplacian as mass."""
    return DiscreteOperator(plate.matrix, ProblemKind.BUCKLING, plate.domain, membrane.matrix)


def assemble(domain: GridDomain, kind: ProblemKind) -> DiscreteOperator:
    """Discrete operator for the given problem kind on the domain."""
    if kind is ProblemKind.DIRICHLET:
        a = _laplacian(domain)
    elif kind is ProblemKind.NEUMANN:
        a = _neumann(domain)
    elif kind is ProblemKind.CLAMPED:
        a = _bilaplacian_clamped(domain)
    elif kind is ProblemKind.BUCKLING:
        return buckling(assemble(domain, ProblemKind.CLAMPED), assemble(domain, ProblemKind.DIRICHLET))
    else:
        raise ValueError(f"unknown problem kind {kind}")
    asym = abs(a - a.T)
    if asym.nnz and asym.max() > 0.0:
        raise AssertionError(f"non-symmetric assembly for {kind} on {domain.label}")
    return DiscreteOperator(a, kind, domain)
