"""Sparse eigenvalue solves, Richardson extrapolation and Poisson solves.

`solve_shape` solves all requested problems of one domain together and
returns the domain's spectra, the one source `verify` and `spectrum`
read: its `DomainSpectra` of extrapolated spectra, the per-level spectra
and the error of each problem that failed. Per mesh level it rasterizes
once, assembles each distinct matrix once and factors each distinct
shifted matrix once (buckling shares the clamped bi-Laplacian and its
factor, and the Dirichlet Laplacian as its mass). Only a whole clamped
operator's factor outlives its own solve: a membrane's factor, and each
parity block's (below), is freed as soon as its eigenpairs are in.

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

The disk, the ellipse, the annulus and the unit square sit
mirror-symmetric on the lattice, and all four of their matrices are
left entrywise unchanged by the x- and y-flips of the padded box; on a
square box (the disk's, the annulus' and the square's) by its
transpose x <-> y too, and the L-shape's by the transpose alone.
`smallest_eigs` finds those symmetries (`_flips`) and solves such an
operator as blocks Q^T A Q, with Q^T B Q for buckling, each Q an
orthonormal basis of orbit sums (`_parity_bases`; Fassler & Stiefel,
Group Theoretical Methods and Their Applications, 1992; Bossavit,
Comput. Methods Appl. Mech. Engrg. 56, 1986). The two flips give four
parity classes, the transpose alone two. With the flips and the
transpose the group is D4, of 8 elements: its four 1-d characters
(chi = +-1 on both flips alike, +-1 on the transpose) are four blocks
of about n/8 nodes, and the odd-x/even-y flip class is a fifth of
about n/4. The even-x/odd-y class is that block's transpose image, its
twin: it is never factored, its values are copied from the fifth block
and its vectors are the fifth block's lifted vectors permuted by the
transpose. Blocks fill far less than the whole: the h = 1/192 disk's
L+U holds 7.07M nonzeros whole, 5.14M in the four flip blocks and
3.25M in the five D4 blocks (0.48-0.50M each, 1.29M for the fifth),
and one Dirichlet solve there takes 0.59 s against 0.95 s over the
flip blocks. Each eigenvector, the twin's too, is lifted back and
residual-checked against the whole operator, and the blocks' spectra
are merged; a block is solved again for more values when all of its
values fall inside the merged set. The split values agree with the
whole solve to round-off: 5e-15 relative on the Dirichlet membranes,
1.5e-13 on the cut-cell Neumann ones (4.6e-13 on the unit square's,
5.1e-13 on the h = 1/128 disk's), 1.5e-10 on the plates, where
swapping the whole solve's ordering for COLAMD moves them by 1.5e-10;
a disk double eigenvalue of odd angular order has one copy in the
fifth block and the other in its twin, so the copies are equal. Only
operators below `_SPLIT_MIN_NODES`, and those whose shape is not
symmetric on the lattice (the off-lattice rectangles, whose links are
cut at different theta on opposite sides, and generic polygons), are
the one-block case of the same loop. An operator on a box that is not
square (the ellipse, every rectangle but the square) gets at most the
flips.

A parity block's factor is never shared with the buckling solve: kept
alive across the clamped and buckling solves, the four block factors
fragmented the malloc arenas of `verify`'s worker threads, and the
corpus benchmark's peak RSS read 218 and 227 MB against 194 and 182 MB
whole, while the heap in use after each run stayed the same.
Refactoring the blocks costs the h = 1/64 disk's buckling solve 0.05 s.
"""

import math
from collections.abc import Mapping

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from ..spectra import DomainSpectra, ProblemKind, Provenance, Spectrum
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
# Operators with fewer unknowns stay whole: below it ARPACK's fixed cost
# per block outweighs the smaller factors and solves. Split / whole time
# of one solve, best of 5 on one core: disk Dirichlet 1.53 at 793 nodes,
# 1.29 at 1.8k, 0.86 at 3.2k, 0.78 at 7.2k, 0.61 at 12.8k; disk clamped
# 1.40 at 793, 1.10 at 1.8k, 0.91 at 3.2k, 0.49 at 12.8k; unit-square
# Dirichlet 1.60 at 961, 0.78 at 4.0k. Single solves cross near 3k
# nodes, but under `verify`'s two worker threads a 3k rule bought no
# wall time over 10k (verify_corpus 1.125 and 1.260 s against 1.123 and
# 1.137 s in two 40 s runs) and read a higher peak RSS in one of them.
_SPLIT_MIN_NODES = 10_000


class SolverError(RuntimeError):
    """Eigensolver failed to converge or verify; carries attained residuals."""


def _operator_scale(op):
    """The stencil's diagonal at a node whose four neighbours are interior: 4/h^2, or 20/h^4 for a plate.

    The residual gate is relative to this bulk value. A Dirichlet link cut
    at theta h puts 1/theta on its node's diagonal, so max |diag| would
    loosen the gate by that factor.
    """
    if op.kind in (ProblemKind.CLAMPED, ProblemKind.BUCKLING):
        return 20.0 / op.domain.h**4
    return 4.0 / op.domain.h**2


def _factor_spd(matrix):
    """Sparse LU of a symmetric positive definite matrix, symmetric ordering."""
    return splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _flips(op):
    """The box's symmetries that map the operator's nodes onto themselves and leave its matrices unchanged.

    Tries the x- and y-flips (axes 0 and 1) and, on a square box, the
    transpose (axis 2), each by the same exact entrywise test, so a
    shape that is symmetric about the diagonal only (the L-shape) gets
    the transpose alone. Returns [(axis, perm)], perm[k] the row of the
    image of row k's node.
    """
    nodes = op.nodes
    index = np.full(nodes.shape, -1)
    index[nodes] = np.arange(op.dim)
    flips = []
    for axis, image in enumerate((np.flip(index, 0), np.flip(index, 1), index.T)):
        if axis == 2 and nodes.shape[0] != nodes.shape[1]:
            break
        perm = image[nodes]
        if perm.min() >= 0 and all((mat[perm][:, perm] != mat).nnz == 0
                                   for mat in (op.matrix, op.mass) if mat is not None):
            flips.append((axis, perm))
    return flips


def _parity_bases(flips, n):
    """The blocks of the group that ``flips`` generate: one orthonormal sparse basis Q per solved block, and the twins.

    Element e of the group applies flip i when bit i of e is set, and
    class c has the sign (-1)^|e & c| on it. With fewer than three
    flips (the two flips, or the transpose alone) the group is abelian
    and every class is a block. With all three it is D4, whose 1-d
    characters have chi(x-flip) = chi(y-flip): the classes
    0b000, 0b011, 0b100 and 0b111 over all 8 elements. The odd-x/even-y
    class 0b001 of the flip subgroup is solved as a fifth block, and the
    even-x/odd-y class is its transpose image, its twin. A block's
    columns are the orbit sums sum_g chi_c(g) e_(g k) over one node k
    per orbit, normalized; an orbit whose sum vanishes (a node that an
    element of sign -1 fixes) has no column.

    Returns (bases, twins), twins [(b, perm)]: a block with block b's
    values, whose vectors are block b's lifted ones permuted by perm.
    """
    group = [np.arange(n)]
    for _, perm in flips:
        group += [perm[g] for g in group]
    if len(flips) < 3:
        classes, twins = [(c, len(group)) for c in range(len(group))], []
    else:
        classes, twins = [(c, 8) for c in (0b000, 0b011, 0b100, 0b111)] + [(0b001, 4)], [(4, flips[2][1])]
    bases = []
    for c, size in classes:  # class c of the subgroup group[:size]
        reps = np.flatnonzero(np.min(group[:size], axis=0) == np.arange(n))
        rows = np.concatenate([g[reps] for g in group[:size]])
        cols = np.tile(np.arange(reps.size), size)
        signs = np.repeat([(-1.0) ** (e & c).bit_count() for e in range(size)], reps.size)
        u = sparse.csc_matrix((signs, (rows, cols)), shape=(n, reps.size))  # sums an orbit's coincident nodes
        u.eliminate_zeros()
        norm = np.sqrt(u.power(2).sum(axis=0)).A1
        bases.append(u[:, norm > 0.0] @ sparse.diags(1.0 / norm[norm > 0.0]))
    return bases, twins


def _block_eigs(op, q, sigma, k, factors):
    """The k eigenpairs nearest ``sigma`` of the block Q^T A Q (Q^T B Q) in ascending order; Q = None is the identity.

    The factor of the block's A - sigma I is memoized in ``factors`` by
    (id(op.matrix), sigma).
    """
    a, mass = (op.matrix, op.mass) if q is None else (
        (q.T @ op.matrix @ q).tocsr(), None if op.mass is None else (q.T @ op.mass @ q).tocsr())
    n = a.shape[0]
    key = (id(op.matrix), sigma)
    if key not in factors:
        factors[key] = _factor_spd(a - sigma * sparse.identity(n, format="csr") if sigma else a)
    opinv = LinearOperator((n, n), matvec=factors[key].solve, dtype=float)
    v0 = np.random.default_rng(_SEED).standard_normal(n)
    vals, vecs = eigsh(a, k=k, M=mass, sigma=sigma, which="LM", v0=v0, ncv=min(n, max(2 * k + 8, 24)),
                       OPinv=opinv, tol=_ARPACK_TOL)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def smallest_eigs(op: DiscreteOperator, m: int, factors: dict | None = None) -> Spectrum:
    """The m smallest eigenvalues of the (generalized) discrete problem.

    An operator of at least `_SPLIT_MIN_NODES` unknowns that a flip of
    the lattice box leaves exactly unchanged is solved as its blocks
    (`_flips`, `_parity_bases`); any other is the one-block case of the
    same loop. Each solved block is asked for ceil(m / blocks) + 2
    values (at most m), blocks counting the twins: ceil(m / 6) + 2 under
    D4, ceil(m / 4) + 2 under the two flips and ceil(m / 2) + 2 under
    one symmetry. A block whose values all
    lie below the merged m-th one is solved again for m, and its twin
    copies the new values, so the merged spectrum is never a partial
    one.

    Every returned pair, lifted back to the whole operator, is
    residual-checked against
    ||A x - theta B x|| <= 1e-8 * scale(A) * ||x||, scale(A) the bulk
    stencil's diagonal (`_operator_scale`).

    ``factors`` memoizes a whole operator's factor by (id(op.matrix),
    shift) for operators sharing a matrix; the caller keeps those
    matrices alive meanwhile. A parity block's factor is freed as soon
    as the block is solved.
    """
    n = op.dim
    if not 1 <= m < n - 1:
        raise ValueError(f"need 1 <= m < {n - 1}, got {m}")
    if op.kind is ProblemKind.NEUMANN and m < 2:
        raise ValueError(f"Neumann needs m >= 2 (the first value is the constant mode), got {m}")
    sigma = 0.0
    if op.kind is ProblemKind.NEUMANN:
        # negative shift keeps A - sigma I positive definite with the zero
        # mode (constant vector) still nearest the shift
        sigma = -0.5 * math.pi**2 / op.domain.area_exact
    flips = _flips(op) if n >= _SPLIT_MIN_NODES else []
    bases, twins = _parity_bases(flips, n) if flips else ([], [])
    if min((q.shape[1] for q in bases), default=0) < m + 2:  # a block too small to be asked for m values
        flips, bases, twins = [], [None], []

    def solve(c, k):
        # a parity block's factor, like a membrane's, dies with its solve
        return _block_eigs(op, bases[c], sigma, k, {} if factors is None or flips else factors)

    def spectra(blocks):  # the solved blocks' values, then each twin's copy of its source's
        return [v for v, _ in blocks] + [blocks[b][0] for b, _ in twins]

    try:
        blocks = [solve(c, min(m, math.ceil(m / (len(bases) + len(twins))) + 2)) for c in range(len(bases))]
        mth = np.sort(np.concatenate(spectra(blocks)))[m - 1]
        # a block's unreturned values lie above its largest returned one;
        # a short block solved again for m values can no longer be short
        blocks = [solve(c, m) if len(v) < m and v[-1] < mth else (v, x) for c, (v, x) in enumerate(blocks)]
    except Exception as exc:
        raise SolverError(f"eigsh failed for {op.kind.value} on {op.domain.label}: {exc}") from exc
    vals = np.concatenate(spectra(blocks))
    lifted = [x if q is None else q @ x for q, (_, x) in zip(bases, blocks)]
    vecs = np.hstack(lifted + [lifted[b][perm] for b, perm in twins])
    order = np.argsort(vals, kind="stable")[:m]
    vals, vecs = vals[order], vecs[:, order]
    scale = _operator_scale(op)
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
    return Spectrum(kind=op.kind, values=tuple(float(v) for v in vals), provenance=Provenance.DISCRETE,
                    mesh_h=op.domain.h)


def extrapolate(coarse: Spectrum, fine: Spectrum) -> Spectrum:
    """Entrywise Richardson value (4 fine - coarse) / 3 for ratio-2 meshes.

    The resulting allowance (relative discretization budget) is
    max_i |fine_i - coarse_i| / value_i, i.e. 3x the observed Richardson
    residual.
    """
    if coarse.kind is not fine.kind:
        raise ValueError(f"mismatched spectra kinds {coarse.kind.value} vs {fine.kind.value}")
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
    return Spectrum(kind=fine.kind, values=tuple(float(v) for v in values),
                    provenance=Provenance.DISCRETE_EXTRAPOLATED, mesh_h=fine.mesh_h, allowance=allowance)


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
        ops[kind] = (buckling(_operator(domain, ProblemKind.CLAMPED, ops),
                              _operator(domain, ProblemKind.DIRICHLET, ops))
                     if kind is ProblemKind.BUCKLING else assemble(domain, kind))
    return ops[kind]


def solve_shape(label: str, shape: Shape, problems: Mapping[ProblemKind, int], h: float, levels: int):
    """One planar domain's spectra on meshes h, h/2, ..., and their Richardson extrapolations.

    ``problems`` maps each problem kind to its number of eigenvalues m.
    Returns (bundle, per-level spectra, errors): the `DomainSpectra` of
    the spectra extrapolated from the two finest levels, {kind: per-level
    spectra list} and {kind: the exception its solve raised}. A kind that
    failed is missing from the first two; the other kinds still solve.
    """
    if levels < 2:
        raise ValueError(f"extrapolation needs at least 2 mesh levels, got {levels}")
    per_level = {kind: [] for kind in problems}
    errors = {}
    for lev in range(levels):
        if not per_level:
            break
        try:
            domain = rasterize(shape, h / 2**lev)
        except Exception as exc:
            errors.update(dict.fromkeys(per_level, exc))
            per_level.clear()
            break
        ops, factors = {}, {}
        for kind in list(per_level):
            try:
                # only whole plates share a factor; a membrane's, or a parity block's, is freed after its solve
                shared = factors if kind in (ProblemKind.CLAMPED, ProblemKind.BUCKLING) else None
                per_level[kind].append(smallest_eigs(_operator(domain, kind, ops), problems[kind], shared))
            except Exception as exc:
                errors[kind] = exc
                del per_level[kind]
    bundle = DomainSpectra(label, 2, shape.area, **{kind.value: extrapolate(*spectra[-2:])
                                                    for kind, spectra in per_level.items()})
    return bundle, per_level, errors
