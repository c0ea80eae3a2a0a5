"""Rasterization, operator assembly and eigensolver against exact references."""

import dataclasses
import gc
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.special import jnp_zeros

from eigenineq import specfun
from eigenineq.balls import BallSpec, buckling_ball, clamped_ball, dirichlet_ball, rectangle_spectrum
from eigenineq.grid import (
    Annulus,
    Disk,
    DiscreteOperator,
    GridDomain,
    LShape,
    Polygon,
    RasterizeError,
    Rectangle,
    SolverError,
    assemble,
    extrapolate,
    poisson_solve,
    rasterize,
    smallest_eigs,
    solve_shape,
)
from eigenineq.grid import domain as domain_module
from eigenineq.grid import solve as solve_module
from eigenineq.grid.domain import _THETA_MIN
from eigenineq.spectra import ProblemKind, Provenance

from conftest import CORPUS


def discrete_square_eig(h, p, q):
    return (4.0 / h**2) * (math.sin(p * math.pi * h / 2.0) ** 2 + math.sin(q * math.pi * h / 2.0) ** 2)


class TestRasterize:
    def test_unit_square_counts(self):
        d = rasterize(Rectangle(1.0, 1.0), 0.25)
        # the sampled box runs one node past the bbox: x = -0.25 .. 1.25
        assert d.mask.shape == (7, 7) and (d.i0, d.j0) == (-1, -1) and d.node_count == 9

    def test_disk_area_convergence(self):
        d = rasterize(Disk(1.0), 1.0 / 128.0)
        assert abs(d.area_discrete - math.pi) / math.pi < 0.03

    def test_degenerate_and_disconnected(self):
        with pytest.raises(RasterizeError):
            rasterize(Rectangle(0.01, 0.01), 0.25)  # no strictly interior node
        barbell = Polygon(((0, 0), (1, 0), (1, 1), (0.65, 1), (0.65, 0.02),
                           (0.35, 0.02), (0.35, 1), (0, 1)))
        with pytest.raises(RasterizeError):
            rasterize(barbell, 0.2)

    def test_diagonal_contact_is_two_components(self):
        # squares meeting at the corner (0.55, 0.55): their nearest nodes
        # (0.5, 0.5) and (0.625, 0.625) are diagonal neighbours only
        bowtie = Polygon(((0, 0), (0.55, 0), (0.55, 0.55), (1, 0.55), (1, 1), (0.55, 1), (0.55, 0.55), (0, 0.55)))
        with pytest.raises(RasterizeError, match="has 2 components"):
            rasterize(bowtie, 0.125)

    @pytest.mark.parametrize("steps", [48, 64, 96, 128, 192])
    def test_acute_corner_node_is_dropped(self, steps):
        # at h = 1/96 the node (5h, 2h) lies inside the acute corner at
        # (0.05, 0.02) with no interior 4-neighbour, a second component
        quad = Polygon(((0.05, 0.02), (1.3, 0.2), (1.0, 0.9), (0.2, 0.7)))
        d = rasterize(quad, 1.0 / steps)
        pad = np.pad(d.mask, 1)
        assert (pad[:-2, 1:-1] | pad[2:, 1:-1] | pad[1:-1, :-2] | pad[1:-1, 2:])[d.mask].all()
        if steps == 96:
            assert d.node_count == 6650

    def test_one_isolated_node_is_an_empty_mask(self):
        # the square holds the single node (0.25, 0.25), which has no stencil
        with pytest.raises(RasterizeError, match="empty mask"):
            rasterize(Polygon(((0.2, 0.2), (0.3, 0.2), (0.3, 0.3), (0.2, 0.3))), 0.25)

    def test_area_mismatch_rejected(self):
        class MisstatedDisk(Disk):  # contains() draws a unit disk, area claims twice as much
            @property
            def area(self):
                return 2.0 * math.pi

        with pytest.raises(RasterizeError, match="area mismatch"):
            rasterize(MisstatedDisk(1.0), 1.0 / 32.0)

    def test_closed_polygon_ring_matches_open_ring(self):
        ring = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            closed = rasterize(Polygon((*ring, ring[0])), 1.0 / 8.0)
        opened = rasterize(Polygon(ring), 1.0 / 8.0)
        assert np.array_equal(closed.mask, opened.mask)
        assert (closed.i0, closed.j0) == (opened.i0, opened.j0)

    def test_cli_start_does_not_import_scipy_ndimage(self):
        code = (
            "import sys\n"
            "import eigenineq.cli\n"
            "assert 'scipy.ndimage' not in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_annulus_and_lshape_rasterize(self):
        a = rasterize(Annulus(0.4, 1.0), 1.0 / 64.0)
        assert abs(a.area_discrete - a.area_exact) < 2.0 * (2 * math.pi * 1.4) * a.h
        l = rasterize(LShape(0.5, 0.5), 1.0 / 32.0)
        assert abs(l.area_exact - 0.75) < 1e-12


class TestAssembly:
    def test_square_smallest_matches_separable_stencil(self):
        h = 0.25
        op = assemble(rasterize(Rectangle(1.0, 1.0), h), ProblemKind.DIRICHLET)
        s = smallest_eigs(op, 1)
        assert abs(s.values[0] - discrete_square_eig(h, 1, 1)) < 1e-12 * s.values[0]

    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_symmetry_exact(self, kind):
        op = assemble(rasterize(Disk(1.0), 1.0 / 16.0), kind)
        gap = abs(op.matrix - op.matrix.T)
        assert gap.nnz == 0 or gap.max() == 0.0
        if op.mass is not None:
            gap = abs(op.mass - op.mass.T)
            assert gap.nnz == 0 or gap.max() == 0.0

    def test_clamped_differs_from_squared_laplacian(self):
        d = rasterize(Rectangle(1.0, 1.0), 1.0 / 32.0)
        clamped = smallest_eigs(assemble(d, ProblemKind.CLAMPED), 1).values[0]
        dir_op = assemble(d, ProblemKind.DIRICHLET)
        navier = smallest_eigs(
            DiscreteOperator((dir_op.matrix @ dir_op.matrix).tocsr(), ProblemKind.CLAMPED, d), 1
        ).values[0]
        assert abs(clamped - navier) / navier > 0.01

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_operators_do_not_depend_on_the_lattice_box(self, name):
        # the same shape on its sampled box and on that box padded by one more exterior ring
        shape, h = CORPUS[name], 1.0 / 16.0
        d = rasterize(shape, h)
        assert shape.contains(*d.node_coordinates()).all()
        wider = GridDomain(shape, h, np.pad(d.mask, 1), d.i0 - 1, d.j0 - 1)
        for kind in ProblemKind:
            a, b = assemble(d, kind), assemble(wider, kind)
            pairs = [(a.matrix, b.matrix)] + ([(a.mass, b.mass)] if a.mass is not None else [])
            for x, y in pairs:
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(x, part), getattr(y, part)), (kind, part)

    def test_dirichlet_positive_definite(self):
        op = assemble(rasterize(Disk(1.0), 1.0 / 8.0), ProblemKind.DIRICHLET)
        assert np.all(np.linalg.eigvalsh(op.matrix.toarray()) > 0.0)
        cl = assemble(rasterize(Disk(1.0), 1.0 / 8.0), ProblemKind.CLAMPED)
        assert np.all(np.linalg.eigvalsh(cl.matrix.toarray()) > 0.0)


class TestCutLinks:
    @pytest.mark.parametrize("h", [1.0 / 32.0, 1.0 / 64.0])
    @pytest.mark.parametrize("shape", [Rectangle(1.0, 1.0), LShape(0.5, 0.5)], ids=["unit_square", "l_shape"])
    def test_lattice_aligned_shapes_keep_the_staircase_matrix(self, shape, h):
        d = rasterize(shape, h)
        got = assemble(d, ProblemKind.DIRICHLET).matrix
        want = ((4.0 * sparse.identity(d.node_count) - d.adjacency) / h**2).tocsr()
        assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)

    def test_disk_node_theta_is_its_distance_to_the_circle(self):
        # the node (15 h, 0) of a radius-0.95 disk at h = 1/16 has three
        # whole links and one cut at theta = (R - x) / h = 0.2
        r, h = 0.95, 1.0 / 16.0
        d = rasterize(Disk(r), h)
        xs, ys = d.node_coordinates()
        k = int(np.argmin(np.hypot(xs - 15 * h, ys)))
        theta = (r - 15 * h) / h
        assert d.dirichlet_diagonal[k] == pytest.approx(3.0 + 1.0 / theta, rel=1e-12)
        assert assemble(d, ProblemKind.DIRICHLET).matrix[k, k] == pytest.approx((3.0 + 1.0 / theta) / h**2, rel=1e-12)

    def test_theta_floor_caps_a_node_next_to_the_boundary(self):
        # the edge x = 1 + 1e-9 cuts the links from the nodes at x = 1 at theta = 1.6e-8
        d = rasterize(Rectangle(1.0 + 1e-9, 1.0), 1.0 / 16.0)
        assert d.dirichlet_diagonal.max() == pytest.approx(3.0 + 1.0 / _THETA_MIN, rel=1e-12)

    @pytest.mark.parametrize("h", [1.0 / 48.0, 1.0 / 64.0, 1.0 / 96.0, 1.0 / 192.0])
    @pytest.mark.parametrize("shape", [Disk(1.0), Rectangle(1.0, 1.0)], ids=["disk", "unit_square"])
    def test_square_symmetric_shapes_get_a_square_symmetric_diagonal(self, shape, h):
        # a node and its image sum the same cut-link terms; summed in link order, the disk's
        # diagonal was a last bit off its transpose (1.8e-15 at h = 1/64)
        d = rasterize(shape, h)
        box = np.zeros(d.mask.shape)
        box[d.mask] = d.dirichlet_diagonal
        for image in (box.T, box[::-1], box[:, ::-1]):
            assert np.array_equal(image, box)

    def test_residual_gate_scale_is_the_bulk_stencil(self, monkeypatch):
        h = 1.0 / 64.0
        op = assemble(rasterize(Disk(1.0), h), ProblemKind.DIRICHLET)
        bulk = 4.0 / h**2
        assert solve_module._operator_scale(op) == bulk
        assert op.matrix.diagonal().max() > 10.0 * bulk
        # eigenvalues off by 3x the gate: a max |diag| scale would pass them
        real = solve_module.eigsh

        def off(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            return vals + 3e-8 * bulk, vecs

        monkeypatch.setattr(solve_module, "eigsh", off)
        with pytest.raises(SolverError, match="residual"):
            smallest_eigs(op, 2)


class TestCutCells:
    def test_unit_square_nodes_are_the_closed_square(self):
        h = 1.0 / 32.0
        d = rasterize(Rectangle(1.0, 1.0), h)
        i, j = np.nonzero(d.cells.fraction)
        # the Neumann nodes run from the node (0, 0) to (1, 1); the padded box starts at (i0 - 1, j0 - 1)
        assert (i.min() + d.i0 - 1, j.min() + d.j0 - 1, i.max() + d.i0 - 1, j.max() + d.j0 - 1) == (0, 0, 32, 32)
        f = d.cells.fraction[i.min() : i.max() + 1, j.min() : j.max() + 1]
        assert np.all(f > 0.0) and assemble(d, ProblemKind.NEUMANN).dim == 33 * 33
        assert np.all(f[1:-1, 1:-1] == 1.0)
        assert np.all(np.concatenate([f[0, 1:-1], f[-1, 1:-1], f[1:-1, 0], f[1:-1, -1]]) == 0.5)

    @pytest.mark.parametrize("steps", [16, 32, 64, 128])
    @pytest.mark.parametrize("name", list(CORPUS))
    def test_fractions_sum_to_the_area(self, name, steps):
        # a cell holding a boundary corner is cut by a chord: measured -0.26 to -0.54 h^2
        h = 1.0 / steps
        d = rasterize(CORPUS[name], h)
        assert abs(d.cells.fraction.sum() * h * h - d.area_exact) <= h * h

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_stiffness_annihilates_constants(self, name):
        # A = S K S / h^2 with S = diag(f^(-1/2)), so K 1 = 0 reads A f^(1/2) = 0
        h = 1.0 / 32.0
        d = rasterize(CORPUS[name], h)
        f = d.cells.fraction[d.cells.fraction > 0.0]
        a = assemble(d, ProblemKind.NEUMANN).matrix
        k = sparse.diags(np.sqrt(f)) @ a @ sparse.diags(np.sqrt(f)) * h**2
        assert abs(k).max() >= 1.0
        np.testing.assert_allclose(k @ np.ones(f.size), 0.0, atol=1e-12)

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_stiffness_diagonal_sums_the_links_between_cells(self, name):
        # K's diagonal adds the four apertures around each cell, so it is W 1 only if every aperture
        # it adds links two Neumann nodes; h is a power of 2, so A h^2 / (s_i s_j) recovers K to an ulp
        h = 1.0 / 32.0
        d = rasterize(CORPUS[name], h)
        s = d.cells.fraction[d.cells.fraction > 0.0] ** -0.5
        a = assemble(d, ProblemKind.NEUMANN).matrix.tocoo()
        k = a.data * h**2 / (s[a.row] * s[a.col])
        off = a.row != a.col
        w_sum = np.bincount(a.row[off], -k[off], minlength=s.size)
        np.testing.assert_allclose(k[~off][np.argsort(a.row[~off])], w_sum, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("h", [1.0 / 48.0, 1.0 / 64.0, 1.0 / 96.0, 1.0 / 192.0])
    @pytest.mark.parametrize(("shape", "square"), [(Disk(1.0), True), (Annulus(0.5, 1.0), True),
                                                   (CORPUS["ellipse_2to1"], False)],
                             ids=["disk", "annulus", "ellipse_2to1"])
    def test_symmetric_shapes_get_symmetric_cells(self, shape, square, h):
        # summed as a vertex walk from each cell's lower-left corner, the disk's fractions were up to
        # 3.8e-15 off their mirror images at h = 1/64
        cells = rasterize(shape, h).cells
        f, ax, ay = cells.fraction, cells.aperture_x, cells.aperture_y
        for flip in (np.s_[::-1], np.s_[:, ::-1]):
            assert np.array_equal(f[flip], f) and np.array_equal(ax[flip], ax) and np.array_equal(ay[flip], ay)
        if square:
            assert np.array_equal(f.T, f) and np.array_equal(ax.T, ay)

    def test_a_cell_with_one_inside_corner_is_a_right_triangle(self):
        # the line through (0.1, -0.5) and (-0.5, -0.2) cuts the bottom of the cell [-1/2, 1/2]^2 at
        # theta = 0.6 from its lower-left corner, the one corner inside, and the left side at theta = 0.3
        # (located to the 1e-12 band within which `Polygon.contains` counts a point as on an edge)
        cells = domain_module._cell_geometry(Polygon(((-3.0, -3.0), (1.3, -1.1), (-1.7, 0.4))), -1, -1, (3, 3), 1.0)
        bottom, left = cells.aperture_y[1, 0], cells.aperture_x[0, 1]
        assert (bottom, left) == (pytest.approx(0.6, abs=1e-10), pytest.approx(0.3, abs=1e-10))
        assert cells.fraction[1, 1] == pytest.approx(0.5 * bottom * left, rel=0.0, abs=2.2e-16)

    # the saddle cells (two opposite corners inside, two outside) of _SPIKE as (p, q, fraction) on the padded
    # box, from the shoelace vertex walk that the Green's form replaced: with that walk in `_cell_geometry`,
    # `[(int(p), int(q), float(d.cells.fraction[p, q])) for p, q in zip(*np.nonzero(saddle))]`, for d and
    # saddle as in the test below, printed these lists at h = 1/8, 1/16 and 1/24
    _SPIKE = Polygon(((0, 0), (0.5, 0), (0.5, 0.47), (1, 0.97), (0.97, 1), (0.47, 0.5), (0, 0.5)))
    _SADDLES = {
        8: [(6, 6, 0.61999999997908)] + [(p, p, 0.42239999997568) for p in range(7, 10)],
        16: [(10, 10, 0.73999999996632)] + [(p, p, 0.72959999996672) for p in range(11, 18)],
        24: [(p, p, 0.9215999999731199) for p in range(14, 26)],
    }

    @pytest.mark.parametrize("steps", list(_SADDLES))
    def test_saddle_cells_keep_the_vertex_walk_fractions(self, steps):
        # a saddle cell has two chords, each from the side where the walk leaves the shape to the next cut side
        h = 1.0 / steps
        d = rasterize(self._SPIKE, h)
        nx, ny = d.cells.fraction.shape
        c = self._SPIKE.contains((np.arange(nx + 1)[:, None] + d.i0 - 1.5) * h,
                                 (np.arange(ny + 1)[None, :] + d.j0 - 1.5) * h)
        saddle = (c[:-1, :-1] == c[1:, 1:]) & (c[1:, :-1] == c[:-1, 1:]) & (c[:-1, :-1] != c[1:, :-1])
        p, q = np.nonzero(saddle)
        pinned = np.array(self._SADDLES[steps])
        assert np.array_equal(p, pinned[:, 0]) and np.array_equal(q, pinned[:, 1])
        np.testing.assert_allclose(d.cells.fraction[p, q], pinned[:, 2], rtol=0.0, atol=2.2e-16)

    @pytest.mark.parametrize("shape", [CORPUS["disk"], CORPUS["ellipse_2to1"], CORPUS["l_shape"],
                                       Polygon(((0.05, 0.02), (1.3, 0.2), (1.0, 0.9), (0.2, 0.7)))],
                             ids=["disk", "ellipse_2to1", "l_shape", "acute_quad"])
    def test_padded_box_holds_every_cut_cell(self, shape):
        h = 1.0 / 96.0
        d = rasterize(shape, h)
        nx, ny = d.cells.fraction.shape
        wider = domain_module._cell_geometry(shape, d.i0 - 2, d.j0 - 2, (nx + 2, ny + 2), h)
        assert np.array_equal(wider.fraction[1:-1, 1:-1], d.cells.fraction)
        assert not wider.fraction[[0, -1]].any() and not wider.fraction[:, [0, -1]].any()

    def test_disconnected_cells_rejected(self):
        # two separate cells would be two zero modes, and mu_1 would read 0
        d = rasterize(Rectangle(1.0, 1.0), 0.25)
        box = d.cells.fraction.shape
        fraction, aperture_y = np.zeros(box), np.zeros((box[0], box[1] - 1))
        fraction[4, [1, 2, 4, 5]] = 1.0  # two pairs of cells along y, linked within each pair only
        aperture_y[4, [1, 4]] = 1.0
        d.cells = domain_module.CellGeometry(fraction, np.zeros((box[0] - 1, box[1])), aperture_y)
        with pytest.raises(RasterizeError, match="form 2 components"):
            assemble(d, ProblemKind.NEUMANN)

    def test_dirichlet_only_solve_never_computes_the_cells(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("cell geometry computed")

        monkeypatch.setattr(domain_module, "_cell_geometry", refuse)
        problems = {ProblemKind.DIRICHLET: 3, ProblemKind.BUCKLING: 2}
        _, _, errors = solve_shape("disk", Disk(1.0), problems, 1.0 / 16.0, 2)
        assert not errors
        with pytest.raises(AssertionError, match="cell geometry computed"):
            assemble(rasterize(Disk(1.0), 1.0 / 16.0), ProblemKind.NEUMANN)


_AXES = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIAGONALS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def stencil_matrix(mask, kind):
    """Integer Dirichlet or clamped matrix on ``mask``, written out node by node in mask order."""
    nodes = {tuple(p): k for k, p in enumerate(np.argwhere(mask))}
    a = np.zeros((len(nodes), len(nodes)))
    for (i, j), k in nodes.items():
        for di, dj in _AXES:
            near = nodes.get((i + di, j + dj))
            if kind is ProblemKind.CLAMPED:
                far = nodes.get((i + 2 * di, j + 2 * dj))
                if near is None:
                    a[k, k] += 1  # w = 0 on the first ring; the second-ring ghost reflects onto the centre
                else:
                    a[k, near] = -8
                    if far is not None:
                        a[k, far] = 1  # only through an interior mid-node
            elif near is not None:
                a[k, near] = -1
        if kind is ProblemKind.DIRICHLET:
            a[k, k] = 4
        if kind is ProblemKind.CLAMPED:
            a[k, k] += 20
            for di, dj in _DIAGONALS:
                if (i + di, j + dj) in nodes:
                    a[k, nodes[i + di, j + dj]] = 2
    return a


@dataclasses.dataclass(frozen=True)
class OpenBoxes:
    """Union of the open boxes (i - 1, i + 1) h x (j - 1, j + 1) h around the '#' nodes (i, j) of ``rows``.

    It holds exactly the '#' nodes, and every edge of it passes through
    lattice nodes, so every link to an exterior node is cut at theta = 1.
    """

    label: str
    rows: tuple[str, ...]
    h: float

    @property
    def nodes(self):
        return np.array([[c == "#" for c in row] for row in self.rows])

    def contains(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x) / self.h, np.asarray(y) / self.h)
        inside = np.zeros(x.shape, dtype=bool)
        for i, j in np.argwhere(self.nodes):
            inside |= (np.abs(x - i) < 1.0) & (np.abs(y - j) < 1.0)
        return inside

    @property
    def area(self):
        # the lattice squares [a, a + 1] h x [b, b + 1] h that some box covers
        squares = {(i + di, j + dj) for i, j in np.argwhere(self.nodes) for di in (-1, 0) for dj in (-1, 0)}
        return len(squares) * self.h**2

    @property
    def bbox(self):
        rows, cols = self.nodes.shape
        return (-self.h, rows * self.h, -self.h, cols * self.h)


class TestStencil:
    MASKS = {
        # (0, 1) and (2, 1) are two apart along x through the exterior mid-node (1, 1)
        "c_shape": ("###",
                    "#..",
                    "###"),
        # a 3x3 block with a one-node-wide arm
        "arm": ("###...",
                "######",
                "###..."),
        "block": ("###",
                  "###",
                  "###"),
    }

    def domain(self, name, h=1.0):
        shape = OpenBoxes(name, self.MASKS[name], h)
        d = rasterize(shape, h)
        assert np.array_equal(np.argwhere(d.mask) + (d.i0, d.j0), np.argwhere(shape.nodes))
        return d

    @pytest.mark.parametrize("kind, power", [(ProblemKind.DIRICHLET, 2), (ProblemKind.CLAMPED, 4)])
    @pytest.mark.parametrize("name", ["c_shape", "arm"])
    def test_matches_stencil_written_out(self, name, kind, power):
        d = self.domain(name, h=0.25)
        matrix = assemble(d, kind).matrix
        expected = stencil_matrix(d.mask, kind) / d.h**power
        np.testing.assert_array_equal(matrix.toarray(), expected)
        assert matrix.nnz == np.count_nonzero(expected)  # no stored zeros

    def test_exterior_mid_node_drops_the_link(self):
        c_shape = assemble(self.domain("c_shape"), ProblemKind.CLAMPED).matrix
        block = assemble(self.domain("block"), ProblemKind.CLAMPED).matrix
        # (0, 1) -> (2, 1): nodes 1 -> 5 of the C, 1 -> 7 of the block
        assert 5 not in c_shape[1].indices and c_shape[1, 1] == 22.0
        assert block[1, 7] == 1.0 and block[1, 1] == 21.0


class TestSmallestEigs:
    def test_square_discrete_closed_form_h64(self):
        h = 1.0 / 64.0
        s = smallest_eigs(assemble(rasterize(Rectangle(1.0, 1.0), h), ProblemKind.DIRICHLET), 3)
        ref = sorted([discrete_square_eig(h, 1, 1), discrete_square_eig(h, 1, 2), discrete_square_eig(h, 2, 1)])
        for got, want in zip(s.values, ref):
            assert abs(got - want) < 1e-9 * want

    def test_neumann_square_zero_mode_and_mu1_within_3e_8(self):
        # measured 3.2e-9: a 9x margin
        ext = solve_shape("square", Rectangle(1.0, 1.0), {ProblemKind.NEUMANN: 3}, 1.0 / 128.0, 2)[0].neumann
        assert abs(ext.values[0]) <= 1e-8 * ext.values[1]
        assert abs(ext.values[1] - math.pi**2) / math.pi**2 < 3e-8

    def test_disk_dirichlet_extrapolates_to_bessel_zero(self):
        ext = solve_shape("disk", Disk(1.0), {ProblemKind.DIRICHLET: 3}, 1.0 / 64.0, 2)[0].dirichlet
        ref = dirichlet_ball(BallSpec(2), 1).values[0]
        assert abs(ext.values[0] - ref) / ref < 0.005
        assert abs(ext.values[1] / ext.values[0] - 2.5387) < 5e-3

    def test_neumann_disk_mu1_within_1e_5(self):
        # also pins the deriv-zero root against the grid oracle; measured 1.4e-6: a 7x margin
        ext = solve_shape("disk", Disk(1.0), {ProblemKind.NEUMANN: 2}, 1.0 / 64.0, 2)[0].neumann
        root_sq = specfun.bessel_j_deriv_zero(1.0, 1) ** 2
        assert abs(ext.values[1] - root_sq) / root_sq < 1e-5

    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_matches_dense_solve_on_lshape(self, kind):
        op = assemble(rasterize(LShape(0.5, 0.5), 1.0 / 24.0), kind)
        assert 200 < op.dim < 600
        m = 6
        got = np.array(smallest_eigs(op, m).values)
        mass = None if op.mass is None else op.mass.toarray()
        want = scipy.linalg.eigh(op.matrix.toarray(), mass, eigvals_only=True)[:m]
        # the Neumann zero mode is compared on the scale of the spectrum
        atol = 1e-10 * want[-1] if kind is ProblemKind.NEUMANN else 0.0
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=atol)

    def test_neumann_zero_mode_is_exactly_zero(self):
        op = assemble(rasterize(LShape(0.5, 0.5), 1.0 / 24.0), ProblemKind.NEUMANN)
        values = smallest_eigs(op, 3).values
        assert values[0] == 0.0 and values[1] > 0.0

    def test_singular_factorization_reported(self):
        d = rasterize(Rectangle(1.0, 1.0), 0.125)
        zero = sparse.csr_matrix((d.node_count, d.node_count))
        with pytest.raises(SolverError):
            smallest_eigs(DiscreteOperator(zero, ProblemKind.DIRICHLET, d), 2)

    def test_m_bounds_validated(self):
        op = assemble(rasterize(Rectangle(1.0, 1.0), 0.25), ProblemKind.DIRICHLET)
        with pytest.raises(ValueError):
            smallest_eigs(op, 9)


class TestExtrapolate:
    def test_fixed_point(self):
        h = 1.0 / 8.0
        s = smallest_eigs(assemble(rasterize(Rectangle(1.0, 1.0), h), ProblemKind.DIRICHLET), 2)
        fake_coarse = dataclasses.replace(s, mesh_h=2 * h)
        ext = extrapolate(fake_coarse, s)
        assert ext.values == s.values
        assert ext.provenance is Provenance.DISCRETE_EXTRAPOLATED

    def test_square_lambda1_converges(self):
        ext = solve_shape("square", Rectangle(1.0, 1.0), {ProblemKind.DIRICHLET: 1}, 1.0 / 32.0, 2)[0].dirichlet
        assert abs(ext.values[0] - 2.0 * math.pi**2) / (2.0 * math.pi**2) < 1e-4

    def test_metadata_mismatch_rejected(self):
        _, per_level, _ = solve_shape("square", Rectangle(1.0, 1.0), {ProblemKind.DIRICHLET: 2, ProblemKind.NEUMANN: 2},
                                      1.0 / 8.0, 2)
        sa, sn = per_level[ProblemKind.DIRICHLET], per_level[ProblemKind.NEUMANN]
        with pytest.raises(ValueError, match="kinds"):
            extrapolate(sa[0], sn[1])
        with pytest.raises(ValueError, match="lengths"):
            extrapolate(sa[0], dataclasses.replace(sa[1], values=sa[1].values[:1]))
        with pytest.raises(ValueError, match="ratio"):
            extrapolate(sa[1], sa[0])  # wrong ratio direction

    def test_convergence_order_on_square(self):
        # |lambda_h - extrapolated| shrinks by >= 3.5x per halving
        _, per_level, _ = solve_shape("square", Rectangle(1.0, 1.0), {ProblemKind.DIRICHLET: 1}, 1.0 / 16.0, 3)
        spectra = per_level[ProblemKind.DIRICHLET]
        exact = 2.0 * math.pi**2
        errs = [abs(s.values[0] - exact) for s in spectra]
        assert errs[0] / errs[1] > 3.5 and errs[1] / errs[2] > 3.5


_FOUR = {ProblemKind.DIRICHLET: 5, ProblemKind.NEUMANN: 5, ProblemKind.CLAMPED: 4, ProblemKind.BUCKLING: 3}
# the m that `verify` asks for at the corpus' m_max = 8, k_max = 10
_VERIFY_M = {ProblemKind.DIRICHLET: 11, ProblemKind.NEUMANN: 11, ProblemKind.CLAMPED: 9, ProblemKind.BUCKLING: 9}


class TestSolveShape:
    def test_one_rasterization_and_three_factors_per_level(self, monkeypatch):
        calls = {"rasterize": 0, "assemble": 0, "_factor_spd": 0}

        def counted(name):
            real = getattr(solve_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(solve_module, name, wrapper)

        for name in calls:
            counted(name)
        _, _, errors = solve_shape("l_shape", LShape(0.5, 0.5), _FOUR, 1.0 / 16.0, 2)
        assert not errors
        # per level: one mask; Dirichlet, Neumann and clamped matrices; the
        # buckling pair reuses the clamped factor
        assert calls == {"rasterize": 2, "assemble": 6, "_factor_spd": 6}

    def test_a_failing_rasterization_runs_once_per_level(self, monkeypatch):
        calls = []
        real = solve_module.rasterize
        monkeypatch.setattr(solve_module, "rasterize", lambda *args: calls.append(args) or real(*args))
        bundle, per_level, errors = solve_shape("sliver", Rectangle(0.01, 5.0), _FOUR, 0.25, 2)
        # the first level fails for every problem, so the second is never rasterized
        assert len(calls) == 1
        assert not per_level and bundle.dirichlet is None and set(errors) == set(_FOUR)
        for got in errors.values():
            assert isinstance(got, RasterizeError) and "empty mask" in str(got)

    def test_a_problem_failing_only_on_the_finer_level_is_dropped_alone(self, monkeypatch):
        h = 1.0 / 16.0
        real = solve_module.smallest_eigs

        def eigs(op, m, factors=None):
            if op.kind is ProblemKind.NEUMANN and op.domain.h < h:
                raise SolverError("injected fine-level failure")
            return real(op, m, factors)

        monkeypatch.setattr(solve_module, "smallest_eigs", eigs)
        bundle, per_level, errors = solve_shape("disk", Disk(1.0), _FOUR, h, 2)
        assert bundle.neumann is None and ProblemKind.NEUMANN not in per_level
        assert list(errors) == [ProblemKind.NEUMANN]
        assert str(errors[ProblemKind.NEUMANN]) == "injected fine-level failure"
        for kind in _FOUR.keys() - {ProblemKind.NEUMANN}:
            assert len(per_level[kind]) == 2 and getattr(bundle, kind.value) is not None

    def test_only_the_plate_factor_outlives_its_solve(self, monkeypatch):
        factors, live = [], []
        real_factor, real_eigs = solve_module._factor_spd, solve_module.smallest_eigs

        class Factor:  # a weakly referenceable holder of the LU's solve
            def __init__(self, lu):
                self.solve = lu.solve

        def factor(matrix):
            made = Factor(real_factor(matrix))
            factors.append(weakref.ref(made))
            return made

        def eigs(op, m, memo=None):
            gc.collect()
            live.append((op.kind, sum(ref() is not None for ref in factors)))
            return real_eigs(op, m, memo)

        monkeypatch.setattr(solve_module, "_factor_spd", factor)
        monkeypatch.setattr(solve_module, "smallest_eigs", eigs)
        solve_shape("disk", Disk(1.0), _FOUR, 1.0 / 32.0, 2)
        # the Dirichlet and Neumann factors are gone before the next solve; on
        # the whole h = 1/32 operators buckling still finds the clamped factor,
        # while the h = 1/64 plates split into parity blocks, whose factors
        # are freed block by block like a membrane's
        kinds = list(_FOUR)
        assert live == ([(kind, int(kind is ProblemKind.BUCKLING)) for kind in kinds]
                        + [(kind, 0) for kind in kinds])

    def test_shift_invert_solve_count(self, monkeypatch):
        # solve work weighted by the length of each right-hand side, since a
        # parity block's solve is about a quarter of the whole operator's
        work = []
        real = solve_module._factor_spd

        class CountedFactor:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                work.append(rhs.size)
                return self.lu.solve(rhs)

        monkeypatch.setattr(solve_module, "_factor_spd", lambda matrix: CountedFactor(real(matrix)))
        totals = []
        for tol in (solve_module._ARPACK_TOL, 0.0):
            monkeypatch.setattr(solve_module, "_ARPACK_TOL", tol)
            work.clear()
            _, _, errors = solve_shape("disk", Disk(1.0), _VERIFY_M, 1.0 / 32.0, 2)
            assert not errors
            totals.append(sum(work))
        # ARPACK stops at _ARPACK_TOL, not at machine epsilon: at most 440 / 516 of
        # its work, the ratio of the solve counts bound and measured on whole operators
        assert 0 < totals[0] <= 440 / 516 * totals[1]

    @pytest.mark.parametrize(("shape", "h"), [(Disk(1.0), 1.0 / 32.0), (LShape(0.5, 0.5), 1.0 / 16.0)],
                             ids=["disk", "l_shape"])
    def test_arpack_tolerance_leaves_extrapolation_at_round_off(self, monkeypatch, shape, h):
        stopped = solve_shape(shape.label, shape, _VERIFY_M, h, 2)[0]
        monkeypatch.setattr(solve_module, "_ARPACK_TOL", 0.0)
        converged = solve_shape(shape.label, shape, _VERIFY_M, h, 2)[0]
        for kind in _VERIFY_M:
            got, want = (np.array(getattr(bundle, kind.value).values) for bundle in (stopped, converged))
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), kind

    def test_shared_solve_matches_single_problem_solves(self):
        bundle, per_level, _ = solve_shape("l_shape", LShape(0.5, 0.5), _FOUR, 1.0 / 16.0, 2)
        for kind, m in _FOUR.items():
            alone, alone_levels, _ = solve_shape("l_shape", LShape(0.5, 0.5), {kind: m}, 1.0 / 16.0, 2)
            assert per_level[kind] == alone_levels[kind]
            assert getattr(bundle, kind.value) == getattr(alone, kind.value)


def _whole_solve(op, m):
    """The unsplit solve written out: one factor, one ARPACK shift-invert call, ascending values."""
    sigma = -0.5 * math.pi**2 / op.domain.area_exact if op.kind is ProblemKind.NEUMANN else 0.0
    lu = solve_module._factor_spd(op.matrix - sigma * sparse.identity(op.dim, format="csr") if sigma else op.matrix)
    v0 = np.random.default_rng(solve_module._SEED).standard_normal(op.dim)
    vals = np.sort(eigsh(op.matrix, k=m, M=op.mass, sigma=sigma, which="LM", v0=v0, ncv=min(op.dim, max(2 * m + 8, 24)),
                         OPinv=LinearOperator((op.dim,) * 2, matvec=lu.solve, dtype=float),
                         tol=solve_module._ARPACK_TOL)[0])
    if op.kind is ProblemKind.NEUMANN:
        vals[0] = 0.0
    return tuple(float(v) for v in vals)


class TestParityBlocks:
    """Operators that the lattice box's flips (and, on a square box, its transpose) leave unchanged solve as blocks."""

    @pytest.mark.parametrize(("shape", "h", "kind", "axes", "rtol"), [
        # a different factorization of the whole operator (COLAMD for MMD) moves the disk's
        # membrane by 7e-14 and its plates by 1.5e-10, so these bounds are round-off:
        # measured 5.3e-15 (disk), 1.8e-14 and 4.6e-13 (square), 1.3e-14 (ellipse), 1.5e-10 (plates)
        (Disk(1.0), 1.0 / 64.0, ProblemKind.DIRICHLET, [0, 1, 2], 1e-12),
        (Disk(1.0), 1.0 / 64.0, ProblemKind.CLAMPED, [0, 1, 2], 1e-9),
        (Disk(1.0), 1.0 / 64.0, ProblemKind.BUCKLING, [0, 1, 2], 1e-9),
        (Rectangle(1.0, 1.0), 1.0 / 128.0, ProblemKind.DIRICHLET, [0, 1, 2], 1e-12),
        (Rectangle(1.0, 1.0), 1.0 / 128.0, ProblemKind.NEUMANN, [0, 1, 2], 1e-12),
        (CORPUS["ellipse_2to1"], 1.0 / 128.0, ProblemKind.DIRICHLET, [0, 1], 1e-12),  # its box is not square
        # measured 1.5e-13 (disk) and 1.1e-13 (ellipse) on the cut-cell Neumann operators
        (Disk(1.0), 1.0 / 64.0, ProblemKind.NEUMANN, [0, 1, 2], 1e-12),
        (CORPUS["ellipse_2to1"], 1.0 / 128.0, ProblemKind.NEUMANN, [0, 1], 1e-12),
        # the L-shape's node set is not flip-invariant, but it is transpose-invariant: two blocks, no twin
        (LShape(0.5, 0.5), 1.0 / 128.0, ProblemKind.DIRICHLET, [2], 1e-12),
        (LShape(0.5, 0.5), 1.0 / 128.0, ProblemKind.CLAMPED, [2], 1e-9),
    ], ids=["disk-dirichlet", "disk-clamped", "disk-buckling", "square-dirichlet", "square-neumann",
            "ellipse-dirichlet", "disk-neumann", "ellipse-neumann", "l_shape-dirichlet", "l_shape-clamped"])
    def test_split_matches_the_whole_operator(self, shape, h, kind, axes, rtol):
        op = assemble(rasterize(shape, h), kind)
        assert op.dim >= solve_module._SPLIT_MIN_NODES and [axis for axis, _ in solve_module._flips(op)] == axes
        np.testing.assert_allclose(smallest_eigs(op, 11).values, _whole_solve(op, 11), rtol=rtol, atol=0.0)

    @pytest.mark.parametrize(("shape", "h", "kind"), [
        # theta differs on opposite sides, and its box is not square
        (CORPUS["rect_2to1"], 1.0 / 128.0, ProblemKind.DIRICHLET),
        (Polygon(((0.05, 0.02), (1.3, 0.2), (1.0, 0.9), (0.2, 0.7))), 1.0 / 128.0, ProblemKind.DIRICHLET),
    ], ids=["rect_2to1", "acute_quad"])
    def test_operators_without_an_exact_flip_keep_the_whole_solve(self, shape, h, kind):
        op = assemble(rasterize(shape, h), kind)
        assert op.dim >= solve_module._SPLIT_MIN_NODES and solve_module._flips(op) == []
        assert smallest_eigs(op, 11).values == _whole_solve(op, 11)

    def test_annulus_neumann_double_eigenvalue_keeps_both_copies(self):
        # solved whole, ARPACK stopped before the second copy of 40.159172 grew and returned it once, then
        # 40.843282; its D4 blocks hold one copy each in the odd-x/even-y block and its twin
        op = assemble(rasterize(Annulus(0.5, 1.0), 1.0 / 64.0), ProblemKind.NEUMANN)
        assert op.dim >= solve_module._SPLIT_MIN_NODES and len(solve_module._flips(op)) == 3
        values = smallest_eigs(op, 11).values
        sigma = -0.5 * math.pi**2 / op.domain.area_exact
        v0 = np.random.default_rng(solve_module._SEED).standard_normal(op.dim)
        converged = np.sort(eigsh(op.matrix, k=20, sigma=sigma, which="LM", v0=v0, tol=0)[0])[:11]
        np.testing.assert_allclose(values[1:], converged[1:], rtol=1e-12, atol=0.0)
        assert values[-2] == values[-1] == pytest.approx(40.159172, rel=1e-7)

    def test_a_short_block_is_solved_again(self, monkeypatch):
        op = assemble(rasterize(Disk(1.0), 1.0 / 64.0), ProblemKind.DIRICHLET)
        want = smallest_eigs(op, 11).values
        real, asked = solve_module._block_eigs, []

        def first_short(op, q, sigma, k, factors):
            asked.append(k)
            return real(op, q, sigma, 1 if len(asked) == 1 else k, factors)

        monkeypatch.setattr(solve_module, "_block_eigs", first_short)
        got = smallest_eigs(op, 11).values
        # five blocks and the twin: each solved block is asked for ceil(11 / 6) + 2 = 4 values; the fully
        # even block returns only lambda_1, below the merged 11th value, so it is solved for 11
        assert asked == [4, 4, 4, 4, 4, 11]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_the_twin_block_is_copied_not_solved(self, monkeypatch):
        op = assemble(rasterize(Disk(1.0), 1.0 / 64.0), ProblemKind.DIRICHLET)
        real, returned = solve_module._block_eigs, []

        def record(*args):
            returned.append(real(*args))
            return returned[-1]

        monkeypatch.setattr(solve_module, "_block_eigs", record)
        values = smallest_eigs(op, 11).values
        assert len(returned) == 5
        # the odd-x/even-y block's values below the 11th (the odd angular orders) each come twice, bit for bit
        source = [float(v) for v in returned[4][0] if v < values[-1]]
        assert len(source) >= 3 and all(values.count(v) == 2 for v in source)

    @pytest.mark.parametrize("kind", [ProblemKind.DIRICHLET, ProblemKind.CLAMPED])
    def test_disk_double_eigenvalues_keep_their_copies_together(self, kind):
        # the lattice disk's square symmetry pairs the cos and sin modes of odd angular order exactly;
        # one copy is solved in the odd-x/even-y block and the other is its transpose twin's copy of it,
        # so the copies are equal (even orders split by O(h^2) on the lattice)
        op = assemble(rasterize(Disk(1.0), 1.0 / 64.0), kind)
        values = np.array(smallest_eigs(op, 11).values)
        gaps = np.diff(values) / values[1:]
        doubles = gaps[gaps < 1e-6]
        assert doubles.size >= 3 and np.all(doubles == 0.0)

    @pytest.mark.parametrize(("h", "m"), [(0.25, 1), (0.125, 1), (0.125, 5), (0.0625, 5)])
    def test_tiny_meshes_solve_with_the_size_rule_off(self, monkeypatch, h, m):
        # 9 nodes split into solved blocks of 3, 1, 1, 0 and 2, too small for m + 2, so they stay whole;
        # 49 into 10, 6, 6, 3 and 12, which split for m = 1 and stay whole for m = 5; 225 split for m = 5
        monkeypatch.setattr(solve_module, "_SPLIT_MIN_NODES", 0)
        op = assemble(rasterize(Rectangle(1.0, 1.0), h), ProblemKind.DIRICHLET)
        assert len(solve_module._flips(op)) == 3
        want = scipy.linalg.eigh(op.matrix.toarray(), eigvals_only=True)[:m]
        np.testing.assert_allclose(smallest_eigs(op, m).values, want, rtol=1e-12)


# closed-form Dirichlet spectra of the swept corpus shapes (the ellipse has none)
_SWEEP_EXACT = {
    "disk": lambda m: dirichlet_ball(BallSpec(2), m),
    "ellipse_2to1": None,
    "rect_2to1": lambda m: rectangle_spectrum(math.sqrt(2.0), math.sqrt(2.0) / 2.0, ProblemKind.DIRICHLET, m),
    "rect_sqrt8_sqrt3": lambda m: rectangle_spectrum(math.sqrt(8.0), math.sqrt(3.0), ProblemKind.DIRICHLET, m),
}


@pytest.mark.parametrize("h0", [1.0 / 16.0, 1.0 / 24.0, 1.0 / 32.0], ids=["h16", "h24", "h32"])
@pytest.mark.parametrize("name", list(_SWEEP_EXACT))
def test_dirichlet_sweep_is_second_order_and_within_its_allowance(name, h0):
    # three levels h0, h0/2, h0/4 on the off-lattice corpus shapes
    m = _VERIFY_M[ProblemKind.DIRICHLET]
    bundle, per_level, _ = solve_shape(name, CORPUS[name], {ProblemKind.DIRICHLET: m}, h0, 3)
    levels, ext = per_level[ProblemKind.DIRICHLET], bundle.dirichlet
    lam1 = [s.values[0] for s in levels]
    order = math.log2((lam1[0] - lam1[1]) / (lam1[1] - lam1[2]))
    assert 1.8 <= order <= 2.2
    if _SWEEP_EXACT[name] is not None:
        exact = np.array(_SWEEP_EXACT[name](m).values)
        err = np.abs(np.array(ext.values) - exact) / exact
        assert np.all(err <= 2.0 * ext.allowance)


def _neumann_disk(m):
    """0, then the squared zeros of J_n', once for n = 0 and twice for n >= 1, ascending."""
    roots = np.concatenate([jnp_zeros(0, m)] + [np.repeat(jnp_zeros(n, m), 2) for n in range(1, m)])
    return np.concatenate([[0.0], np.sort(roots)[: m - 1] ** 2])


def _neumann_rectangle(name):
    shape = CORPUS[name]
    return lambda m: np.array(rectangle_spectrum(shape.width, shape.height, ProblemKind.NEUMANN, m).values)


# leading Neumann values of the corpus shapes: closed forms; the 2:1 ellipse's
# mu_1 from Ritz; the L-shape's mu_1..mu_5 from Trefethen & Betcke, "Computed
# eigenmodes of planar regions" (Contemp. Math. 412, 2006), whose L has side 2
_NEUMANN_EXACT = {
    "unit_square": _neumann_rectangle("unit_square"),
    "rect_2to1": _neumann_rectangle("rect_2to1"),
    "rect_sqrt8_sqrt3": _neumann_rectangle("rect_sqrt8_sqrt3"),
    "disk": _neumann_disk,
    "ellipse_2to1": lambda m: np.array([0.0, 3.51028564]),
    "l_shape": lambda m: 4.0 * np.array([0.0, 1.4756218, 3.5340314, math.pi**2, math.pi**2, 11.389479]),
}


@pytest.mark.parametrize("h0", [1.0 / 16.0, 1.0 / 24.0, 1.0 / 32.0], ids=["h16", "h24", "h32"])
@pytest.mark.parametrize("name", list(_NEUMANN_EXACT))
def test_neumann_sweep_is_within_its_allowance(name, h0):
    # two levels h0, h0/2: every value with a reference within 2x the
    # allowance (measured at most 0.27x, on the L-shape)
    m = _VERIFY_M[ProblemKind.NEUMANN]
    bundle, per_level, _ = solve_shape(name, CORPUS[name], {ProblemKind.NEUMANN: m}, h0, 2)
    levels, ext = per_level[ProblemKind.NEUMANN], bundle.neumann
    exact = _NEUMANN_EXACT[name](m)
    live = exact > 0.0
    err = np.abs(np.array(ext.values[: exact.size])[live] - exact[live]) / exact[live]
    assert np.all(err <= 2.0 * ext.allowance)
    if name == "unit_square":
        # off-lattice errors are near 1e-5 and change sign, so only the square's order is asserted
        e0, e1 = (abs(s.values[1] - math.pi**2) for s in levels)
        assert 1.8 <= math.log2(e0 / e1) <= 2.2


def quotient(op, x):
    """(x, A x) / (x, x) for a standard (mass-free) operator."""
    return float(x @ (op.matrix @ x)) / float(x @ x)


class TestRayleighQuotient:
    def test_eigenvector_reproduces_eigenvalue(self):
        d = rasterize(Rectangle(1.0, 1.0), 1.0 / 16.0)
        op = assemble(d, ProblemKind.DIRICHLET)
        lam = smallest_eigs(op, 1).values[0]
        xs, ys = d.node_coordinates()
        vec = np.sin(math.pi * xs) * np.sin(math.pi * ys)
        assert quotient(op, vec) >= lam - 1e-10
        dense = op.matrix.toarray()
        w, v = np.linalg.eigh(dense)
        assert abs(quotient(op, v[:, 0]) - w[0]) < 1e-10 * abs(w[0])

    def test_random_vector_above_minimum(self):
        d = rasterize(Disk(1.0), 1.0 / 16.0)
        op = assemble(d, ProblemKind.DIRICHLET)
        lam = smallest_eigs(op, 1).values[0]
        rng = np.random.default_rng(7)
        for _ in range(5):
            assert quotient(op, rng.standard_normal(op.dim)) >= lam * (1.0 - 1e-12)


class TestInvariants:
    def test_dirichlet_domain_monotonicity(self):
        h = 1.0 / 32.0
        small = smallest_eigs(assemble(rasterize(Rectangle(0.75, 0.75), h), ProblemKind.DIRICHLET), 4)
        big = smallest_eigs(assemble(rasterize(Rectangle(1.0, 1.0), h), ProblemKind.DIRICHLET), 4)
        for lo, hi in zip(big.values, small.values):
            assert hi >= lo

    def test_faber_krahn_trend_equal_area(self):
        shapes = [Rectangle(1.0, 1.0), Rectangle(math.sqrt(2.0), math.sqrt(0.5)), Disk(1.0 / math.sqrt(math.pi))]
        lam1 = []
        for shape in shapes:
            ext = solve_shape(shape.label, shape, {ProblemKind.DIRICHLET: 1}, 1.0 / 64.0, 2)[0].dirichlet
            lam1.append(ext.values[0])
        assert lam1[2] < lam1[0] < lam1[1]

    def test_buckling_positive_and_disk_ratio(self):
        ext = solve_shape("disk", Disk(1.0), {ProblemKind.BUCKLING: 2}, 1.0 / 48.0, 2)[0].buckling
        assert all(v > 0.0 for v in ext.values)
        ball = buckling_ball(BallSpec(2), 2)
        assert abs(ext.values[1] / ext.values[0] - ball.values[1] / ball.values[0]) < 2e-2

    def test_clamped_disk_second_mode_matches_secular(self):
        # pins the l=1 assignment of the second clamped-ball eigenvalue
        ext = solve_shape("disk", Disk(1.0), {ProblemKind.CLAMPED: 2}, 1.0 / 48.0, 2)[0].clamped
        ball = clamped_ball(BallSpec(2), 2)
        for got, want in zip(ext.values, ball.values):
            assert abs(got - want) / want < 0.03


def test_poisson_solve_matches_radial_solution():
    d = rasterize(Disk(1.0), 1.0 / 64.0)
    u = poisson_solve(d, np.ones(d.node_count))
    xs, ys = d.node_coordinates()
    exact = (1.0 - xs**2 - ys**2) / 4.0
    assert np.max(np.abs(u - exact)) < 0.02
