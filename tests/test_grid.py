"""Rasterization, operator assembly and eigensolver against exact references."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

from eigenineq import specfun
from eigenineq.balls import BallSpec, buckling_ball, clamped_ball, dirichlet_ball
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
    rayleigh_quotient,
    smallest_eigs,
    solve_shape,
)
from eigenineq.spectra import ProblemKind, Provenance


def discrete_square_eig(h, p, q):
    return (4.0 / h**2) * (math.sin(p * math.pi * h / 2.0) ** 2 + math.sin(q * math.pi * h / 2.0) ** 2)


class TestRasterize:
    def test_unit_square_counts(self):
        d = rasterize(Rectangle(1.0, 1.0), 0.25)
        assert d.mask.shape == (3, 3) and d.node_count == 9

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
        assert (closed.x0, closed.y0) == (opened.x0, opened.y0)

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
            DiscreteOperator((dir_op.matrix @ dir_op.matrix).tocsr(), ProblemKind.CLAMPED, d.h, d), 1
        ).values[0]
        assert abs(clamped - navier) / navier > 0.01

    def test_dirichlet_positive_definite(self):
        op = assemble(rasterize(Disk(1.0), 1.0 / 8.0), ProblemKind.DIRICHLET)
        assert np.all(np.linalg.eigvalsh(op.matrix.toarray()) > 0.0)
        cl = assemble(rasterize(Disk(1.0), 1.0 / 8.0), ProblemKind.CLAMPED)
        assert np.all(np.linalg.eigvalsh(cl.matrix.toarray()) > 0.0)


_AXES = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIAGONALS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def stencil_matrix(mask, kind):
    """Integer matrix of ``kind`` on ``mask``, written out node by node in mask order."""
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
                a[k, k] += kind is ProblemKind.NEUMANN
        if kind is ProblemKind.DIRICHLET:
            a[k, k] = 4
        if kind is ProblemKind.CLAMPED:
            a[k, k] += 20
            for di, dj in _DIAGONALS:
                if (i + di, j + dj) in nodes:
                    a[k, nodes[i + di, j + dj]] = 2
    return a


class TestStencil:
    MASKS = {
        # (0, 1) and (2, 1) are two apart along x through the exterior mid-node (1, 1)
        "c_shape": ["###",
                    "#..",
                    "###"],
        # a 3x3 block with a one-node-wide arm: Neumann degrees 1 to 4
        "arm": ["###...",
                "######",
                "###..."],
    }

    def domain(self, name, h=1.0):
        mask = np.array([[c == "#" for c in row] for row in self.MASKS[name]])
        return GridDomain(mask, h, mask.sum() * h**2, name, 0.0, 0.0)

    @pytest.mark.parametrize("kind, power", [(ProblemKind.DIRICHLET, 2), (ProblemKind.NEUMANN, 2),
                                             (ProblemKind.CLAMPED, 4)])
    @pytest.mark.parametrize("name", list(MASKS))
    def test_matches_stencil_written_out(self, name, kind, power):
        d = self.domain(name, h=0.25)
        matrix = assemble(d, kind).matrix
        expected = stencil_matrix(d.mask, kind) / d.h**power
        np.testing.assert_array_equal(matrix.toarray(), expected)
        assert matrix.nnz == np.count_nonzero(expected)  # no stored zeros

    def test_exterior_mid_node_drops_the_link(self):
        c_shape = assemble(self.domain("c_shape"), ProblemKind.CLAMPED).matrix
        block = assemble(GridDomain(np.ones((3, 3), bool), 1.0, 9.0, "block", 0.0, 0.0), ProblemKind.CLAMPED).matrix
        # (0, 1) -> (2, 1): nodes 1 -> 5 of the C, 1 -> 7 of the block
        assert 5 not in c_shape[1].indices and c_shape[1, 1] == 22.0
        assert block[1, 7] == 1.0 and block[1, 1] == 21.0

    def test_one_node_arm_degrees(self):
        neumann = assemble(self.domain("arm"), ProblemKind.NEUMANN).matrix
        assert sorted(neumann.diagonal()) == [1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 4, 4]


class TestSmallestEigs:
    def test_square_discrete_closed_form_h64(self):
        h = 1.0 / 64.0
        s = smallest_eigs(assemble(rasterize(Rectangle(1.0, 1.0), h), ProblemKind.DIRICHLET), 3)
        ref = sorted([discrete_square_eig(h, 1, 1), discrete_square_eig(h, 1, 2), discrete_square_eig(h, 2, 1)])
        for got, want in zip(s.values, ref):
            assert abs(got - want) < 1e-9 * want

    def test_neumann_square_zero_mode_and_mu1(self):
        _, ext = solve_shape(Rectangle(1.0, 1.0), {ProblemKind.NEUMANN: 3}, 1.0 / 128.0, 2)[ProblemKind.NEUMANN]
        assert abs(ext.values[0]) <= 1e-8 * ext.values[1]
        assert abs(ext.values[1] - math.pi**2) / math.pi**2 < 0.01

    def test_disk_dirichlet_extrapolates_to_bessel_zero(self):
        _, ext = solve_shape(Disk(1.0), {ProblemKind.DIRICHLET: 3}, 1.0 / 64.0, 2)[ProblemKind.DIRICHLET]
        ref = dirichlet_ball(BallSpec(2), 1).values[0]
        assert abs(ext.values[0] - ref) / ref < 0.005
        assert abs(ext.values[1] / ext.values[0] - 2.5387) < 5e-3

    def test_neumann_disk_mu1_within_one_percent(self):
        # also pins the deriv-zero root against the grid oracle
        _, ext = solve_shape(Disk(1.0), {ProblemKind.NEUMANN: 2}, 1.0 / 64.0, 2)[ProblemKind.NEUMANN]
        root_sq = specfun.bessel_j_deriv_zero(1.0, 1) ** 2
        assert abs(ext.values[1] - root_sq) / root_sq < 0.01

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
            smallest_eigs(DiscreteOperator(zero, ProblemKind.DIRICHLET, d.h, d), 2)

    def test_m_bounds_validated(self):
        op = assemble(rasterize(Rectangle(1.0, 1.0), 0.25), ProblemKind.DIRICHLET)
        with pytest.raises(ValueError):
            smallest_eigs(op, 9)


class TestExtrapolate:
    def test_fixed_point(self):
        h = 1.0 / 8.0
        s = smallest_eigs(assemble(rasterize(Rectangle(1.0, 1.0), h), ProblemKind.DIRICHLET), 2)
        import dataclasses

        fake_coarse = dataclasses.replace(s, mesh_h=2 * h)
        ext = extrapolate(fake_coarse, s)
        assert ext.values == s.values
        assert ext.provenance is Provenance.DISCRETE_EXTRAPOLATED

    def test_square_lambda1_converges(self):
        _, ext = solve_shape(Rectangle(1.0, 1.0), {ProblemKind.DIRICHLET: 1}, 1.0 / 32.0, 2)[ProblemKind.DIRICHLET]
        assert abs(ext.values[0] - 2.0 * math.pi**2) / (2.0 * math.pi**2) < 1e-4

    def test_metadata_mismatch_rejected(self):
        sa, _ = solve_shape(Rectangle(1.0, 1.0), {ProblemKind.DIRICHLET: 2}, 1.0 / 8.0, 2)[ProblemKind.DIRICHLET]
        sb, _ = solve_shape(Rectangle(1.0, 2.0), {ProblemKind.DIRICHLET: 2}, 1.0 / 8.0, 2)[ProblemKind.DIRICHLET]
        with pytest.raises(ValueError):
            extrapolate(sa[0], sb[1])
        with pytest.raises(ValueError):
            extrapolate(sa[1], sa[0])  # wrong ratio direction

    def test_convergence_order_on_square(self):
        # |lambda_h - extrapolated| shrinks by >= 3.5x per halving
        spectra, _ = solve_shape(Rectangle(1.0, 1.0), {ProblemKind.DIRICHLET: 1}, 1.0 / 16.0, 3)[ProblemKind.DIRICHLET]
        exact = 2.0 * math.pi**2
        errs = [abs(s.values[0] - exact) for s in spectra]
        assert errs[0] / errs[1] > 3.5 and errs[1] / errs[2] > 3.5


_FOUR = {ProblemKind.DIRICHLET: 5, ProblemKind.NEUMANN: 5, ProblemKind.CLAMPED: 4, ProblemKind.BUCKLING: 3}
# the m that `verify` asks for at the corpus' m_max = 8, k_max = 10
_VERIFY_M = {ProblemKind.DIRICHLET: 11, ProblemKind.NEUMANN: 11, ProblemKind.CLAMPED: 9, ProblemKind.BUCKLING: 9}


class TestSolveShape:
    def test_one_rasterization_and_three_factors_per_level(self, monkeypatch):
        from eigenineq.grid import solve as solve_module

        calls = {"rasterize": 0, "assemble": 0, "_factor_spd": 0}

        def counted(name):
            real = getattr(solve_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(solve_module, name, wrapper)

        for name in calls:
            counted(name)
        solved = solve_shape(LShape(0.5, 0.5), _FOUR, 1.0 / 16.0, 2)
        assert not any(isinstance(got, Exception) for got in solved.values())
        # per level: one mask; Dirichlet, Neumann and clamped matrices; the
        # buckling pair reuses the clamped factor
        assert calls == {"rasterize": 2, "assemble": 6, "_factor_spd": 6}

    def test_shift_invert_solve_count(self, monkeypatch):
        from eigenineq.grid import solve as solve_module

        solves = []
        real = solve_module._factor_spd

        class CountedFactor:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                solves.append(1)
                return self.lu.solve(rhs)

        monkeypatch.setattr(solve_module, "_factor_spd", lambda matrix: CountedFactor(real(matrix)))
        solved = solve_shape(Disk(1.0), _VERIFY_M, 1.0 / 32.0, 2)
        assert not any(isinstance(got, Exception) for got in solved.values())
        # ARPACK stops at _ARPACK_TOL, not at machine epsilon (516 solves)
        assert 0 < len(solves) <= 440

    @pytest.mark.parametrize(("shape", "h"), [(Disk(1.0), 1.0 / 32.0), (LShape(0.5, 0.5), 1.0 / 16.0)],
                             ids=["disk", "l_shape"])
    def test_arpack_tolerance_leaves_extrapolation_at_round_off(self, monkeypatch, shape, h):
        from eigenineq.grid import solve as solve_module

        stopped = solve_shape(shape, _VERIFY_M, h, 2)
        monkeypatch.setattr(solve_module, "_ARPACK_TOL", 0.0)
        converged = solve_shape(shape, _VERIFY_M, h, 2)
        for kind in _VERIFY_M:
            got, want = np.array(stopped[kind][1].values), np.array(converged[kind][1].values)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), kind

    def test_shared_solve_matches_single_problem_solves(self):
        solved = solve_shape(LShape(0.5, 0.5), _FOUR, 1.0 / 16.0, 2)
        for kind, m in _FOUR.items():
            assert solved[kind] == solve_shape(LShape(0.5, 0.5), {kind: m}, 1.0 / 16.0, 2)[kind]


class TestRayleighQuotient:
    def test_eigenvector_reproduces_eigenvalue(self):
        d = rasterize(Rectangle(1.0, 1.0), 1.0 / 16.0)
        op = assemble(d, ProblemKind.DIRICHLET)
        lam = smallest_eigs(op, 1).values[0]
        xs, ys = d.node_coordinates()
        vec = np.sin(math.pi * xs) * np.sin(math.pi * ys)
        assert rayleigh_quotient(op, vec) >= lam - 1e-10
        dense = op.matrix.toarray()
        w, v = np.linalg.eigh(dense)
        assert abs(rayleigh_quotient(op, v[:, 0]) - w[0]) < 1e-10 * abs(w[0])

    def test_random_vector_above_minimum(self):
        d = rasterize(Disk(1.0), 1.0 / 16.0)
        op = assemble(d, ProblemKind.DIRICHLET)
        lam = smallest_eigs(op, 1).values[0]
        rng = np.random.default_rng(7)
        for _ in range(5):
            assert rayleigh_quotient(op, rng.standard_normal(op.dim)) >= lam * (1.0 - 1e-12)

    def test_buckling_pair_quotient_matches_explicit_form(self):
        d = rasterize(Disk(1.0), 1.0 / 16.0)
        op = assemble(d, ProblemKind.BUCKLING)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(op.dim)
        explicit = (x @ (op.matrix @ x)) / (x @ (op.mass @ x))
        assert abs(rayleigh_quotient(op, x) - explicit) < 1e-12 * abs(explicit)

    def test_zero_vector_rejected(self):
        op = assemble(rasterize(Rectangle(1.0, 1.0), 0.25), ProblemKind.DIRICHLET)
        with pytest.raises(ValueError):
            rayleigh_quotient(op, np.zeros(op.dim))


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
            _, ext = solve_shape(shape, {ProblemKind.DIRICHLET: 1}, 1.0 / 64.0, 2)[ProblemKind.DIRICHLET]
            lam1.append(ext.values[0])
        assert lam1[2] < lam1[0] < lam1[1]

    def test_buckling_positive_and_disk_ratio(self):
        _, ext = solve_shape(Disk(1.0), {ProblemKind.BUCKLING: 2}, 1.0 / 48.0, 2)[ProblemKind.BUCKLING]
        assert all(v > 0.0 for v in ext.values)
        ball = buckling_ball(BallSpec(2), 2)
        assert abs(ext.values[1] / ext.values[0] - ball.values[1] / ball.values[0]) < 2e-2

    def test_clamped_disk_second_mode_matches_secular(self):
        # pins the l=1 assignment of the second clamped-ball eigenvalue
        _, ext = solve_shape(Disk(1.0), {ProblemKind.CLAMPED: 2}, 1.0 / 48.0, 2)[ProblemKind.CLAMPED]
        ball = clamped_ball(BallSpec(2), 2)
        for got, want in zip(ext.values, ball.values):
            assert abs(got - want) / want < 0.03


def test_poisson_solve_matches_radial_solution():
    d = rasterize(Disk(1.0), 1.0 / 64.0)
    u = poisson_solve(d, np.ones(d.node_count))
    xs, ys = d.node_coordinates()
    exact = (1.0 - xs**2 - ys**2) / 4.0
    assert np.max(np.abs(u - exact)) < 0.02
