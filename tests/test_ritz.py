"""Rayleigh–Ritz plates: closed forms, published values, monotonicity, parity blocks, FD agreement."""

import math

import numpy as np
import pytest
from scipy import linalg

from eigenineq import ritz, sources
from eigenineq.balls import BallSpec, buckling_ball, clamped_ball
from eigenineq.grid import Disk, Ellipse, LShape, Rectangle, SolverError, solve_shape
from eigenineq.spectra import ProblemKind, Provenance

CLAMPED, BUCKLING = ProblemKind.CLAMPED, ProblemKind.BUCKLING
PLATES = (CLAMPED, BUCKLING)
# the corpus shapes whose plates verify takes from ritz (tests/conftest.py)
RITZ_CORPUS = {
    "unit_square": Rectangle(1.0, 1.0),
    "rect_2to1": Rectangle(math.sqrt(2.0), math.sqrt(2.0) / 2.0),
    "rect_sqrt8_sqrt3": Rectangle(math.sqrt(8.0), math.sqrt(3.0)),
    "ellipse_2to1": Ellipse(1.0, 0.5),
}
SQUARE_GAMMA_1 = 1294.9339795917  # Bjorstad & Tjostheim, BIT 39 (1999)
ELLIPSE_GAMMA_1 = 749.524167547
ELLIPSE_LAMBDA_1 = 41.735019668778


@pytest.mark.parametrize("kind, ball", [(CLAMPED, clamped_ball), (BUCKLING, buckling_ball)])
def test_unit_disk_as_an_ellipse_matches_the_closed_form(kind, ball):
    got = ritz.spectrum(Ellipse(1.0, 1.0), kind, 9)
    ref = ball(BallSpec(2), 9).values
    assert np.max(np.abs(np.array(got.values) / ref - 1.0)) <= 1e-10
    assert got.provenance is Provenance.RITZ and got.mesh_h is None
    assert 0.0 <= got.allowance <= 1e-10


def test_unit_square_gamma_1_from_above():
    gamma_1 = ritz.spectrum(Rectangle(1.0, 1.0), CLAMPED, 1).values[0]
    assert gamma_1 >= SQUARE_GAMMA_1
    assert gamma_1 / SQUARE_GAMMA_1 - 1.0 <= 1e-10


def test_two_to_one_ellipse_first_values():
    ellipse = Ellipse(1.0, 0.5)
    assert ritz.spectrum(ellipse, CLAMPED, 1).values[0] == pytest.approx(ELLIPSE_GAMMA_1, rel=1e-9, abs=0.0)
    assert ritz.spectrum(ellipse, BUCKLING, 1).values[0] == pytest.approx(ELLIPSE_LAMBDA_1, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("label", sorted(RITZ_CORPUS))
@pytest.mark.parametrize("kind", PLATES)
def test_values_fall_with_the_degree(label, kind):
    shape = RITZ_CORPUS[label]
    degrees = range(ritz._DEGREE - 2 * ritz._DEGREE_STEP, ritz._DEGREE + 2 * ritz._DEGREE_STEP, ritz._DEGREE_STEP)
    values = [ritz._eigenvalues(shape, kind, 9, p) for p in degrees]
    for coarse, fine in zip(values, values[1:]):
        assert np.all(fine <= coarse * (1.0 + ritz._MONOTONE_MARGIN))


@pytest.mark.parametrize("label", sorted(RITZ_CORPUS))
def test_spectrum_is_the_degree_p_values_with_the_change_from_p_minus_4_as_allowance(label):
    shape = RITZ_CORPUS[label]
    for kind in PLATES:
        got = ritz.spectrum(shape, kind, 9)
        fine = ritz._eigenvalues(shape, kind, 9, ritz._DEGREE)
        coarse = ritz._eigenvalues(shape, kind, 9, ritz._DEGREE - ritz._DEGREE_STEP)
        assert got.values == tuple(fine.tolist())
        assert got.allowance == float(np.max(np.abs(fine - coarse) / fine))


def _unsplit_rectangle(shape, kind, p):
    bx, by = ritz._beam(p, shape.width), ritz._beam(p, shape.height)
    (k2x, k1x, mx), (k2y, k1y, my) = bx, by
    stiffness = np.kron(k2x, my) + 2.0 * np.kron(k1x, k1y) + np.kron(mx, k2y)
    mass = np.kron(mx, my) if kind is CLAMPED else np.kron(k1x, my) + np.kron(mx, k1y)
    return stiffness, mass


def _unsplit_ellipse(shape, kind, p):
    return ritz._ellipse_block(shape, kind, p, ritz._ellipse_basis(p)[0])


@pytest.mark.parametrize("shape, unsplit", [(Rectangle(math.sqrt(8.0), math.sqrt(3.0)), _unsplit_rectangle),
                                            (Ellipse(1.0, 0.5), _unsplit_ellipse)])
@pytest.mark.parametrize("kind", PLATES)
def test_parity_blocks_merge_to_the_unsplit_solve(shape, unsplit, kind):
    p, m = 8, 6
    stiffness, mass = unsplit(shape, kind, p)
    n = len(stiffness)
    whole = np.sort(1.0 / linalg.eigh(mass, stiffness, eigvals_only=True, subset_by_index=[n - m, n - 1]))
    np.testing.assert_allclose(ritz._eigenvalues(shape, kind, m, p), whole, rtol=1e-12, atol=0.0)


def test_more_values_than_a_parity_block_holds_is_a_solver_error():
    # degree 24: the tensor basis has 12 odd functions a side, so the odd-odd block holds 144
    with pytest.raises(SolverError, match="fewer than the 145 values"):
        ritz.spectrum(Rectangle(1.0, 1.0), CLAMPED, 145)


def test_an_indefinite_stiffness_is_a_solver_error(monkeypatch):
    real = ritz._rectangle_blocks
    monkeypatch.setattr(ritz, "_rectangle_blocks",
                        lambda *args: [(-stiffness, mass) for stiffness, mass in real(*args)])
    with pytest.raises(SolverError, match="at degree 24") as info:
        ritz.spectrum(Rectangle(1.0, 1.0), BUCKLING, 3)
    assert isinstance(info.value.__cause__, linalg.LinAlgError)


@pytest.mark.parametrize("shape, kind", [(Disk(1.0), CLAMPED), (LShape(0.5, 0.5), BUCKLING),
                                         (Rectangle(1.0, 1.0), ProblemKind.DIRICHLET)])
def test_only_rectangle_and_ellipse_plates_are_solved(shape, kind):
    with pytest.raises(ValueError):
        ritz.spectrum(shape, kind, 3)


def test_sources_route_rectangle_and_ellipse_plates_to_ritz():
    problems = {ProblemKind.DIRICHLET: 4, ProblemKind.NEUMANN: 4, CLAMPED: 3, BUCKLING: 3}
    for shape in (Rectangle(1.0, 0.5), Ellipse(1.0, 0.5)):
        bundle, per_level, errors = sources.solve_shape("d", shape, problems, 0.125, 2)
        assert not errors
        assert bundle.clamped == ritz.spectrum(shape, CLAMPED, 3)
        assert bundle.buckling == ritz.spectrum(shape, BUCKLING, 3)
        assert per_level[CLAMPED] == per_level[BUCKLING] == []
        for kind in (ProblemKind.DIRICHLET, ProblemKind.NEUMANN):
            assert [s.mesh_h for s in per_level[kind]] == [0.125, 0.0625]
            assert getattr(bundle, kind.value).provenance is Provenance.DISCRETE_EXTRAPOLATED
    for shape in (Disk(0.5), LShape(0.5, 0.5)):
        bundle, per_level, errors = sources.solve_shape("d", shape, {CLAMPED: 3, BUCKLING: 3}, 0.125, 2)
        assert not errors
        assert (bundle, per_level) == solve_shape("d", shape, {CLAMPED: 3, BUCKLING: 3}, 0.125, 2)[:2]


@pytest.fixture(scope="module")
def fd_plates():
    """Finite-difference plates of the ritz corpus shapes, extrapolated from h = 1/32 and 1/64."""
    out = {}
    for label, shape in RITZ_CORPUS.items():
        bundle, _, errors = solve_shape(label, shape, {CLAMPED: 9, BUCKLING: 9}, 1.0 / 32.0, 2)
        assert not errors
        out[label] = bundle
    return out


@pytest.mark.parametrize("label", sorted(RITZ_CORPUS))
@pytest.mark.parametrize("kind", PLATES)
def test_fd_plates_lie_within_twice_their_allowance_of_ritz(fd_plates, label, kind):
    # measured error / allowance: at most 0.012 on the unit square, 1.01 on rect_2to1 (its Gamma_1),
    # 0.53 on rect_sqrt8_sqrt3 and 0.48 on the 2:1 ellipse
    fd = getattr(fd_plates[label], kind.value)
    exact = np.array(ritz.spectrum(RITZ_CORPUS[label], kind, 9).values)
    assert np.all(np.abs(np.array(fd.values) / exact - 1.0) <= 2.0 * fd.allowance)
