"""Spectrum and DomainSpectra invariants."""

import numpy as np
import pytest

from eigenineq.spectra import DomainSpectra, ProblemKind, Provenance, Spectrum


def test_sorted_and_positive_enforced():
    with pytest.raises(ValueError):
        Spectrum(ProblemKind.DIRICHLET, (2.0, 1.0), Provenance.CLOSED_FORM)
    with pytest.raises(ValueError):
        Spectrum(ProblemKind.DIRICHLET, (-1.0, 1.0), Provenance.CLOSED_FORM)
    with pytest.raises(ValueError):
        Spectrum(ProblemKind.CLAMPED, (0.0, 1.0), Provenance.CLOSED_FORM)


def test_dirichlet_first_eigenvalue_simple():
    with pytest.raises(ValueError):
        Spectrum(ProblemKind.DIRICHLET, (1.0, 1.0), Provenance.CLOSED_FORM)
    s = Spectrum(ProblemKind.DIRICHLET, (1.0, 2.0, 2.0), Provenance.CLOSED_FORM)
    assert len(s) == 3


def test_neumann_zero_mode_rules():
    s = Spectrum(ProblemKind.NEUMANN, (0.0, 3.0), Provenance.CLOSED_FORM)
    assert s.values[0] == 0.0
    Spectrum(ProblemKind.NEUMANN, (1e-9, 3.0), Provenance.DISCRETE)  # tiny residual fine
    with pytest.raises(ValueError):
        Spectrum(ProblemKind.NEUMANN, (0.5, 3.0), Provenance.CLOSED_FORM)


def test_dimension_and_emptiness():
    with pytest.raises(ValueError, match="dimension"):
        DomainSpectra("x", 1, 1.0)
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="dimension"):
            DomainSpectra("x", bad, 1.0)
    assert DomainSpectra("x", np.int64(3), 1.0).dimension == 3
    with pytest.raises(ValueError):
        Spectrum(ProblemKind.DIRICHLET, (), Provenance.CLOSED_FORM)
    with pytest.raises(ValueError):
        Spectrum(ProblemKind.DIRICHLET, (float("nan"),), Provenance.CLOSED_FORM)
