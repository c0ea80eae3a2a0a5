"""Rayleigh–Ritz spectra of the clamped and buckling plates on rectangles and ellipses.

Both problems are posed on H^2_0: the clamped plate (Delta^2 u = Gamma u)
minimizes int (Delta u)^2 / int u^2, and buckling (Delta^2 u = -Lambda
Delta u) minimizes int (Delta u)^2 / int |grad u|^2. Every trial function
is w^2 times a polynomial, w a defining function of the shape (w > 0
inside, w = 0 on the boundary), so it vanishes with its gradient on the
boundary. The spaces are conforming and nested in the degree p, so every
value is an upper bound that falls with p.

* `Rectangle(W, H)`: the tensor basis u_i(x) u_j(y), 0 <= i, j <= p, of
  1D beam functions u_i = (1 - s^2)^2 P_i^(4,4)(s), s the side mapped onto
  [-1, 1]; that is w^2 P_i(x) P_j(y) with w = x (W - x) y (H - y). The
  Jacobi polynomials P^(4,4) are orthogonal under (1 - s^2)^4, so the 1D
  mass matrix M is diagonal, and the plate matrices are Kronecker products
  of the beam matrices M, K1 = int u' u' and K2 = int u'' u'' (Gauss–
  Legendre, exact): stiffness K2 x M + 2 K1 x K1 + M x K2, clamped mass
  M x M and buckling mass K1 x M + M x K1.
* `Ellipse(a, b)`: every polynomial of total degree <= p in X = x/a,
  Y = y/b times w^2, w = 1 - X^2 - Y^2 (the space of w^2 P_i(X) P_j(Y),
  i + j <= p), in the basis r^m P_k^(4,m)(2 r^2 - 1) cos(m theta - phi),
  m + 2k <= p, phi = 0 or pi/2 (phi = 0 only for m = 0), which is
  orthogonal under w^4 on the unit disk, so the mass matrix is diagonal
  on every ellipse. The integrals are Gauss–Legendre in r (p + 5 points)
  times the trapezoid rule in theta (2p + 10 points), exact for these
  polynomial integrands.

Every basis function is even or odd in x and in y about the centre, so
the matrices split into four parity blocks. Each is solved with a dense
`scipy.linalg.eigh` for its m smallest values, and the four lists are
merged. The smallest eigenvalues are taken as the largest of the inverse
problem (mass) x = (1/value) (stiffness) x: its round-off is relative to
1/value, while the direct problem's is relative to the largest value of
the block, which grows like p^8 and left the unit square's Gamma_1
non-monotone in p from the tenth digit on.

Degree rule: the spectrum is the degree-p values, p = `_DEGREE` = 24,
and its allowance is max_i |v_i(p) - v_i(p - 4)| / v_i(p), the same
relative form as the finite-difference one. In this basis the clamped
mass matrix has condition number 1 after normalization, and at p = 24
the largest block condition numbers of the corpus shapes are 2.3e6 for
the stiffness and 2.0e3 for the buckling mass (1.5e8 and 1.6e4 at p =
44), so the degree is set by accuracy and time, not by conditioning: the
unit disk (as `Ellipse(1, 1)`) matches `balls` to 1e-14 from p = 20 on,
and the 2:1 ellipse's nine values move by at most 1.8e-11 from p = 20 to
24. The rectangles converge algebraically (their eigenfunctions are
singular at the corners): the unit square's Gamma_1 lies 8.5e-11 above
Bjorstad & Tjostheim's 1294.9339795917 (BIT 39, 1999) at p = 20, 2.8e-11
at p = 24 and 2.6e-12 at p = 32. One spectrum (degrees 24 and 20) takes
15-20 ms on one core; the parity blocks hold 144-169 functions on a
rectangle and 78-91 on an ellipse.

Checks, each raising `SolverError`: a degree-p value may exceed its
degree-(p - 4) value by at most `_MONOTONE_MARGIN` = 1e-12 relative, the
round-off allowed for (the largest rise measured on the corpus
rectangles, the 2:1 ellipse and the unit disk over p = 16..44, nine
values each, is 1.5e-14; a 10:1 ellipse rises by up to 3.5e-12 at
p = 44, but not at p = 24); every parity block must hold at least the m
basis functions its m values need; and `eigh`'s `LinAlgError` (a
stiffness that is not numerically positive definite) is reported, not
raised through.
"""

import math

import numpy as np
from numpy.polynomial import legendre
from scipy import linalg, special

from .grid.domain import Ellipse, Rectangle
from .grid.solve import SolverError
from .spectra import ProblemKind, Provenance, Spectrum

_DEGREE = 24
_DEGREE_STEP = 4  # the allowance compares degree p with degree p - 4
_MONOTONE_MARGIN = 1e-12  # relative rise from degree p - 4 to p still taken for round-off


def _beam(p, length):
    """1D beam matrices (K2, K1, M) of u_i, i = 0..p, on a side of `length`, scaled to unit mass diagonal."""
    s, wq = legendre.leggauss(p + 5)
    i = np.arange(p + 1)[:, None]
    q = special.eval_jacobi(i, 4, 4, s)
    # d/ds P_i^(a,b) = (i + a + b + 1) / 2 P_(i-1)^(a+1,b+1)
    q1 = (i + 9) / 2 * special.eval_jacobi(i - 1, 5, 5, s) * (i >= 1)
    q2 = (i + 9) * (i + 10) / 4 * special.eval_jacobi(i - 2, 6, 6, s) * (i >= 2)
    w = 1.0 - s * s
    u = w * w * q
    u1 = -4.0 * s * w * q + w * w * q1
    u2 = (12.0 * s * s - 4.0) * q - 8.0 * s * w * q1 + w * w * q2
    half = length / 2.0  # dx = half ds, d/dx = d/ds / half
    mass = (u * wq) @ u.T * half
    k1 = (u1 * wq) @ u1.T / half
    k2 = (u2 * wq) @ u2.T / half**3
    d = 1.0 / np.sqrt(np.diag(mass))
    return [d[:, None] * k * d for k in (k2, k1, mass)]


def _rectangle_blocks(shape, kind, p):
    """(stiffness, mass) of `kind` in each (x, y) parity block of the tensor basis."""
    bx, by = _beam(p, shape.width), _beam(p, shape.height)
    blocks = []
    for px in (0, 1):
        k2x, k1x, mx = (k[px::2, px::2] for k in bx)
        for py in (0, 1):
            k2y, k1y, my = (k[py::2, py::2] for k in by)
            stiffness = np.kron(k2x, my) + 2.0 * np.kron(k1x, k1y) + np.kron(mx, k2y)
            mass = np.kron(mx, my) if kind is ProblemKind.CLAMPED else np.kron(k1x, my) + np.kron(mx, k1y)
            blocks.append((stiffness, mass))
    return blocks


def _ellipse_basis(p):
    """(m, k, phase) of every basis function of degree p, and its (x, y) parity (1 = odd)."""
    mkf = np.array([(m, k, phase) for m in range(p + 1) for k in range((p - m) // 2 + 1)
                    for phase in ((0, 1) if m else (0,))])
    return mkf, np.stack([(mkf[:, 0] + mkf[:, 2]) % 2, mkf[:, 2]], axis=1)


def _ellipse_block(shape, kind, p, mkf):
    """(stiffness, mass) of `kind` on the basis functions `mkf` (rows of (m, k, phase)).

    Every sampled field (the function, its gradient, its Laplacian) is a
    sum of a few products R(r) T(theta), so each Gram matrix is a sum of
    elementwise products of a radial and an angular Gram matrix.
    """
    a, b = shape.a, shape.b
    x, wr = legendre.leggauss(p + 5)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * wr * r * a * b  # dx dy = a b r dr dtheta on [0, 1]
    nt = 2 * p + 10
    theta = 2.0 * math.pi * np.arange(nt) / nt
    m, k = mkf[:, :1], mkf[:, 1:2]
    # radial part F = r^m G, G = (1 - r^2)^2 Q(2 r^2 - 1), Q = P_k^(4,m), and its r-derivatives
    t = 2.0 * r * r - 1.0
    q = special.eval_jacobi(k, 4, m, t)
    q1 = (k + m + 5) / 2 * special.eval_jacobi(k - 1, 5, m + 1, t) * (k >= 1)
    q2 = (k + m + 5) * (k + m + 6) / 4 * special.eval_jacobi(k - 2, 6, m + 2, t) * (k >= 2)
    w = 1.0 - r * r
    g = w * w * q
    g1 = -4.0 * r * w * q + 4.0 * r * w * w * q1
    g2 = (12.0 * r * r - 4.0) * q - 32.0 * r * r * w * q1 + w * w * (4.0 * q1 + 16.0 * r * r * q2)
    r0, r1, r2 = r**m, r ** (m - 1.0), r ** (m - 2.0)  # r > 0 at every Gauss point
    f = r0 * g
    fr = m * r1 * g + r0 * g1
    fo = m * r1 * g  # m F / r
    # angular part cos(m theta - phi) and sin(m theta - phi), the factor its theta-derivative brings
    ang = m * theta - 0.5 * math.pi * mkf[:, 2:]
    cm, sm = np.cos(ang), np.sin(ang)
    c, s = np.cos(theta), np.sin(theta)
    if kind is ProblemKind.CLAMPED:
        mass_fields = [[(f, cm)]]
    else:  # the gradient in x and in y
        mass_fields = [[(fr, c * cm / a), (fo, s * sm / a)], [(fr, s * cm / b), (-fo, c * sm / b)]]
    ia, ib = 1.0 / (a * a), 1.0 / (b * b)
    laplacian = [
        (m * (m - 1) * r2 * g + 2.0 * m * r1 * g1 + r0 * g2, (ia * c * c + ib * s * s) * cm),  # F_rr
        (r1 * g1 - m * (m - 1) * r2 * g, (ia * s * s + ib * c * c) * cm),  # F_r / r - m^2 F / r^2
        (m * ((m - 1) * r2 * g + r1 * g1), 2.0 * (ia - ib) * s * c * sm),  # m (F_r / r - F / r^2)
    ]
    scale = 1.0 / np.sqrt((f * f) @ wr * (cm * cm).sum(axis=1) * (2.0 * math.pi / nt))  # unit mass diagonal

    def gram(field):
        return sum(((ri * wr) @ rj.T) * (ti @ tj.T) for ri, ti in field for rj, tj in field) * (
            2.0 * math.pi / nt) * np.outer(scale, scale)

    return gram(laplacian), sum(gram(field) for field in mass_fields)


def _ellipse_blocks(shape, kind, p):
    mkf, parity = _ellipse_basis(p)
    return [_ellipse_block(shape, kind, p, mkf[np.all(parity == key, axis=1)])
            for key in ((0, 0), (0, 1), (1, 0), (1, 1))]


def _eigenvalues(shape, kind, m, p):
    """The m smallest degree-p Ritz values of `kind` on `shape`, merged from the four parity blocks."""
    blocks = (_rectangle_blocks if isinstance(shape, Rectangle) else _ellipse_blocks)(shape, kind, p)
    values = []
    for stiffness, mass in blocks:
        n = len(stiffness)
        if n < m:
            raise SolverError(f"ritz {kind.value} on {shape.label}: a parity block of degree {p} holds "
                              f"{n} basis functions, fewer than the {m} values asked for")
        try:
            inverse = linalg.eigh(mass, stiffness, eigvals_only=True, subset_by_index=[n - m, n - 1])
        except linalg.LinAlgError as exc:
            raise SolverError(f"ritz {kind.value} on {shape.label} at degree {p}: {exc}") from exc
        values.append(1.0 / inverse)
    return np.sort(np.concatenate(values))[:m]


def spectrum(shape, kind: ProblemKind, m: int) -> Spectrum:
    """The m smallest clamped or buckling eigenvalues of a `Rectangle` or `Ellipse`.

    The values are those of degree `_DEGREE`, with provenance RITZ, no
    mesh width and the relative change from degree `_DEGREE - 4` as the
    allowance. Raises SolverError when a check fails (module docstring).
    """
    if kind not in (ProblemKind.CLAMPED, ProblemKind.BUCKLING):
        raise ValueError(f"ritz solves the clamped and buckling plates, not {kind.value}")
    if not isinstance(shape, (Rectangle, Ellipse)):
        raise ValueError(f"ritz has no basis for {shape.label}")
    fine = _eigenvalues(shape, kind, m, _DEGREE)
    coarse = _eigenvalues(shape, kind, m, _DEGREE - _DEGREE_STEP)
    rise = (fine - coarse) / coarse
    if rise.max() > _MONOTONE_MARGIN:
        i = int(rise.argmax())
        raise SolverError(f"ritz {kind.value} on {shape.label}: value {i + 1} rose by {rise[i]:.3e} relative "
                          f"from degree {_DEGREE - _DEGREE_STEP} to {_DEGREE} ({coarse[i]!r} -> {fine[i]!r}), "
                          f"above the round-off margin {_MONOTONE_MARGIN:g}")
    allowance = float(np.max(np.abs(fine - coarse) / fine))
    return Spectrum(kind, tuple(fine.tolist()), Provenance.RITZ, None, allowance)
